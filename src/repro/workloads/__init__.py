"""Synthetic workloads: the paper's proprietary ISP data, rebuilt.

The reproduction cannot use the paper's live ISP streams, so this
subpackage generates statistically matched substitutes (see DESIGN.md's
substitution table):

* :func:`large_isp` / :func:`small_isp` — the two deployments of
  Section 2, as lazy timestamp-ordered DNS + Netflow streams;
* :func:`two_site_capture` — the Section 4 accuracy experiment's
  browse-two-websites capture;
* :class:`TtlModel`, :class:`DiurnalPattern`, :class:`CdnHosting`,
  :func:`build_universe` — the building blocks, exposed for custom
  workloads;
* :class:`WorkloadGenerator` / :func:`generate_capture` — the
  internet-scale streaming ``.fdc`` generator (Zipf popularity,
  heavy-tailed flow sizes, Poisson arrivals) and
  :class:`SweepSpec` / :func:`run_sweep` — the parameter-sweep harness
  that replays a generated grid through the async engine.
"""

from repro.workloads.cdn import CdnHosting, CdnProvider, Resolution, default_providers
from repro.workloads.diurnal import DiurnalPattern, FlatPattern
from repro.workloads.domains import (
    CHAIN_LENGTH_WEIGHTS,
    DomainUniverse,
    ServiceSpec,
    build_universe,
    chain_weights_for_depth,
)
from repro.workloads.generator import (
    SIZE_CDFS,
    TTL_PROFILES,
    GeneratorParams,
    GeneratorReport,
    SizeCdf,
    WorkloadGenerator,
    generate_capture,
)
from repro.workloads.isp import (
    ISP_RESOLVER_IPS,
    PUBLIC_RESOLVER_FRACTION,
    PUBLIC_RESOLVER_IPS,
    IspWorkload,
    LagModel,
    large_isp,
    small_isp,
)
from repro.workloads.malicious import (
    PAPER_DBL_COUNTS_PER_MILLION,
    PAPER_MALFORMED_FRACTION,
    AbusePopulation,
    build_abuse_population,
    malformed_name,
)
from repro.workloads.pcaplike import TwoSiteCapture, two_site_capture
from repro.workloads.sweep import SweepSpec, run_sweep, sweep_points
from repro.workloads.ttl_model import TtlModel

__all__ = [
    "IspWorkload",
    "LagModel",
    "large_isp",
    "small_isp",
    "two_site_capture",
    "TwoSiteCapture",
    "CdnHosting",
    "CdnProvider",
    "Resolution",
    "default_providers",
    "DiurnalPattern",
    "FlatPattern",
    "DomainUniverse",
    "ServiceSpec",
    "build_universe",
    "chain_weights_for_depth",
    "CHAIN_LENGTH_WEIGHTS",
    "GeneratorParams",
    "GeneratorReport",
    "SizeCdf",
    "SIZE_CDFS",
    "TTL_PROFILES",
    "WorkloadGenerator",
    "generate_capture",
    "SweepSpec",
    "run_sweep",
    "sweep_points",
    "TtlModel",
    "AbusePopulation",
    "build_abuse_population",
    "malformed_name",
    "PAPER_DBL_COUNTS_PER_MILLION",
    "PAPER_MALFORMED_FRACTION",
    "PUBLIC_RESOLVER_FRACTION",
    "PUBLIC_RESOLVER_IPS",
    "ISP_RESOLVER_IPS",
]
