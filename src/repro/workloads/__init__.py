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

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workloads.isp": "IspWorkload LagModel large_isp small_isp "
    "PUBLIC_RESOLVER_FRACTION PUBLIC_RESOLVER_IPS ISP_RESOLVER_IPS",
    "repro.workloads.pcaplike": "two_site_capture TwoSiteCapture",
    "repro.workloads.cdn": "CdnHosting CdnProvider Resolution default_providers",
    "repro.workloads.diurnal": "DiurnalPattern FlatPattern",
    "repro.workloads.domains": "DomainUniverse ServiceSpec build_universe "
    "chain_weights_for_depth CHAIN_LENGTH_WEIGHTS",
    "repro.workloads.generator": "GeneratorParams GeneratorReport SizeCdf SIZE_CDFS "
    "TTL_PROFILES WorkloadGenerator generate_capture",
    "repro.workloads.sweep": "SweepSpec run_sweep sweep_points",
    "repro.workloads.ttl_model": "TtlModel",
    "repro.workloads.malicious": "AbusePopulation build_abuse_population malformed_name "
    "PAPER_DBL_COUNTS_PER_MILLION PAPER_MALFORMED_FRACTION",
})
