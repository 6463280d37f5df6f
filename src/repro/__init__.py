"""repro — a reproduction of *FlowDNS: Correlating Netflow and DNS Streams
at Scale* (Maghsoudlou, Gasser, Poese, Feldmann — CoNEXT '22).

FlowDNS answers, in near real time, the question "which service does this
traffic belong to?" by correlating an ISP's live Netflow streams with the
DNS responses its resolvers hand out. This package implements the full
system — the correlator, its rotating hashmap storage, both DNS and
Netflow wire substrates, ISP-scale synthetic workloads, and the BGP /
abuse-analysis use cases — plus the benchmark harness that regenerates
every figure and table of the paper's evaluation.

Quickstart::

    from repro import FlowDNSConfig, SimulationEngine, large_isp

    workload = large_isp(seed=7, duration=86400.0)
    engine = SimulationEngine(FlowDNSConfig(), cost_params=workload.cost_params)
    report = engine.run(workload.dns_records(), workload.flow_records())
    print(f"correlation rate: {report.correlation_rate:.1%}")

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured comparison of every experiment.
"""

from repro.core import (
    AsyncEngine,
    CorrelationResult,
    CostModel,
    CostModelParams,
    DnsStorage,
    EngineReport,
    FillUpProcessor,
    FlowDNS,
    FlowDNSConfig,
    IntervalSample,
    LookUpProcessor,
    SimulationEngine,
    Variant,
    config_for,
)
from repro.dns import DnsRecord, DnsMessage, RRType, check_domain, is_valid_domain
from repro.netflow import FlowCollector, FlowExporter, FlowRecord
from repro.storage import StoreBank
from repro.workloads import large_isp, small_isp, two_site_capture
from repro.bgp import PrefixTrie, Rib

__version__ = "1.0.0"

__all__ = [
    "FlowDNS",
    "FlowDNSConfig",
    "SimulationEngine",
    "AsyncEngine",
    "DnsStorage",
    "FillUpProcessor",
    "LookUpProcessor",
    "CorrelationResult",
    "CostModel",
    "CostModelParams",
    "EngineReport",
    "IntervalSample",
    "Variant",
    "config_for",
    "DnsRecord",
    "DnsMessage",
    "RRType",
    "check_domain",
    "is_valid_domain",
    "FlowRecord",
    "FlowCollector",
    "FlowExporter",
    "StoreBank",
    "large_isp",
    "small_isp",
    "two_site_capture",
    "PrefixTrie",
    "Rib",
    "__version__",
]
