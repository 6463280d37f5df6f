"""FlowDNS core: the paper's primary contribution.

The pipeline (Figure 1) is assembled from:

* :class:`FlowDNSConfig` — Table 1 parameters and engine knobs;
* :class:`DnsStorage` — the shared Active/Inactive/Long (or exact-TTL)
  storage behind one facade;
* :class:`FillUpProcessor` / :class:`LookUpProcessor` — the batched
  worker logic (Algorithms 1 and 2);
* :class:`AsyncEngine` — one asyncio loop with live socket ingest
  (NetFlow over UDP, DNS over TCP), the deployed-service shape;
* :class:`SimulationEngine` — deterministic replay with a calibrated
  resource model, deployment-scale figures;
* :class:`Variant` — the paper's ablation benchmarks.
"""

from repro.core.adapter import (
    DnsAdapter,
    FlowAdapter,
    load_mapping,
    load_mapping_file,
)
from repro.core.async_engine import AsyncEngine
from repro.core.config import EngineConfig, FlowDNSConfig
from repro.core.flowdns import FlowDNS
from repro.core.ingest import TcpDnsIngest, UdpFlowIngest
from repro.core.monitor import render_report
from repro.core.fillup import FillUpProcessor, FillUpStats
from repro.core.lookup import CorrelationResult, LookUpProcessor, LookUpStats
from repro.core.metrics import (
    CostModel,
    CostModelParams,
    EngineReport,
    IngestStats,
    IntervalCounters,
    IntervalSample,
)
from repro.core.pipeline import is_live_source
from repro.core.simulation import SimulationEngine
from repro.core.storage_adapter import DnsStorage
from repro.core.variants import (
    ENGINE_VARIANTS,
    FIGURE3_VARIANTS,
    FIGURE7_VARIANTS,
    Variant,
    config_for,
    engine_for,
)
from repro.core.writer import (
    DiscardSink,
    WriteWorker,
    parse_result_line,
)

__all__ = [
    "FlowDNS",
    "FlowDNSConfig",
    "EngineConfig",
    "AsyncEngine",
    "UdpFlowIngest",
    "TcpDnsIngest",
    "SimulationEngine",
    "IngestStats",
    "is_live_source",
    "ENGINE_VARIANTS",
    "engine_for",
    "DnsStorage",
    "FillUpProcessor",
    "FillUpStats",
    "LookUpProcessor",
    "LookUpStats",
    "CorrelationResult",
    "CostModel",
    "CostModelParams",
    "EngineReport",
    "IntervalCounters",
    "IntervalSample",
    "Variant",
    "FIGURE3_VARIANTS",
    "FIGURE7_VARIANTS",
    "config_for",
    "WriteWorker",
    "DiscardSink",
    "parse_result_line",
    "DnsAdapter",
    "FlowAdapter",
    "load_mapping",
    "load_mapping_file",
    "render_report",
]
