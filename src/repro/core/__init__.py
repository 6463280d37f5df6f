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

from repro.util import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.flowdns": "FlowDNS",
    "repro.core.config": "FlowDNSConfig EngineConfig",
    "repro.core.async_engine": "AsyncEngine",
    "repro.core.ingest": "UdpFlowIngest TcpDnsIngest",
    "repro.core.simulation": "SimulationEngine",
    "repro.core.pipeline": "is_live_source",
    "repro.core.storage_adapter": "DnsStorage",
    "repro.core.fillup": "FillUpProcessor FillUpStats",
    "repro.core.lookup": "LookUpProcessor LookUpStats CorrelationResult",
    "repro.core.metrics": "CostModel CostModelParams EngineReport IngestStats "
    "IntervalCounters IntervalSample",
    "repro.core.variants": "Variant FIGURE3_VARIANTS FIGURE7_VARIANTS config_for",
    "repro.core.writer": "WriteWorker DiscardSink parse_result_line",
    "repro.core.adapter": "DnsAdapter FlowAdapter load_mapping load_mapping_file",
    "repro.core.monitor": "render_report",
})
