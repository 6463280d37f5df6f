#!/usr/bin/env python3
"""Operating FlowDNS: state snapshots, restarts, and metrics.

Demonstrates the operational features around the correlator:

1. run the live (asyncio) pipeline and scrape its Prometheus-style
   metrics;
2. snapshot the DNS state at "shutdown";
3. "restart" with a fresh engine and show that, restored on start from
   the snapshot, it correlates flows immediately — while a cold engine
   misses everything until the maps re-fill (the availability gap
   snapshots exist to close);
4. render the terminal dashboard for a simulated run.

Run with:  python examples/operations.py
"""

import os
import tempfile
from itertools import islice

from repro import AsyncEngine, FlowDNSConfig, SimulationEngine, large_isp
from repro.analysis.figures import render_report_summary
from repro.analysis import strip_warmup
from repro.core.config import EngineConfig
from repro.core.monitor import render_async_engine
from repro.storage.snapshot import save_snapshot


def main() -> None:
    workload = large_isp(seed=5, duration=900.0, n_benign=300, warmup=600.0)
    dns = list(workload.dns_records())
    flows = list(islice(workload.flow_records(), 4000))
    cut = len(flows) // 2
    flows_before, flows_after = flows[:cut], flows[cut:]

    # --- 1. first run + metrics scrape ------------------------------------
    engine = AsyncEngine(FlowDNSConfig())
    report1 = engine.run(dns, flows_before)
    print(f"run 1: correlated {report1.correlation_rate:.1%} of bytes "
          f"({report1.matched_flows}/{report1.flow_records} flows)")
    print("\nscraped metrics (excerpt):")
    for line in render_async_engine(engine).splitlines():
        if "storage_entries" in line and not line.startswith("#"):
            print(f"  {line}")

    with tempfile.TemporaryDirectory() as tmp:
        # --- 2. snapshot at shutdown ---------------------------------------
        path = os.path.join(tmp, "flowdns-snapshot.json")
        entries = save_snapshot(engine.storage, path)
        print(f"\nsnapshot written: {entries} entries, "
              f"{os.path.getsize(path) / 1024:.0f} KiB of JSON")

        # --- 3. cold restart vs restored restart ----------------------------
        cold_report = AsyncEngine(FlowDNSConfig()).run([], flows_after)
        restored = AsyncEngine(EngineConfig(snapshot_path=path))
        restored_report = restored.run([], flows_after)

    print(f"\nafter restart (no new DNS records yet):")
    print(f"  cold engine     : {cold_report.correlation_rate:6.1%} of bytes correlated")
    print(f"  restored engine : {restored_report.correlation_rate:6.1%} of bytes correlated")

    # --- 4. dashboard for a longer simulated run ----------------------------
    sim_workload = large_isp(seed=5, duration=6 * 3600.0)
    sim = SimulationEngine(FlowDNSConfig(), cost_params=sim_workload.cost_params,
                           worker_count=sim_workload.worker_count,
                           sample_interval=1800.0)
    sim_report = sim.run(sim_workload.dns_records(), sim_workload.flow_records())
    sim_report = strip_warmup(sim_report, sim_workload.t0)
    print()
    print(render_report_summary(sim_report, title="six simulated hours, large ISP"))


if __name__ == "__main__":
    main()
