"""Chaos replay throughput: faulted wire bytes through the live engine.

PR 8's recorded benchmark: the same synthetic capture the replay
benchmark uses, but perturbed by the ``everything`` fault profile
before it reaches the engine. ``chaos_replay_flows_per_sec`` lands in
the per-PR bench JSON as trajectory data — record-only, no ratio gate:
fault injection changes how many flows survive (dropped datagrams,
corrupted templates), so a clean/chaos ratio would gate on the fault
plan, not the engine. The sanity floor only catches the injector gone
quadratic.
"""

import io
import time

from repro.core.invariants import assert_invariants
from repro.replay import FAULT_PROFILES, FaultInjector, replay_capture
from repro.util.benchio import record_bench

from benchmarks.test_replay_throughput import _build_capture

#: Absolute sanity floor, far under real numbers: catches the fault
#: injector or a hardened decode path gone quadratic, never timing noise.
MIN_FLOWS_PER_SEC = 1_000

CHAOS_BENCH_SEED = 42


def test_chaos_replay_throughput(tmp_path):
    path = str(tmp_path / "bench.fdc")
    n_flows = _build_capture(path)

    injector = FaultInjector(FAULT_PROFILES["everything"], seed=CHAOS_BENCH_SEED)
    t0 = time.perf_counter()
    frames = injector.apply(path)
    inject_elapsed = time.perf_counter() - t0

    sink = io.StringIO()
    t0 = time.perf_counter()
    report = replay_capture(frames, sink=sink)
    replay_elapsed = time.perf_counter() - t0

    # Under faults the engine processes fewer flows than the clean
    # capture carried; throughput is measured over what it decoded.
    rows = [
        line for line in sink.getvalue().splitlines()
        if line and not line.startswith("#")
    ]
    assert_invariants(report, rows=len(rows))
    assert 0 < report.flow_records <= n_flows

    elapsed = inject_elapsed + replay_elapsed
    rate = report.flow_records / elapsed if elapsed > 0 else 0.0
    record_bench("chaos_replay_flows_per_sec", round(rate))
    print(f"\nchaos replay: {report.flow_records:,} flows in {elapsed:.2f}s "
          f"({inject_elapsed:.2f}s inject + {replay_elapsed:.2f}s replay) "
          f"= {rate:,.0f} flows/s (everything profile, async)")
    assert rate >= MIN_FLOWS_PER_SEC, (
        f"chaos replay throughput collapsed: "
        f"{rate:,.0f} < {MIN_FLOWS_PER_SEC:,} flows/s"
    )
