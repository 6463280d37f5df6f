"""Workload-generator perf gate + sweep throughput recorder.

Three numbers back the claim that the synthetic-workload harness can
stand in for the paper's ISP feeds at scale:

* the streaming generator emits wire frames at >= 200K flows/s on one
  core (``workload_gen_flows_per_sec`` — a hard gate, since a slower
  generator would dominate every sweep's wall clock);
* a configuration with one million clients streams to disk in bounded
  memory — the generator's footprint is the domain universe plus the
  reorder buffer, never the client population — and the capture then
  replays through the async engine with a row per flow and clean
  accounting (the acceptance bar for trusting sweep numbers at
  internet scale);
* a three-point client-count sweep records its per-config throughput
  rows into the bench JSON, so the per-PR artifacts accumulate a
  scaling trajectory alongside the scalar gates.

Row identity across batch layouts is the differential harness's job
(``tests/test_generated_differential.py``), not this file's.
"""

import io
import os
import tempfile
import time
import tracemalloc

from repro.core.invariants import assert_invariants
from repro.replay.runner import replay_capture
from repro.util.benchio import record_bench
from repro.workloads.generator import GeneratorParams, WorkloadGenerator
from repro.workloads.sweep import SweepSpec, run_sweep

#: Hard floor for the generator gate, flows per wall-clock second.
GEN_FLOOR = 200_000
#: Measurement config: the aggregate rate is pinned (base_rate) so the
#: measured number does not ride on the client-count axis, and the
#: exporter batch is widened to its throughput sweet spot.
GEN_PARAMS = GeneratorParams(seed=2003, base_rate=2500.0, duration=60.0,
                             batch_size=60)

#: One million clients at a residential trickle: the capture stays
#: CI-sized (~22K flows) while the *population* is internet-scale.
MILLION = GeneratorParams(seed=1007, clients=1_000_000,
                          per_client_rate=0.0002, duration=40.0)
#: Generous bound on tracemalloc peak while streaming MILLION to disk;
#: measured ~1.4 MB, so 64 MiB fails only on genuinely unbounded state
#: (e.g. per-client structures or an unbounded reorder buffer).
MILLION_PEAK_BYTES = 64 * 1024 * 1024


def test_generator_throughput_gate():
    best = 0.0
    for _ in range(3):
        report = WorkloadGenerator(GEN_PARAMS).write(io.BytesIO())
        best = max(best, report.flows_per_sec)
    record_bench("workload_gen_flows_per_sec", round(best, 1))
    print(f"\ngenerator: {best:,.0f} flows/s "
          f"({report.flows} flows, floor {GEN_FLOOR:,})")
    assert best >= GEN_FLOOR


def test_million_client_capture_bounded_and_replayable():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "million.fdc")
        tracemalloc.start()
        gen_report = WorkloadGenerator(MILLION).write(path)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert gen_report.flows > 10_000
        assert peak < MILLION_PEAK_BYTES
        record_bench("workload_gen_1m_client_peak_mb", round(peak / 1e6, 2))
        print(f"\n1M clients: {gen_report.flows} flows, "
              f"{gen_report.wire_bytes / 1e6:.1f} MB wire, "
              f"peak {peak / 1e6:.1f} MB traced")

        sink = io.StringIO()
        start = time.perf_counter()
        report = replay_capture(path, sink=sink)
        elapsed = time.perf_counter() - start
        rows = [line for line in sink.getvalue().splitlines()
                if line and not line.startswith("#")]
        assert_invariants(report, rows=len(rows))
        assert report.matched_flows > 0
        rate = report.flow_records / elapsed if elapsed > 0 else 0.0
        record_bench("workload_1m_replay_async_flows_per_sec", round(rate, 1))
        print(f"1M replay [async]: {rate:,.0f} flows/s, {len(rows)} rows")


def test_three_point_sweep_records_per_config_throughput():
    spec = SweepSpec(
        clients=(1000, 4000, 16000),
        base=GeneratorParams(seed=3001, duration=20.0),
    )
    with tempfile.TemporaryDirectory() as tmp:
        rows = run_sweep(spec, tmp, log=lambda message: None)
    assert len(rows) == 3
    for row in rows:
        assert row["gen_flows_per_sec"] > 0
        assert row["replay_flows_per_sec"] > 0
        assert row["match_rate"] > 0.9
    biggest = max(rows, key=lambda r: r["clients"])
    print(f"\nsweep: {len(rows)} legs; at {biggest['clients']} clients "
          f"replayed {biggest['replay_flows_per_sec']:,} flows/s "
          f"(match {biggest['match_rate']:.3f})")
