"""Replay throughput: captured wire bytes through the live engine.

PR 5's recorded benchmark: a synthetic capture (NetFlow v9 export
datagrams + wire-format DNS messages, the same length-framed ``.fdc``
format the golden corpus uses) replayed at max speed through the
async engine — capture decode, per-datagram collector decode,
correlate, TSV write, end to end. ``replay_flows_per_sec`` lands in the
per-PR bench JSON as trajectory data.

No hard ratio gate: replay speed tracks the engine-throughput gates
that already exist (`test_engine_throughput.py`); this file pins the
*capture layer's* overhead as a recorded number plus a sanity floor,
and smoke-replays the checked-in golden corpus — the CI
``replay-smoke`` step.
"""

import io
import pathlib
import time

from repro.core.config import FlowDNSConfig
from repro.dns.rr import RRType, a_record
from repro.dns.wire import DnsMessage, Question, encode_message
from repro.netflow.exporter import FlowExporter
from repro.netflow.records import FlowRecord
from repro.replay import (
    LANE_DNS,
    LANE_FLOW,
    SCENARIOS,
    CaptureFrame,
    replay_capture,
    write_capture,
)
from repro.util.benchio import record_bench

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "tests" / "data" / "golden"

N_DNS_MESSAGES = 300
N_FLOWS = 30_000
N_POOL_IPS = 250

#: Absolute sanity floor, far under real numbers (tens of thousands/s
#: here): catches a capture layer gone quadratic, never timing noise.
MIN_FLOWS_PER_SEC = 2_000


def _build_capture(path: str) -> int:
    frames = []
    for i in range(N_DNS_MESSAGES):
        name = f"svc{i % N_POOL_IPS}.replay.example"
        msg = DnsMessage()
        msg.questions.append(Question(name, RRType.A))
        msg.answers.append(a_record(name, f"10.60.0.{i % N_POOL_IPS + 1}", 600))
        frames.append(CaptureFrame(0.1 * i, LANE_DNS, encode_message(msg)))
    flows = [
        FlowRecord(ts=40.0 + (i % 30), src_ip=f"10.60.0.{i % N_POOL_IPS + 1}",
                   dst_ip="100.64.0.1", bytes_=100 + i % 37)
        for i in range(N_FLOWS)
    ]
    ts = 40.0
    for datagram in FlowExporter(version=9, batch_size=30).export(flows):
        frames.append(CaptureFrame(ts, LANE_FLOW, datagram))
        ts += 0.001
    write_capture(path, frames)
    return len(flows)


def test_replay_throughput(tmp_path, benchmark=None):
    path = str(tmp_path / "bench.fdc")
    n_flows = _build_capture(path)

    t0 = time.perf_counter()
    report = replay_capture(path)
    elapsed = time.perf_counter() - t0

    assert report.flow_records == n_flows
    assert report.matched_flows == n_flows
    assert report.dns_records == N_DNS_MESSAGES

    rate = n_flows / elapsed if elapsed > 0 else 0.0
    record_bench("replay_flows_per_sec", round(rate))
    print(f"\nreplay: {n_flows:,} flows in {elapsed:.2f}s "
          f"= {rate:,.0f} flows/s (max speed, async)")
    assert rate >= MIN_FLOWS_PER_SEC, (
        f"replay throughput collapsed: {rate:,.0f} < {MIN_FLOWS_PER_SEC:,} flows/s"
    )


def test_replay_smoke_golden_corpus():
    """Every golden capture replays with a row per flow — the cheap
    always-on check behind the full batch-layout differential harness in
    ``tests/test_replay_differential.py``."""
    total_flows = 0
    for name in sorted(SCENARIOS):
        sink = io.StringIO()
        report = replay_capture(
            str(GOLDEN_DIR / f"{name}.fdc"), config=FlowDNSConfig(), sink=sink
        )
        assert report.flow_records > 0, name
        rows = [
            line for line in sink.getvalue().splitlines()
            if not line.startswith("#")
        ]
        assert len(rows) == report.flow_records, name
        total_flows += report.flow_records
    record_bench("replay_smoke_golden_flows", total_flows)
