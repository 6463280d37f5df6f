"""The batch-layout differential harness over the golden capture corpus.

The contract under test: identical wire bytes through identical
DNS-before-flows ordering must produce *identical* sorted output rows
and report stats whatever the engine's batch layout — the default lane
batch, one item per wake-up, or an odd size that splits every run.
Output is a function of input, not of how the lanes happen to batch it.
Each golden capture under ``tests/data/golden/`` is one scenario from
:mod:`repro.replay.scenarios` at the golden seed; a parity break on any
of them bisects straight to the layout that diverged.

Both sides run with ``memoize_cname_chains=False``: memoisation
rewrites chain interiors on a layout-dependent schedule (pinned in
``tests/test_generated_differential.py``).

The live round-trip test closes the loop the subsystem exists for: a
capture teed off a real loopback session replays — offline, no sockets —
to the same report the live session produced, loss counters included.
"""

import io
import pathlib
import socket
import threading
import time

import pytest

from repro.core.async_engine import AsyncEngine
from repro.core.ingest import TcpDnsIngest, UdpFlowIngest
from repro.core.config import FlowDNSConfig
from repro.dns.rr import RRType
from repro.reference import DnsMessage, Question, a_record, cname_record, encode_message
from repro.dns.tcp import frame_messages
from repro.netflow.export import FlowExporter
from repro.netflow.records import FlowRecord
from repro.replay import (
    GOLDEN_SEED,
    LANE_DNS,
    LANE_FLOW,
    CaptureWriter,
    build_scenario,
    read_capture,
    replay_capture,
    SCENARIOS,
    write_scenario,
)
from repro.util.errors import ParseError
from testkit import send_datagrams

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden"

#: Report fields every batch layout must agree on, bit for bit.
COMPARABLE_FIELDS = (
    "matched_flows",
    "flow_records",
    "dns_records",
    "total_bytes",
    "correlated_bytes",
    "chain_lengths",
    "overwrites",
    "final_map_entries",
    "evictions",
)

#: The second legs: one item per lane wake-up, and an odd size.
LAYOUT_BATCH_SIZES = (1, 7)


def golden_path(name: str) -> str:
    return str(GOLDEN_DIR / f"{name}.fdc")


def _rows(sink: io.StringIO):
    return sorted(
        line for line in sink.getvalue().splitlines() if not line.startswith("#")
    )


def _replay(capture, config=None):
    sink = io.StringIO()
    report = replay_capture(
        capture,
        config=config if config is not None else FlowDNSConfig(),
        sink=sink,
    )
    return report, _rows(sink)


def assert_differential(capture, config_factory=FlowDNSConfig):
    """Every batch layout, identical rows + stats; returns the
    default-layout baseline.

    ``config_factory`` builds a *fresh* config per run — the engine
    mutates nothing on it today, but the harness should not rely on that.
    """
    def leg(**changes):
        config = config_factory().replace(memoize_cname_chains=False, **changes)
        return _replay(capture, config)

    baseline, baseline_rows = leg()
    for batch_size in LAYOUT_BATCH_SIZES:
        report, rows = leg(engine_batch_size=batch_size)
        assert rows == baseline_rows, (
            f"batch size {batch_size} rows diverged from the default layout"
        )
        for field in COMPARABLE_FIELDS:
            assert getattr(report, field) == getattr(baseline, field), (
                f"batch size {batch_size} {field}: {getattr(report, field)!r} "
                f"!= default {getattr(baseline, field)!r}"
            )
    return baseline, baseline_rows


class TestGoldenCorpus:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_corpus_is_regenerable(self, name):
        """Each checked-in capture is exactly its scenario at the golden
        seed — the corpus can never drift from the library that built it."""
        assert list(read_capture(golden_path(name))) == build_scenario(name, GOLDEN_SEED)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_corpus_regenerates_byte_for_byte(self, name, tmp_path):
        """Rewriting a scenario reproduces its checked-in file exactly:
        every DNS message and export datagram the writers emit."""
        path = tmp_path / f"{name}.fdc"
        write_scenario(name, str(path), GOLDEN_SEED)
        assert path.read_bytes() == pathlib.Path(golden_path(name)).read_bytes()

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_corpus_has_both_kinds_of_rows(self, name):
        """A scenario that matches everything (or nothing) cannot catch a
        correlation bug; the corpus must discriminate."""
        report, rows = _replay(golden_path(name))
        assert report.flow_records > 0
        assert report.matched_flows > 0
        assert rows, "no output rows"
        assert len(rows) == report.flow_records  # a row per flow
        # Every scenario except the all-matched template/two-site/ttl ones
        # also carries background traffic no DNS record announces.
        if name in ("bursts", "malformed", "cname-churn"):
            assert report.matched_flows < report.flow_records


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_engines_agree_on_golden_capture(self, name):
        """The headline assertion: every batch layout produces identical
        sorted rows and stats on every golden capture."""
        report, rows = assert_differential(golden_path(name))
        assert report.flow_records == len(rows)

    def test_exact_ttl_differential_and_discrimination(self):
        """The exact-TTL variant agrees across layouts too — and disagrees
        with the default config, proving the scenario actually exercises
        the expiry boundary instead of being trivially all-matched."""
        path = golden_path("ttl-expiry")
        default_report, _ = assert_differential(path)
        exact_report, _ = assert_differential(
            path, lambda: FlowDNSConfig(exact_ttl=True)
        )
        assert exact_report.flow_records == default_report.flow_records
        assert exact_report.matched_flows < default_report.matched_flows

    def test_two_site_overwrite_semantics(self):
        """The paper's same-IP two-website scenario: the second site's A
        record overwrites the first, and every layout counts it once."""
        report, _ = assert_differential(golden_path("two-site"))
        assert report.overwrites == 1

    def test_one_shot_frame_iterator_not_race_split(self):
        """CaptureLike admits any frame iterable; a generator input must
        produce the same results as the list or path forms instead of
        being silently race-split between the two lanes."""

        path = golden_path("two-site")
        baseline, baseline_rows = _replay(path)
        report, rows = _replay(read_capture(path))
        assert rows == baseline_rows
        assert report.flow_records == baseline.flow_records
        assert report.dns_records == baseline.dns_records

    def test_replay_source_reiterates(self):
        """One capture path replays several times in sequence — the
        file-backed source re-reads lazily per run."""
        path = golden_path("two-site")
        first, first_rows = _replay(path)
        second, second_rows = _replay(path)
        assert first_rows == second_rows
        assert first.matched_flows == second.matched_flows


class TestFailingCapture:
    """Bad capture files must fail cleanly, never hang an engine."""

    def test_missing_file_fails_fast(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            replay_capture(str(tmp_path / "nope.fdc"))

    def test_not_a_capture_fails_fast(self, tmp_path):
        path = tmp_path / "garbage.fdc"
        path.write_bytes(b"these are not the frames you are looking for")
        with pytest.raises(ParseError, match="magic"):
            replay_capture(str(path))

    def test_truncated_capture_replays_head_and_warns(self, tmp_path):
        """A capture with a torn tail (killed recorder, full disk) still
        replays everything that framed cleanly — the run terminates, the
        report covers the head, and the failure lands in warnings."""
        golden = pathlib.Path(golden_path("two-site")).read_bytes()
        path = tmp_path / "torn.fdc"
        path.write_bytes(golden[:-7])
        full_report, _ = _replay(golden_path("two-site"))
        report, rows = _replay(str(path))
        # The torn frame is the last flow datagram: the head's flows all
        # correlate, nothing hangs, nothing is double-counted.
        assert 0 < report.flow_records < full_report.flow_records
        assert len(rows) == report.flow_records
        assert any("failed mid-stream" in w for w in report.warnings), (
            report.warnings
        )


class TestLiveRoundTrip:
    #: Fixed arrival stamp for the live DNS listener, inside the corpus
    #: validity window, so live and replayed runs store identically.
    CLOCK_TS = 5.0

    def _dns_wires(self, count=24):
        wires = []
        for i in range(count):
            msg = DnsMessage()
            name = f"rt{i}.example"
            msg.questions.append(Question(name, RRType.A))
            if i % 6 == 0:
                msg.answers.append(cname_record(name, f"edge{i}.cdn.net", 600))
                msg.answers.append(a_record(f"edge{i}.cdn.net", f"10.50.0.{i + 1}", 120))
            else:
                msg.answers.append(a_record(name, f"10.50.0.{i + 1}", 300))
            wires.append(encode_message(msg))
        return wires

    def _flows(self, count=24):
        flows = [
            FlowRecord(ts=10.0 + i % 20, src_ip=f"10.50.0.{i % count + 1}",
                       dst_ip="100.64.0.1", bytes_=60 + i % 11)
            for i in range(count * 3)
        ]
        flows += [
            FlowRecord(ts=12.0, src_ip="172.16.77.7", dst_ip="100.64.0.2",
                       bytes_=13)
            for _ in range(8)
        ]
        return flows

    def _run_live_with_capture(self, capture_path, wires, datagrams,
                               expected_dns, expected_flows):
        writer = CaptureWriter(capture_path)
        dns_ingest = TcpDnsIngest(clock=lambda: self.CLOCK_TS, capture=writer)
        flow_ingest = UdpFlowIngest(capture=writer)
        engine = AsyncEngine(FlowDNSConfig())
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(
                report=engine.run(dns_ingest, flow_ingest)
            ),
            daemon=True,
        )
        thread.start()
        dns_addr = dns_ingest.wait_ready()
        flow_addr = flow_ingest.wait_ready()

        stream = frame_messages(wires)
        with socket.create_connection(dns_addr, timeout=5.0) as conn:
            for i in range(0, len(stream), 505):
                conn.sendall(stream[i : i + 505])
        deadline = time.monotonic() + 20.0
        while engine.dns_records_seen < expected_dns:
            assert time.monotonic() < deadline, "DNS ingest stalled"
            time.sleep(0.01)

        for datagram in datagrams:
            send_datagrams([datagram], flow_addr)
            time.sleep(0.001)
        deadline = time.monotonic() + 20.0
        while engine.flows_seen < expected_flows:
            assert time.monotonic() < deadline, "flow ingest stalled"
            time.sleep(0.01)

        engine.request_stop()
        thread.join(timeout=20.0)
        assert not thread.is_alive(), "async engine did not shut down"
        writer.close()
        return result["report"], dns_ingest, flow_ingest

    def test_live_capture_replays_to_identical_report(self, tmp_path):
        """A capture teed off a live loopback session replays (offline, no
        sockets) to the same report the live session produced — loss
        counters included — and the same report under every batch layout."""
        wires = self._dns_wires()
        flows = self._flows()
        datagrams = list(FlowExporter(version=9, batch_size=16).export(flows))
        expected_dns = len(wires) + len(wires) // 6
        capture_path = str(tmp_path / "live.fdc")
        live_report, dns_ingest, flow_ingest = self._run_live_with_capture(
            capture_path, wires, datagrams,
            expected_dns=expected_dns, expected_flows=len(flows),
        )

        # The tap recorded exactly what the listeners received.
        frames = list(read_capture(capture_path))
        assert sum(f.lane == LANE_DNS for f in frames) == len(wires)
        assert sum(f.lane == LANE_FLOW for f in frames) == len(datagrams)
        assert [f.payload for f in frames if f.lane == LANE_DNS] == wires
        assert [f.payload for f in frames if f.lane == LANE_FLOW] == datagrams
        # DNS frames carry the listener's arrival stamp, so replay stores
        # records at identical timestamps.
        assert all(f.ts == self.CLOCK_TS for f in frames if f.lane == LANE_DNS)

        replayed, _ = _replay(capture_path)
        for field in COMPARABLE_FIELDS:
            assert getattr(replayed, field) == getattr(live_report, field), field
        assert replayed.final_map_entries == live_report.final_map_entries
        # Loss accounting: the paced live session lost nothing, and the
        # replay's backpressuring offline pumps cannot lose anything —
        # both reports must say so, through the same counters.
        assert dns_ingest.ingest_stats.dropped == 0
        assert flow_ingest.ingest_stats.dropped == 0
        assert live_report.overall_loss_rate == 0.0
        assert replayed.overall_loss_rate == 0.0

        # And the capture is layout-independent like any golden scenario.
        assert_differential(capture_path)
