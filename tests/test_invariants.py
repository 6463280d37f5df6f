"""The accounting-invariant checker: unit coverage + clean-path baseline.

Two layers: :func:`check_report` must flag every class of conservation
break on hand-built reports, and — the baseline the chaos suite builds
on — every golden capture replayed *without* faults, plus a real
loopback serve session, must come back invariant-clean.
"""

import io
import pathlib
import socket
import threading
import time

import pytest

from repro.core.config import FlowDNSConfig
from repro.core.invariants import (
    WatchdogTimeout,
    assert_invariants,
    call_with_deadline,
    check_report,
)
from repro.core.metrics import EngineReport, IngestStats, dedupe_warnings
from repro.dns.rr import RRType, a_record
from repro.dns.tcp import frame_messages
from repro.dns.wire import DnsMessage, Question, encode_message
from repro.netflow.exporter import FlowExporter
from repro.netflow.records import FlowRecord
from repro.netflow.udp import send_datagrams
from repro.replay import SCENARIOS, replay_capture

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden"


def _clean_report(**overrides) -> EngineReport:
    report = EngineReport(variant_name="async")
    for name, value in overrides.items():
        setattr(report, name, value)
    return report


class TestCheckReport:
    def test_clean_report_has_no_violations(self):
        assert check_report(_clean_report()) == []

    def test_negative_counter_flagged(self):
        report = _clean_report(flow_records=-1)
        assert any("flow_records is negative" in v for v in check_report(report))

    def test_ingest_conservation_flagged(self):
        report = _clean_report()
        report.ingest["udp"] = IngestStats(
            name="udp", received=10, accepted=7, dropped=2,
        )
        report.warnings.append("something dropped")
        assert any("conservation broken" in v for v in check_report(report))

    def test_chain_sum_mismatch_flagged(self):
        report = _clean_report(matched_flows=5, flow_records=5,
                               chain_lengths={1: 3})
        assert any("chain-length histogram" in v for v in check_report(report))

    def test_matched_exceeding_decoded_flagged(self):
        report = _clean_report(matched_flows=6, flow_records=5,
                               chain_lengths={1: 6})
        assert any("exceeds" in v for v in check_report(report))

    def test_correlated_bytes_bound(self):
        report = _clean_report(total_bytes=100, correlated_bytes=101)
        assert any("correlated_bytes" in v for v in check_report(report))

    def test_loss_rate_range(self):
        report = _clean_report(overall_loss_rate=1.5)
        report.warnings.append("loss")
        assert any("overall_loss_rate" in v for v in check_report(report))

    def test_eviction_bound_single_stack(self):
        report = _clean_report(dns_records=3, evictions=5)
        assert any("evictions" in v for v in check_report(report))

    def test_row_count_mismatch_flagged(self):
        report = _clean_report(flow_records=4, matched_flows=0)
        assert any("data rows" in v for v in check_report(report, rows=3))
        assert check_report(report, rows=4) == []

    def test_silent_drop_flagged_and_warning_satisfies(self):
        report = _clean_report()
        report.ingest["udp"] = IngestStats(
            name="udp", received=10, accepted=8, dropped=2,
        )
        assert any("silent loss" in v for v in check_report(report))
        report.warnings.append("source udp dropped 2 of 10 received items")
        assert check_report(report) == []

    def test_silent_loss_rate_flagged(self):
        report = _clean_report(overall_loss_rate=0.01)
        assert any("silent loss" in v for v in check_report(report))

    def test_assert_invariants_raises_with_listing(self):
        report = _clean_report(flow_records=-1, matched_flows=-2)
        with pytest.raises(AssertionError, match="invariant"):
            assert_invariants(report)
        assert_invariants(_clean_report())


class TestWatchdog:
    def test_returns_value(self):
        assert call_with_deadline(lambda: 42, timeout=5.0) == 42

    def test_propagates_exception(self):
        def boom():
            raise ValueError("inner")

        with pytest.raises(ValueError, match="inner"):
            call_with_deadline(boom, timeout=5.0)

    def test_hang_becomes_watchdog_timeout(self):
        with pytest.raises(WatchdogTimeout, match="sleepy"):
            call_with_deadline(
                lambda: time.sleep(30), timeout=0.1, label="sleepy"
            )


class TestDedupeWarnings:
    def test_collapses_repeats_with_counts(self):
        assert dedupe_warnings(["a", "b", "a", "a"]) == ["a ×3", "b"]

    def test_unique_warnings_untouched(self):
        assert dedupe_warnings(["x", "y"]) == ["x", "y"]
        assert dedupe_warnings([]) == []


class TestCleanPathBaseline:
    """Every golden capture, no faults: invariant-clean."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_golden_replay_is_invariant_clean(self, name):
        sink = io.StringIO()
        report = replay_capture(
            str(GOLDEN_DIR / f"{name}.fdc"), config=FlowDNSConfig(), sink=sink
        )
        rows = [
            line for line in sink.getvalue().splitlines()
            if line and not line.startswith("#")
        ]
        assert_invariants(report, rows=len(rows))
        # The replay sources surface both lanes' ingest accounting.
        assert "replay[dns]" in report.ingest
        assert "replay[flow]" in report.ingest


class TestLiveSessionInvariants:
    """A real loopback serve session's report passes the checker too."""

    CLOCK_TS = 5.0

    def test_live_session_report_is_invariant_clean(self):
        from repro.core.async_engine import AsyncEngine, TcpDnsIngest, UdpFlowIngest

        wires = []
        for i in range(12):
            msg = DnsMessage()
            name = f"inv{i}.example"
            msg.questions.append(Question(name, RRType.A))
            msg.answers.append(a_record(name, f"10.60.0.{i + 1}", 300))
            wires.append(encode_message(msg))
        flows = [
            FlowRecord(ts=10.0 + i % 5, src_ip=f"10.60.0.{i % 12 + 1}",
                       dst_ip="100.64.0.1", bytes_=80 + i)
            for i in range(36)
        ]
        datagrams = list(FlowExporter(version=9, batch_size=16).export(flows))

        dns_ingest = TcpDnsIngest(clock=lambda: self.CLOCK_TS)
        flow_ingest = UdpFlowIngest()
        sink = io.StringIO()
        engine = AsyncEngine(FlowDNSConfig(), sink=sink)
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(
                report=engine.run([dns_ingest], [flow_ingest])
            ),
            daemon=True,
        )
        thread.start()
        dns_addr = dns_ingest.wait_ready()
        flow_addr = flow_ingest.wait_ready()

        with socket.create_connection(dns_addr, timeout=5.0) as conn:
            conn.sendall(frame_messages(wires))
        deadline = time.monotonic() + 20.0
        while engine.dns_records_seen < len(wires):
            assert time.monotonic() < deadline, "DNS ingest stalled"
            time.sleep(0.01)
        for datagram in datagrams:
            send_datagrams([datagram], flow_addr)
            time.sleep(0.001)
        deadline = time.monotonic() + 20.0
        while engine.flows_seen < len(flows):
            assert time.monotonic() < deadline, "flow ingest stalled"
            time.sleep(0.01)
        engine.request_stop()
        thread.join(timeout=20.0)
        assert not thread.is_alive(), "async engine did not shut down"

        report = result["report"]
        rows = [
            line for line in sink.getvalue().splitlines()
            if line and not line.startswith("#")
        ]
        assert report.flow_records == len(flows)
        assert_invariants(report, rows=len(rows))
