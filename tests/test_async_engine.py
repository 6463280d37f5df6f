"""Tests for the asyncio engine: offline parity across batch layouts,
live loopback ingest (NetFlow over UDP + DNS over TCP), bounded-buffer
backpressure accounting, and graceful drain-then-shutdown."""

import asyncio
import errno
import io
import socket
import threading
import time

import pytest

from repro.core.async_engine import AsyncEngine
from repro.core.ingest import AsyncBuffer, TcpDnsIngest, UdpFlowIngest
from repro.core.config import EngineConfig, FlowDNSConfig
from repro.dns.rr import RRType
from repro.reference import (
    DnsMessage,
    Question,
    a_record,
    cname_record,
    encode_message,
    export_v5,
)
from repro.dns.stream import DnsRecord
from repro.dns.tcp import frame_messages
from repro.netflow.export import FlowExporter
from repro.netflow.records import FlowRecord
from testkit import send_datagrams

#: The fixed "arrival time" the live DNS listener stamps messages with,
#: chosen inside the corpus' validity window so live and offline runs
#: store records at identical timestamps.
_CLOCK_TS = 5.0


def _dns_records():
    records = [
        DnsRecord(float(i % 40), f"svc{i % 60}.example", RRType.A, 300,
                  f"10.0.{(i % 60) // 30}.{(i % 60) % 30 + 1}")
        for i in range(600)
    ]
    records.append(DnsRecord(1.0, "svc0.example", RRType.CNAME, 600, "edge.cdn.net"))
    records.append(DnsRecord(1.0, "edge.cdn.net", RRType.A, 60, "10.9.9.9"))
    return records


def _flows(matched=900, unmatched=100):
    flows = [
        FlowRecord(ts=float(i % 40),
                   src_ip=f"10.0.{(i % 60) // 30}.{(i % 60) % 30 + 1}",
                   dst_ip="100.64.0.1", bytes_=100 + i % 13)
        for i in range(matched)
    ]
    flows += [
        FlowRecord(ts=float(i % 40), src_ip="172.16.0.9",
                   dst_ip="100.64.0.2", bytes_=37)
        for i in range(unmatched)
    ]
    flows.append(FlowRecord(ts=30.0, src_ip="10.9.9.9", dst_ip="100.64.0.3", bytes_=5))
    return flows


def _dns_wires(count=40):
    """Wire-format DNS messages whose records match `_wire_flows`."""
    wires = []
    for i in range(count):
        msg = DnsMessage()
        name = f"live{i}.example"
        msg.questions.append(Question(name, RRType.A))
        if i % 5 == 0:
            msg.answers.append(cname_record(name, f"edge{i}.cdn.net", 600))
            msg.answers.append(a_record(f"edge{i}.cdn.net", f"10.8.0.{i + 1}", 120))
        else:
            msg.answers.append(a_record(name, f"10.8.0.{i + 1}", 300))
        wires.append(encode_message(msg))
    return wires


def _wire_flows(count=40, extra_unmatched=10):
    flows = [
        FlowRecord(ts=10.0 + i % 20, src_ip=f"10.8.0.{i % count + 1}",
                   dst_ip="100.64.0.1", bytes_=50 + i % 7)
        for i in range(count * 4)
    ]
    flows += [
        FlowRecord(ts=12.0, src_ip="172.16.9.9", dst_ip="100.64.0.2", bytes_=11)
        for _ in range(extra_unmatched)
    ]
    return flows


def _assert_reports_equal(left, right):
    assert left.matched_flows == right.matched_flows
    assert left.flow_records == right.flow_records
    assert left.dns_records == right.dns_records
    assert left.total_bytes == right.total_bytes
    assert left.correlated_bytes == right.correlated_bytes
    assert left.chain_lengths == right.chain_lengths
    assert left.overwrites == right.overwrites
    assert left.final_map_entries == right.final_map_entries
    assert left.evictions == right.evictions


def _rows(sink):
    return sorted(
        line for line in sink.getvalue().splitlines() if not line.startswith("#")
    )


class TestAsyncOffline:
    def test_offline_parity_across_batch_layouts(self):
        """Same corpus, same counters, same rows whatever the lane batch
        size (memoisation off: it rewrites chain interiors on a
        layout-dependent schedule)."""
        dns, flows = _dns_records(), _flows()

        def run(batch_size):
            sink = io.StringIO()
            config = FlowDNSConfig(
                engine_batch_size=batch_size, memoize_cname_chains=False
            )
            report = AsyncEngine(config, sink=sink).run(
                list(dns), list(flows)
            )
            return report, _rows(sink)

        baseline_report, baseline_rows = run(FlowDNSConfig().engine_batch_size)
        assert baseline_report.variant_name == "async"
        for batch_size in (1, 7):
            report, rows = run(batch_size)
            _assert_reports_equal(report, baseline_report)
            assert rows == baseline_rows

    def test_datagram_and_wire_tuple_items(self):
        """The async lanes accept the full stream-item mix."""
        msg = DnsMessage()
        msg.questions.append(Question("wire.example", RRType.A))
        msg.answers.append(cname_record("wire.example", "e.cdn.net", 300))
        msg.answers.append(a_record("e.cdn.net", "10.3.3.3", 60))
        wire = encode_message(msg)
        flows = [FlowRecord(ts=10.0, src_ip="10.3.3.3", dst_ip="100.64.0.1",
                            bytes_=500)]
        datagrams = list(FlowExporter(version=9, batch_size=10).export(flows))
        report = AsyncEngine(FlowDNSConfig()).run(
            [(1.0, wire)], datagrams
        )
        assert report.dns_records == 2
        assert report.matched_flows == 1
        assert report.chain_lengths.get(2) == 1

    def test_finite_dns_is_stored_before_the_first_flow_is_pulled(self):
        """No option asks for it: a finite DNS source is drained and its
        records stored before the flow source yields its first item. A
        failed check inside the flow source surfaces as a source-failure
        warning, so the run must end with none."""
        dns = _dns_records()
        flows = _flows()
        engine = AsyncEngine(FlowDNSConfig())
        progress = {"dns_exhausted": False, "flows_pulled": False}

        def dns_source():
            yield from dns
            progress["dns_exhausted"] = True

        def flow_source():
            assert progress["dns_exhausted"]
            assert engine.dns_records_seen == len(dns)
            assert engine.storage.total_entries() > 0
            progress["flows_pulled"] = True
            yield from flows

        report = engine.run(dns_source(), flow_source())
        assert progress["flows_pulled"]
        assert report.warnings == []
        assert report.dns_records == len(dns)
        assert report.flow_records == len(flows)

    def test_exact_ttl_mode_runs(self):
        report = AsyncEngine(FlowDNSConfig(exact_ttl=True)).run(
            _dns_records()[:10], _flows(matched=20, unmatched=5),
        )
        assert report.flow_records == 26

    def test_empty_run_terminates(self):
        report = AsyncEngine(FlowDNSConfig()).run([], [])
        assert report.flow_records == 0
        assert report.dns_records == 0
        assert report.overall_loss_rate == 0.0


class TestAsyncLiveLoopback:
    def _run_live(self, config, dns_wires, flow_datagrams, expected_dns_records,
                  expected_flows, sink=None, flow_capacity=None):
        """Drive a live AsyncEngine over loopback sockets from this thread."""
        dns_ingest = TcpDnsIngest(clock=lambda: _CLOCK_TS)
        flow_ingest = UdpFlowIngest(capacity=flow_capacity)
        engine = AsyncEngine(config, sink=sink)
        result = {}

        def runner():
            result["report"] = engine.run(dns_ingest, flow_ingest)

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        dns_addr = dns_ingest.wait_ready()
        flow_addr = flow_ingest.wait_ready()

        # Phase 1: all DNS over one TCP connection, in framed chunks cut
        # at awkward boundaries; wait until the fill lane stored them.
        stream = frame_messages(dns_wires)
        with socket.create_connection(dns_addr, timeout=5.0) as conn:
            for i in range(0, len(stream), 777):
                conn.sendall(stream[i : i + 777])
        deadline = time.monotonic() + 20.0
        while engine.dns_records_seen < expected_dns_records:
            assert time.monotonic() < deadline, (
                f"DNS ingest stalled at {engine.dns_records_seen}"
            )
            time.sleep(0.01)

        # Phase 2: the NetFlow datagrams, lightly paced so loopback UDP
        # does not overrun the kernel buffer.
        for datagram in flow_datagrams:
            send_datagrams([datagram], flow_addr)
            time.sleep(0.001)
        deadline = time.monotonic() + 20.0
        while engine.flows_seen < expected_flows:
            assert time.monotonic() < deadline, (
                f"flow ingest stalled at {engine.flows_seen}"
            )
            time.sleep(0.01)

        engine.request_stop()
        thread.join(timeout=20.0)
        assert not thread.is_alive(), "async engine did not shut down"
        return result["report"], dns_ingest, flow_ingest

    def test_loopback_ingest_parity_with_offline(self):
        """NetFlow-over-UDP + DNS-over-TCP through real loopback sockets
        produces the same report and rows as an offline run fed the
        identical corpus directly."""
        wires = _dns_wires()
        flows = _wire_flows()
        datagrams = list(FlowExporter(version=9, batch_size=24).export(flows))
        # Every message carries one A record; every fifth also a CNAME.
        expected_dns = len(wires) + len(wires) // 5
        live_sink = io.StringIO()
        report, dns_ingest, flow_ingest = self._run_live(
            FlowDNSConfig(), wires, datagrams,
            expected_dns_records=expected_dns,
            expected_flows=len(flows),
            sink=live_sink,
        )

        offline_sink = io.StringIO()
        offline_report = AsyncEngine(FlowDNSConfig(), sink=offline_sink).run(
            [(_CLOCK_TS, w) for w in wires],
            list(datagrams),
        )
        _assert_reports_equal(report, offline_report)
        assert _rows(live_sink) == _rows(offline_sink)

        # Live ingest counters surfaced in the report.
        assert report.ingest[dns_ingest.ingest_stats.name].received == len(wires)
        udp_stats = report.ingest[flow_ingest.ingest_stats.name]
        assert udp_stats.received == len(datagrams)
        assert udp_stats.dropped == 0
        assert report.overall_loss_rate == 0.0
        # The achieved SO_RCVBUF is surfaced for drop diagnostics.
        assert udp_stats.recv_buffer_bytes > 0

    def test_stop_burst_race_loses_nothing_accepted(self):
        """Messages sent right before request_stop are all taken: the
        stop accepts every connection the kernel already established,
        reads what its peer delivered, and offers each message before
        the fill buffer closes, so every accepted message reaches
        storage."""
        wires = _dns_wires(count=30)  # one A record per message... plus CNAMEs
        wires = [w for i, w in enumerate(wires) if i % 5]  # A-only messages
        dns_ingest = TcpDnsIngest(clock=lambda: _CLOCK_TS)
        engine = AsyncEngine(FlowDNSConfig())
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(report=engine.run(dns_ingest, [])),
            daemon=True,
        )
        thread.start()
        dns_addr = dns_ingest.wait_ready()
        with socket.create_connection(dns_addr, timeout=5.0) as conn:
            conn.sendall(frame_messages(wires))
            # Stop immediately: no waiting for the fill lane to catch up.
            engine.request_stop()
        thread.join(timeout=20.0)
        assert not thread.is_alive()
        stats = dns_ingest.ingest_stats
        report = result["report"]
        assert stats.received == len(wires)
        assert stats.accepted == report.dns_records
        assert stats.received == stats.accepted + stats.dropped

    def test_accept_out_of_descriptors_pauses_then_resumes(self, monkeypatch):
        """An accept that fails for want of descriptors pauses the
        listener for the retry delay instead of spinning on the
        still-readable socket, then takes the waiting connection."""
        import repro.core.ingest as ingest_module

        monkeypatch.setattr(ingest_module, "_ACCEPT_RETRY_DELAY", 0.2)

        class Exhausted:
            """The listening socket, with accept failing until `fail` drops."""

            def __init__(self, sock):
                self.sock, self.fail, self.accepts = sock, True, 0

            def fileno(self):
                return self.sock.fileno()

            def accept(self):
                self.accepts += 1
                if self.fail:
                    raise OSError(errno.EMFILE, "Too many open files")
                return self.sock.accept()

            def close(self):
                self.sock.close()

        wires = [w for i, w in enumerate(_dns_wires(count=10)) if i % 5]
        ingest = TcpDnsIngest(clock=lambda: _CLOCK_TS)
        ingest.connect_buffer(AsyncBuffer(64, name="dns[0]"))

        async def scenario():
            await ingest.start(asyncio.get_running_loop())
            listener = ingest._sock = Exhausted(ingest._sock)
            with socket.create_connection(ingest.address, timeout=5.0) as conn:
                conn.sendall(frame_messages(wires))
                await asyncio.sleep(0.1)
                assert listener.accepts == 1  # paused, not spinning
                listener.fail = False
                deadline = time.monotonic() + 5.0
                while ingest.ingest_stats.received < len(wires):
                    assert time.monotonic() < deadline, "listener never resumed"
                    await asyncio.sleep(0.01)
            await ingest.stop()

        asyncio.run(scenario())
        assert ingest.ingest_stats.received == len(wires)

    def test_graceful_drain_on_stop(self):
        """request_stop drains buffered work before reporting: every
        ingested datagram's flows are correlated, none abandoned."""
        flows = _wire_flows(count=10, extra_unmatched=0)
        datagrams = export_v5(flows, batch_size=20)
        report, _dns, flow_ingest = self._run_live(
            FlowDNSConfig(), [], datagrams,
            expected_dns_records=0,
            expected_flows=len(flows),
        )
        assert report.flow_records == len(flows)
        assert flow_ingest.ingest_stats.accepted == len(datagrams)


class TestRequestStopIdempotency:
    """request_stop is safe from any thread, any number of times, at any
    point in the run's life: before start (latched), repeatedly during a
    run, while the drain is in flight, and after the loop is gone."""

    def _live_run_in_thread(self, engine, dns, flows):
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(
                report=engine.run(dns, flows)
            ),
            daemon=True,
        )
        thread.start()
        return thread, result

    def test_stop_before_start_is_latched(self):
        """A stop requested before the loop exists must end the live run
        at startup instead of being lost (which would hang forever)."""
        ingest = TcpDnsIngest(clock=lambda: _CLOCK_TS)
        engine = AsyncEngine(FlowDNSConfig())
        engine.request_stop()
        engine.request_stop()  # latching twice is fine too
        thread, result = self._live_run_in_thread(engine, ingest, [])
        thread.join(timeout=20.0)
        assert not thread.is_alive(), "latched stop was lost"
        assert result["report"].dns_records == 0

    def test_stop_before_start_does_not_break_offline_run(self):
        """A latched stop must not truncate a finite-source run: offline
        sources drain fully regardless."""
        engine = AsyncEngine(FlowDNSConfig())
        engine.request_stop()
        flows = _flows(matched=30, unmatched=5)
        report = engine.run(_dns_records()[:50], flows)
        assert report.dns_records == 50
        assert report.flow_records == len(flows)

    def test_double_stop_from_multiple_threads(self):
        """Concurrent and repeated stops during a live run neither hang
        nor double-report."""
        wires = _dns_wires(count=10)
        expected = len(wires) + len(wires) // 5
        ingest = TcpDnsIngest(clock=lambda: _CLOCK_TS)
        engine = AsyncEngine(FlowDNSConfig())
        thread, result = self._live_run_in_thread(engine, ingest, [])
        dns_addr = ingest.wait_ready()
        with socket.create_connection(dns_addr, timeout=5.0) as conn:
            conn.sendall(frame_messages(wires))
        deadline = time.monotonic() + 20.0
        while engine.dns_records_seen < expected:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        stoppers = [
            threading.Thread(target=engine.request_stop) for _ in range(4)
        ]
        for t in stoppers:
            t.start()
        for t in stoppers:
            t.join(timeout=10.0)
        engine.request_stop()  # and once more from this thread
        thread.join(timeout=20.0)
        assert not thread.is_alive(), "double stop hung the engine"
        assert "report" in result and result["report"].dns_records == expected

    def test_stop_during_drain_does_not_lose_or_double_count(self):
        """Extra stops racing the drain phase change nothing: every
        accepted datagram's flows are still correlated exactly once."""
        flows = _wire_flows(count=8, extra_unmatched=0)
        datagrams = export_v5(flows, batch_size=4)
        ingest = UdpFlowIngest()
        engine = AsyncEngine(FlowDNSConfig())
        thread, result = self._live_run_in_thread(engine, [], ingest)
        flow_addr = ingest.wait_ready()
        for datagram in datagrams:
            send_datagrams([datagram], flow_addr)
            time.sleep(0.001)
        deadline = time.monotonic() + 20.0
        while engine.flows_seen < len(flows):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        engine.request_stop()
        # Hammer the stop path while the drain runs to completion.
        while thread.is_alive():
            engine.request_stop()
            time.sleep(0.001)
        thread.join(timeout=20.0)
        report = result["report"]
        assert report.flow_records == len(flows)
        assert ingest.ingest_stats.accepted == len(datagrams)

    def test_stop_racing_loop_shutdown_is_dropped(self):
        """The narrow race: the loop closes between reading self._loop and
        the threadsafe call. call_soon_threadsafe raises RuntimeError on a
        closed loop; request_stop must swallow it (never propagate into a
        signal handler) and must NOT latch — a finished run needs no
        stopping, and a latched flag would auto-stop the engine's next
        run at startup."""
        import asyncio

        engine = AsyncEngine(FlowDNSConfig())
        closed = asyncio.new_event_loop()
        closed.close()
        engine._loop = closed
        engine._stop_event = asyncio.Event()
        engine.request_stop()  # must not raise
        assert engine._stop_pending is False

    def test_latched_stop_is_consumed_not_sticky(self):
        """A pre-start latch applies to exactly one run: the same engine
        can run again afterwards without stopping itself at startup."""
        ingest = TcpDnsIngest(clock=lambda: _CLOCK_TS)
        engine = AsyncEngine(FlowDNSConfig())
        engine.request_stop()
        thread, result = self._live_run_in_thread(engine, ingest, [])
        thread.join(timeout=20.0)
        assert not thread.is_alive()
        assert engine._stop_pending is False
        # A later offline run on the same engine completes normally.
        flows = _flows(matched=10, unmatched=2)
        report = engine.run([], flows)
        assert report.flow_records == len(flows)

    def test_stop_after_run_completes_is_noop(self):
        """A post-completion stop is dropped, not latched: it must not
        poison a reused engine's next run into stopping at startup."""
        engine = AsyncEngine(FlowDNSConfig())
        report = engine.run([], [])
        engine.request_stop()
        engine.request_stop()
        assert report.flow_records == 0
        assert engine._stop_pending is False
        flows = _flows(matched=10, unmatched=2)
        second = engine.run([], flows)
        assert second.flow_records == len(flows)

    def test_stop_works_on_reused_engine_second_live_run(self):
        """The second run must not inherit the first run's (already-set)
        stop event: a request_stop during run 2 has to set run 2's own
        event, or the stop would be silently lost."""
        engine = AsyncEngine(FlowDNSConfig())
        engine.run([], [])  # run 1 completes
        ingest = TcpDnsIngest(clock=lambda: _CLOCK_TS)
        thread, result = self._live_run_in_thread(engine, ingest, [])
        ingest.wait_ready()
        engine.request_stop()
        thread.join(timeout=20.0)
        assert not thread.is_alive(), "stop lost on reused engine"
        assert result["report"].dns_records == 0

    def test_reused_engine_reports_each_run_independently(self):
        """Each run on a reused engine gets fresh processors and storage:
        the second report carries only its own counts and does not
        correlate against the first run's stored records."""
        engine = AsyncEngine(FlowDNSConfig())
        dns = _dns_records()[:50]
        first = engine.run(list(dns), _flows(matched=30, unmatched=5))
        assert first.dns_records == 50
        assert first.matched_flows > 0
        # Same flows, but NO dns this time: nothing may match, and the
        # first run's counts must not leak in.
        second = engine.run([], _flows(matched=30, unmatched=5))
        assert second.dns_records == 0
        assert second.matched_flows == 0
        assert second.flow_records == first.flow_records
        assert second.final_map_entries == 0


class TestBackpressure:
    def test_udp_overflow_drops_are_counted(self):
        """A full bounded ingest buffer drops whole datagrams and counts
        them. The socket already holds every datagram when the receive
        path drains it, and the loop never runs its reader, so the
        outcome is deterministic."""
        flows = _wire_flows(count=5, extra_unmatched=0)
        datagrams = export_v5(flows, batch_size=4)
        assert len(datagrams) >= 5
        ingest = UdpFlowIngest(capacity=2)
        buffer = AsyncBuffer(2, name="netflow[0]")
        ingest.connect_buffer(buffer)

        async def drain():
            await ingest.start(asyncio.get_running_loop())
            try:
                send_datagrams(datagrams, ingest.address)
                deadline = time.monotonic() + 5.0
                while ingest.ingest_stats.received < len(datagrams):
                    assert time.monotonic() < deadline, "datagrams lost on loopback"
                    ingest._on_readable()
            finally:
                ingest.close()

        asyncio.run(drain())
        stats = ingest.ingest_stats
        assert stats.received == len(datagrams)
        assert stats.accepted == 2
        assert stats.dropped == len(datagrams) - 2
        assert stats.loss_rate == pytest.approx(stats.dropped / stats.received)
        assert buffer.stats.dropped == stats.dropped

    def test_tcp_overflow_drops_are_counted(self):
        ingest = TcpDnsIngest(capacity=3, clock=lambda: 1.0)
        buffer = AsyncBuffer(3, name="dns[0]")
        ingest.connect_buffer(buffer)
        from repro.dns.tcp import TcpFrameDecoder

        decoder = TcpFrameDecoder()
        wires = _dns_wires(count=8)
        assert ingest.feed_chunk(decoder, frame_messages(wires))
        stats = ingest.ingest_stats
        assert stats.received == 8
        assert stats.accepted == 3
        assert stats.dropped == 5

    def test_tcp_corrupt_stream_detected(self):
        """An oversized frame claim (vs the configured cap) is the
        corruption path: connection dropped, counted, not raised."""
        ingest = TcpDnsIngest(capacity=8, max_message_size=64)
        ingest.connect_buffer(AsyncBuffer(8, name="dns[0]"))
        from repro.dns.tcp import TcpFrameDecoder

        decoder = TcpFrameDecoder(max_message_size=64)
        assert ingest.feed_chunk(decoder, b"\xff\xff garbage") is False
        assert ingest.ingest_stats.malformed == 1

    def test_ingest_stats_surfaced_by_async(self):
        """Any source exposing ingest_stats lands in EngineReport.ingest,
        finite sources included, with or without DNS input."""
        from repro.core.metrics import IngestStats

        class StatsSource:
            def __init__(self, name, items):
                self.ingest_stats = IngestStats(name=name, received=len(items))
                self._items = items

            def __iter__(self):
                return iter(self._items)

        flows = [FlowRecord(ts=1.0, src_ip="10.0.0.1", dst_ip="100.64.0.1",
                            bytes_=10)]
        source = StatsSource("udp[test]", flows)
        report = AsyncEngine(FlowDNSConfig()).run([], source)
        assert report.ingest["udp[test]"].received == 1

        source2 = StatsSource("udp[test2]", list(flows))
        report2 = AsyncEngine(FlowDNSConfig()).run(_dns_records()[:5], source2)
        assert report2.ingest["udp[test2]"].received == 1


def _serve_udp(ingest, datagrams, send_to=None):
    """Run a flow-only live engine on ``ingest``; send ``datagrams`` at
    its bound address (or at ``send_to(address)``), wait until the socket
    has received them all, then stop, drain and return the report."""
    engine = AsyncEngine(FlowDNSConfig())
    result = {}
    thread = threading.Thread(
        target=lambda: result.update(report=engine.run([], ingest)),
        daemon=True,
    )
    thread.start()
    address = ingest.wait_ready()
    try:
        send_datagrams(datagrams, send_to(address) if send_to else address)
        deadline = time.monotonic() + 10.0
        while ingest.ingest_stats.received < len(datagrams):
            assert time.monotonic() < deadline, "datagrams lost on loopback"
            time.sleep(0.01)
    finally:
        engine.request_stop()
        thread.join(timeout=20.0)
    assert not thread.is_alive(), "async engine did not shut down"
    return result["report"]


def _can_bind_ipv6(host):
    try:
        with socket.socket(socket.AF_INET6, socket.SOCK_DGRAM) as sock:
            sock.bind((host, 0))
    except OSError:
        return False
    return True


class TestUdpFlowIngestSocket:
    """The live UDP socket: address families, bind failure, and what it
    counts and tees before the lane decodes."""

    def test_ipv6_bind_and_receive(self):
        if not _can_bind_ipv6("::1"):
            pytest.skip("IPv6 loopback unavailable")
        flows = _wire_flows(count=3, extra_unmatched=0)
        datagrams = list(FlowExporter(version=9, batch_size=3).export(flows))
        ingest = UdpFlowIngest(host="::1")
        report = _serve_udp(ingest, datagrams)
        assert ingest.address[0] == "::1"
        assert report.flow_records == len(flows)
        assert ingest.ingest_stats.accepted == len(datagrams)

    def test_dual_stack_wildcard_bind(self):
        """A ``::`` bind is one dual-stack socket: an IPv4 exporter
        reaches it over loopback."""
        if not _can_bind_ipv6("::"):
            pytest.skip("IPv6 wildcard unavailable")
        flows = _wire_flows(count=2, extra_unmatched=0)
        datagrams = export_v5(flows, batch_size=8)
        ingest = UdpFlowIngest(host="::")
        report = _serve_udp(
            ingest, datagrams, send_to=lambda address: ("127.0.0.1", address[1])
        )
        assert report.flow_records == len(flows)

    def test_unresolvable_host_raises_on_start(self):
        ingest = UdpFlowIngest(host="definitely-not-a-host.invalid")

        async def start():
            await ingest.start(asyncio.get_running_loop())

        with pytest.raises((OSError, socket.gaierror)):
            asyncio.run(start())
        assert ingest.address is None

    def test_garbage_datagrams_counted_not_fatal(self):
        """A malformed datagram is counted by the lane and the run goes
        on: the valid datagrams sent after it still decode."""
        flows = _wire_flows(count=2, extra_unmatched=0)
        datagrams = [b"\xff" * 20] + list(
            FlowExporter(version=9, batch_size=4).export(flows)
        )
        ingest = UdpFlowIngest()
        report = _serve_udp(ingest, datagrams)

        stats = report.ingest[ingest.ingest_stats.name]
        assert stats.received == len(datagrams)
        assert stats.malformed == 1
        assert report.flow_records == len(flows)

    def test_capture_tee_records_datagrams_pre_decode(self, tmp_path):
        """The capture tap records every received datagram as raw wire
        bytes, malformed input included, so a replay reproduces the live
        run's malformed counter too."""
        from repro.replay.capture import LANE_FLOW, CaptureWriter, read_capture

        flows = _wire_flows(count=2, extra_unmatched=0)
        datagrams = list(
            FlowExporter(version=9, batch_size=4).export(flows)
        ) + [b"\xff" * 20]
        path = str(tmp_path / "udp-tee.fdc")
        writer = CaptureWriter(path)
        ingest = UdpFlowIngest(capture=writer)
        _serve_udp(ingest, datagrams)
        writer.close()

        frames = list(read_capture(path))
        assert [f.lane for f in frames] == [LANE_FLOW] * len(datagrams)
        assert [f.payload for f in frames] == datagrams


class TestFailedBindReleasesListeners:
    """A listener that cannot bind fails the run, and every listener (and
    the metrics endpoint) that did start is stopped before the error
    leaves ``run``: its port can be bound again at once."""

    @staticmethod
    def _rebind_tcp(address):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
            sock.bind(address)

    @staticmethod
    def _rebind_udp(address):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.bind(address)

    def test_taken_flow_port_stops_the_dns_listener(self):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as taken:
            taken.bind(("127.0.0.1", 0))
            dns = TcpDnsIngest()
            flows = UdpFlowIngest(port=taken.getsockname()[1])
            with pytest.raises(OSError):
                AsyncEngine(FlowDNSConfig()).run(dns, flows)
        assert dns._sock is None
        self._rebind_tcp(dns.address)

    def test_taken_metrics_port_stops_both_listeners(self):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            dns = TcpDnsIngest()
            flows = UdpFlowIngest()
            engine = AsyncEngine(EngineConfig(metrics_port=taken.getsockname()[1]))
            with pytest.raises(OSError):
                engine.run(dns, flows)
        assert dns._sock is None and flows._sock is None
        self._rebind_tcp(dns.address)
        self._rebind_udp(flows.address)
