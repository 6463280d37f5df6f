"""Tests for the UDP flow source (loopback sockets)."""

import socket
import threading
import time

import pytest

from repro.netflow.exporter import FlowExporter
from repro.netflow.records import FlowBatch, FlowRecord
from repro.netflow.udp import UdpFlowSource, send_datagrams


def _flows(n):
    return [
        FlowRecord(ts=1000.0 + i, src_ip=f"10.3.0.{i + 1}", dst_ip="192.168.1.1",
                   src_port=443, dst_port=50000 + i, bytes_=100 * (i + 1))
        for i in range(n)
    ]


def _collect_flows(source, expected, received):
    """Drain ``source`` until ``expected`` flows arrived, then stop it."""
    for item in source:
        if isinstance(item, FlowBatch):
            received.extend(item.record(i) for i in range(len(item)))
        else:
            received.append(item)
        if len(received) >= expected:
            source.stop()


class TestUdpFlowSource:
    def test_receives_and_decodes_columnar_batches(self):
        """The default lane yields FlowBatch items, one per data datagram."""
        flows = _flows(12)
        datagrams = list(FlowExporter(version=9, batch_size=6).export(flows))
        with UdpFlowSource() as source:
            sender = threading.Thread(
                target=send_datagrams, args=(datagrams, source.address)
            )
            received = []
            batches = []

            def consume():
                for batch in source:
                    assert isinstance(batch, FlowBatch)
                    batches.append(batch)
                    received.extend(batch.record(i) for i in range(len(batch)))
                    if len(received) == len(flows):
                        source.stop()

            consumer = threading.Thread(target=consume)
            consumer.start()
            sender.start()
            sender.join(timeout=5.0)
            consumer.join(timeout=5.0)
            assert not consumer.is_alive()
            stats = source.ingest_stats
        assert len(received) == 12
        assert len(batches) == 2  # template datagram yields nothing
        assert {str(f.src_ip) for f in received} == {str(f.src_ip) for f in flows}
        assert stats.received == len(datagrams)
        assert stats.accepted == 2
        assert stats.bytes_in == sum(len(d) for d in datagrams)

    def test_garbage_datagrams_counted_not_fatal(self):
        with UdpFlowSource() as source:
            send_datagrams([b"\xff" * 20], source.address)
            datagram = source.recv_once()
            assert datagram is not None
            assert source.collector.ingest(datagram) == []
            assert source.collector.stats.unknown_version + source.collector.stats.malformed == 1
            assert source.ingest_stats.received == 1

    def test_recv_once_times_out(self):
        with UdpFlowSource(recv_timeout=0.05) as source:
            assert source.recv_once() is None

    def test_capture_tee_records_datagrams_pre_decode(self, tmp_path):
        """The capture tap records every received datagram as raw wire
        bytes — malformed input included — so a replay reproduces the
        original run's malformed counters too."""
        from repro.replay.capture import LANE_FLOW, CaptureWriter, load_capture

        path = str(tmp_path / "udp-tee.fdc")
        datagrams = list(
            FlowExporter(version=9, batch_size=4).export(_flows(8))
        ) + [b"\xff" * 20]
        writer = CaptureWriter(path)
        with UdpFlowSource(capture=writer) as source:
            send_datagrams(datagrams, source.address)
            seen = []
            deadline = time.monotonic() + 10.0
            while len(seen) < len(datagrams):
                assert time.monotonic() < deadline, "datagrams lost on loopback"
                datagram = source.recv_once()
                if datagram is not None:
                    seen.append(datagram)
        writer.close()
        frames = load_capture(path)
        assert [f.lane for f in frames] == [LANE_FLOW] * len(datagrams)
        assert [f.payload for f in frames] == datagrams

    def test_stop_terminates_iteration(self):
        with UdpFlowSource(recv_timeout=0.05) as source:
            collected = []

            def consume():
                collected.extend(source)

            t = threading.Thread(target=consume)
            t.start()
            source.stop()
            t.join(timeout=2.0)
            assert not t.is_alive()
            assert collected == []

    def test_stop_wakes_blocked_recv_immediately(self):
        """stop() must close the socket and wake recvfrom, not wait out
        recv_timeout (regression: the old stop() only set a flag, so a
        blocked iterator lingered for up to recv_timeout seconds)."""
        source = UdpFlowSource(recv_timeout=30.0)
        consumer = threading.Thread(target=lambda: list(source))
        consumer.start()
        time.sleep(0.05)  # let the consumer block in recvfrom
        start = time.monotonic()
        source.stop()
        consumer.join(timeout=5.0)
        elapsed = time.monotonic() - start
        assert not consumer.is_alive()
        assert elapsed < 5.0  # far below the 30s recv_timeout
        # The wake datagram is plumbing, not traffic: counters stay clean.
        assert source.ingest_stats.received == 0
        assert source.ingest_stats.malformed == 0

    def test_double_stop_and_iterate_after_stop_are_safe(self):
        source = UdpFlowSource()
        address = source.address
        source.stop()
        source.stop()  # idempotent
        assert list(source) == []  # iterating a stopped source yields nothing
        assert source.recv_once() is None
        assert source.address == address  # address survives the close
        source.close()  # close after stop is also safe

    def test_ephemeral_port_assigned(self):
        with UdpFlowSource() as source:
            host, port = source.address
            assert host == "127.0.0.1"
            assert port > 0

    def test_ipv6_bind_and_receive(self):
        try:
            source = UdpFlowSource(bind_addr=("::1", 0))
        except OSError:
            pytest.skip("IPv6 loopback unavailable")
        with source:
            host, port = source.address
            assert host == "::1"
            flows = _flows(3)
            datagrams = list(FlowExporter(version=9, batch_size=3).export(flows))
            send_datagrams(datagrams, source.address)
            received = []
            consumer = threading.Thread(
                target=_collect_flows, args=(source, len(flows), received)
            )
            consumer.start()
            consumer.join(timeout=5.0)
            assert not consumer.is_alive()
        assert len(received) == 3

    def test_dual_stack_wildcard_bind(self):
        try:
            source = UdpFlowSource(bind_addr=("::", 0))
        except OSError:
            pytest.skip("IPv6 wildcard unavailable")
        with source:
            port = source.address[1]
            # An IPv4 sender reaches the dual-stack socket via loopback.
            flows = _flows(2)
            datagrams = list(FlowExporter(version=5, batch_size=2).export(flows))
            try:
                send_datagrams(datagrams, ("127.0.0.1", port))
            except OSError:
                pytest.skip("dual-stack v4-mapped delivery unavailable")
            received = []
            consumer = threading.Thread(
                target=_collect_flows, args=(source, len(flows), received)
            )
            consumer.start()
            consumer.join(timeout=5.0)
            source.stop()
            consumer.join(timeout=1.0)
            assert not consumer.is_alive()
        assert len(received) == 2

    def test_bad_bind_address_raises(self):
        with pytest.raises((OSError, socket.gaierror)):
            UdpFlowSource(bind_addr=("definitely-not-a-host.invalid", 0))
