"""Failure injection: the pipeline must degrade, never die.

A production correlator at an ISP sees corrupted datagrams, poisoned DNS
(cycles, absurd TTLs), desynchronised TCP streams, and floods. These
tests push each failure class through the real code paths and assert the
pipeline keeps correlating everything else.
"""

import io
import random
import struct

from repro.core.async_engine import AsyncEngine
from repro.core.config import FlowDNSConfig
from repro.core.flowdns import FlowDNS
from repro.core.simulation import SimulationEngine
from repro.dns.rr import RRType, a_record
from repro.dns.stream import DnsRecord
from repro.dns.tcp import TcpFrameDecoder, frame_messages
from repro.dns.wire import DnsMessage, Question, encode_message
from repro.netflow.collector import FlowCollector
from repro.netflow.exporter import FlowExporter
from repro.netflow.records import FlowRecord
from repro.netflow.v9 import (
    IN_BYTES,
    IPV4_DST_ADDR,
    IPV4_SRC_ADDR,
    L4_SRC_PORT,
    TemplateField,
    TemplateRecord,
    _pack_header,
    encode_v9_template,
)
from repro import reference


def _good_wire(i):
    msg = DnsMessage()
    msg.questions.append(Question(f"svc{i}.example", RRType.A))
    msg.answers.append(a_record(f"svc{i}.example", f"10.9.0.{i + 1}", 60))
    return encode_message(msg)


class TestCorruptedDnsStream:
    def test_bit_flipped_messages_dropped_rest_correlates(self):
        rng = random.Random(0)
        items = []
        for i in range(40):
            wire = bytearray(_good_wire(i))
            if i % 4 == 0:  # flip bytes in a quarter of the messages
                for _ in range(3):
                    wire[rng.randrange(len(wire))] ^= 0xFF
            items.append((float(i), bytes(wire)))
        flows = [
            FlowRecord(ts=100.0 + i, src_ip=f"10.9.0.{i + 1}", dst_ip="100.64.0.1", bytes_=10)
            for i in range(40)
        ]
        engine = AsyncEngine(FlowDNSConfig())
        report = engine.run([items], [flows], dns_first=True)
        # At least the 30 untouched messages must correlate. (A flipped
        # message may still parse if the flips hit benign fields.)
        assert report.matched_flows >= 28
        invalid = sum(p.stats.invalid for p in engine._fillup_processors)
        assert invalid + report.matched_flows >= 38

    def test_truncated_messages_counted(self):
        items = [(0.0, _good_wire(0)[:10]), (1.0, _good_wire(1))]
        engine = AsyncEngine(FlowDNSConfig())
        flows = [FlowRecord(ts=10.0, src_ip="10.9.0.2", dst_ip="100.64.0.1", bytes_=5)]
        report = engine.run([items], [flows], dns_first=True)
        assert report.matched_flows == 1


class TestPoisonedDnsData:
    def test_cname_cycle_does_not_hang(self):
        fd = FlowDNS()
        fd.add_dns(DnsRecord(0.0, "a.example", RRType.CNAME, 600, "b.example"))
        fd.add_dns(DnsRecord(0.0, "b.example", RRType.CNAME, 600, "a.example"))
        fd.add_dns(DnsRecord(0.0, "b.example", RRType.A, 60, "10.1.1.1"))
        result = fd.correlate(
            FlowRecord(ts=1.0, src_ip="10.1.1.1", dst_ip="100.64.0.1", bytes_=1)
        )
        assert result.matched  # terminated, with some answer

    def test_self_referential_cname(self):
        fd = FlowDNS()
        fd.add_dns(DnsRecord(0.0, "loop.example", RRType.CNAME, 600, "loop.example"))
        fd.add_dns(DnsRecord(0.0, "loop.example", RRType.A, 60, "10.1.1.2"))
        result = fd.correlate(
            FlowRecord(ts=1.0, src_ip="10.1.1.2", dst_ip="100.64.0.1", bytes_=1)
        )
        assert result.matched

    def test_absurd_ttl_goes_long_not_crash(self):
        fd = FlowDNS()
        fd.add_dns(DnsRecord(0.0, "x.example", RRType.A, 2**31 - 1, "10.2.2.2"))
        assert fd.entry_counts()["ip_name"]["long"] == 1

    def test_deep_chain_capped_by_loop_limit(self):
        fd = FlowDNS(FlowDNSConfig(cname_loop_limit=6))
        names = [f"hop{i}.example" for i in range(30)]
        fd.add_dns(DnsRecord(0.0, names[0], RRType.A, 60, "10.3.3.3"))
        for i in range(29):
            fd.add_dns(DnsRecord(0.0, names[i + 1], RRType.CNAME, 600, names[i]))
        result = fd.correlate(
            FlowRecord(ts=1.0, src_ip="10.3.3.3", dst_ip="100.64.0.1", bytes_=1)
        )
        assert len(result.chain) == 7  # IP hit + 6 hops


class TestDesyncedTcpStream:
    def test_decoder_recovers_complete_prefix(self):
        wires = [_good_wire(i) for i in range(5)]
        stream = frame_messages(wires)
        decoder = TcpFrameDecoder()
        # Feed all but the last 3 bytes: 4 complete + 1 incomplete frame.
        out = decoder.feed(stream[:-3])
        assert out == wires[:4]
        assert decoder.pending_bytes > 0


class TestFloods:
    def test_flow_flood_with_no_dns_never_matches_but_completes(self):
        flows = [
            FlowRecord(ts=float(i), src_ip="172.16.0.1", dst_ip="100.64.0.1", bytes_=1)
            for i in range(5000)
        ]
        report = SimulationEngine(FlowDNSConfig()).run([], flows)
        assert report.matched_flows == 0
        assert report.flow_records == 5000

    def test_dns_flood_with_no_flows(self):
        records = [
            DnsRecord(float(i), f"n{i}.example", RRType.A, 60, f"10.{i % 200}.{i % 250}.1")
            for i in range(5000)
        ]
        report = SimulationEngine(FlowDNSConfig()).run(records, [])
        assert report.dns_records == 5000
        assert report.total_bytes == 0

    def test_duplicate_records_idempotent(self):
        fd = FlowDNS()
        for _ in range(100):
            fd.add_dns(DnsRecord(0.0, "same.example", RRType.A, 60, "10.4.4.4"))
        assert fd.entry_counts()["ip_name"]["active"] == 1
        assert fd.storage.overwrites() == 0  # same value: not an overwrite


class TestMixedVersionDatagramStream:
    def test_v5_v9_ipfix_interleaved_on_one_stream(self):
        flows_a = [
            FlowRecord(ts=1000.0 + i, src_ip=f"10.6.0.{i + 1}", dst_ip="100.64.0.1",
                       bytes_=50) for i in range(10)
        ]
        flows_b = [
            FlowRecord(ts=1100.0 + i, src_ip=f"10.6.1.{i + 1}", dst_ip="100.64.0.1",
                       bytes_=50) for i in range(10)
        ]
        flows_c = [
            FlowRecord(ts=1200.0 + i, src_ip=f"10.6.2.{i + 1}", dst_ip="100.64.0.1",
                       bytes_=50) for i in range(10)
        ]
        datagrams = (
            list(FlowExporter(version=5, batch_size=10).export(flows_a))
            + list(FlowExporter(version=9, batch_size=10).export(flows_b))
            + list(FlowExporter(version=10, batch_size=10).export(flows_c))
            + [b"\x00\x63garbage"]
        )
        dns = [
            DnsRecord(0.0, f"s{j}-{i}.example", RRType.A, 60, f"10.6.{j}.{i + 1}")
            for j in range(3)
            for i in range(10)
        ]
        engine = AsyncEngine(FlowDNSConfig())
        report = engine.run([dns], [datagrams], dns_first=True)
        assert report.flow_records == 30
        assert report.matched_flows == 30


class TestHostileWidePortTemplate:
    """A template may declare a port wider than 16 bits; a record that
    then carries a value over 65535 is malformed input, not a crash."""

    TEMPLATE = TemplateRecord(300, (
        TemplateField(IPV4_SRC_ADDR, 4),
        TemplateField(IPV4_DST_ADDR, 4),
        TemplateField(L4_SRC_PORT, 4),
        TemplateField(IN_BYTES, 4),
    ))

    def _data(self, src_port):
        record = bytes([10, 7, 0, 1]) + bytes([100, 64, 0, 1]) + struct.pack("!II", src_port, 700)
        return _pack_header(1, 0, 1000, 0, 0) + struct.pack("!HH", 300, 4 + len(record)) + record

    def _datagrams(self):
        return [
            encode_v9_template([self.TEMPLATE], unix_secs=1000),
            self._data(src_port=70000),  # hostile: does not fit 16 bits
            self._data(src_port=443),
        ]

    def test_collector_counts_it_on_both_lanes(self):
        # The production collector entry and its per-field oracle.
        for ingest in (FlowCollector.ingest_columns, reference.ingest):
            collector = FlowCollector()
            decoded = [len(ingest(collector, d)) for d in self._datagrams()]
            assert decoded == [0, 0, 1]
            assert collector.stats.malformed == 1
            assert collector.stats.datagrams == 2

    def test_engines_count_it_and_deliver_the_next_datagram(self):
        dns = [DnsRecord(0.0, "wide.example", RRType.A, 3600, "10.7.0.1")]
        sink = io.StringIO()
        report = AsyncEngine(FlowDNSConfig(), sink=sink).run(
            [dns], [self._datagrams()], dns_first=True
        )
        assert report.flow_decode_errors == 1
        assert report.flow_records == 1
        assert report.matched_flows == 1
        assert "wide.example" in sink.getvalue()
