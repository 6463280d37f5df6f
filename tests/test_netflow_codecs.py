"""Tests for the NetFlow v5 / v9 / IPFIX codecs."""

import struct

import pytest

from repro import reference
from repro.netflow.collector import FlowCollector
from repro.netflow.ipfix import (
    IPFIX_V4_TEMPLATE,
    IpfixSession,
    encode_ipfix_data,
    encode_ipfix_template,
)
from repro.netflow.records import FlowRecord
from repro.netflow.v5 import (
    V5_HEADER,
    V5_HEADER_LEN,
    V5_RECORD,
    V5_RECORD_LEN,
    decode_v5_columns,
    encode_v5,
)
from repro.netflow.v9 import (
    IN_BYTES,
    IPV4_DST_ADDR,
    IPV4_SRC_ADDR,
    STANDARD_V4_TEMPLATE,
    STANDARD_V6_TEMPLATE,
    TemplateField,
    TemplateRecord,
    V9Session,
    _pack_header,
    encode_v9_data,
    encode_v9_template,
)
from repro.util.errors import ParseError


def _decode_v5(datagram):
    """A v5 datagram through the production decoder, flows as records."""
    header, batch = decode_v5_columns(datagram)
    return header, batch.to_records()


def _decode(session, datagram):
    """A v9/IPFIX datagram through the production decoder, as records."""
    return session.decode_batch_columns(datagram).to_records()


def _flows(n, v6=False):
    out = []
    for i in range(n):
        out.append(
            FlowRecord(
                ts=1000.0 + i,
                src_ip=f"2001:db8::{i + 1:x}" if v6 else f"10.1.2.{i + 1}",
                dst_ip="2001:db8::ffff" if v6 else "192.168.0.1",
                src_port=443,
                dst_port=50000 + i,
                protocol=6,
                packets=10 + i,
                bytes_=1500 * (i + 1),
            )
        )
    return out


class TestV5:
    def test_round_trip_fields(self):
        flows = _flows(5)
        header, decoded = _decode_v5(encode_v5(flows, unix_secs=1000))
        assert header["version"] == 5 and header["count"] == 5
        for orig, back in zip(flows, decoded):
            assert back.src_ip == orig.src_ip
            assert back.dst_ip == orig.dst_ip
            assert back.src_port == orig.src_port
            assert back.dst_port == orig.dst_port
            assert back.packets == orig.packets
            assert back.bytes_ == orig.bytes_
            assert abs(back.ts - orig.ts) < 0.01

    def test_datagram_length(self):
        wire = encode_v5(_flows(3), unix_secs=1000)
        assert len(wire) == V5_HEADER_LEN + 3 * V5_RECORD_LEN

    def test_rejects_over_30_records(self):
        with pytest.raises(ParseError):
            encode_v5(_flows(31))

    def test_rejects_ipv6(self):
        with pytest.raises(ParseError):
            encode_v5(_flows(1, v6=True))

    def test_rejects_wrong_version(self):
        wire = bytearray(encode_v5(_flows(1), unix_secs=1000))
        wire[1] = 9  # corrupt version field low byte
        with pytest.raises(ParseError):
            _decode_v5(bytes(wire))

    def test_rejects_truncated(self):
        wire = encode_v5(_flows(2), unix_secs=1000)
        with pytest.raises(ParseError):
            _decode_v5(wire[: V5_HEADER_LEN + V5_RECORD_LEN])

    def test_extra_fields_preserved(self):
        flow = FlowRecord(
            ts=1000.0, src_ip="1.1.1.1", dst_ip="2.2.2.2",
            extra={"src_as": 64501, "dst_as": 64500, "tcp_flags": 0x12},
        )
        _, decoded = _decode_v5(encode_v5([flow], unix_secs=1000))
        assert decoded[0].extra["src_as"] == 64501
        assert decoded[0].extra["tcp_flags"] == 0x12


class TestV9:
    def test_template_learned_then_data_decoded(self):
        session = V9Session()
        flows = _flows(4)
        tmpl_dgram = encode_v9_template([STANDARD_V4_TEMPLATE], unix_secs=1000)
        assert _decode(session, tmpl_dgram) == []
        assert session.template_for(0, 256) is not None
        data_dgram = encode_v9_data(STANDARD_V4_TEMPLATE, flows, unix_secs=1000)
        decoded = _decode(session, data_dgram)
        assert len(decoded) == 4
        assert decoded[0].src_ip == flows[0].src_ip
        assert decoded[3].bytes_ == flows[3].bytes_

    def test_data_before_template_skipped(self):
        session = V9Session()
        data_dgram = encode_v9_data(STANDARD_V4_TEMPLATE, _flows(2), unix_secs=1000)
        assert _decode(session, data_dgram) == []

    def test_ipv6_template(self):
        session = V9Session()
        _decode(session, encode_v9_template([STANDARD_V6_TEMPLATE], unix_secs=1000))
        decoded = _decode(session, 
            encode_v9_data(STANDARD_V6_TEMPLATE, _flows(2, v6=True), unix_secs=1000)
        )
        assert len(decoded) == 2
        assert decoded[0].src_ip.version == 6

    def test_timestamps_reconstructed(self):
        session = V9Session()
        _decode(session, encode_v9_template([STANDARD_V4_TEMPLATE], unix_secs=1000))
        flows = _flows(1)
        decoded = _decode(session, encode_v9_data(STANDARD_V4_TEMPLATE, flows, unix_secs=1000))
        assert abs(decoded[0].ts - flows[0].ts) < 0.01

    def test_template_ids_below_256_rejected(self):
        with pytest.raises(ParseError):
            TemplateRecord(template_id=100, fields=(TemplateField(1, 4),))

    def test_zero_length_field_rejected(self):
        with pytest.raises(ParseError):
            TemplateField(1, 0)

    def test_templates_per_source_id(self):
        session = V9Session()
        _decode(session, encode_v9_template([STANDARD_V4_TEMPLATE], source_id=7))
        assert session.template_for(7, 256) is not None
        assert session.template_for(8, 256) is None

    def test_malformed_flowset_length_raises(self):
        wire = bytearray(encode_v9_template([STANDARD_V4_TEMPLATE]))
        wire[-2:] = b"\x00\x00"  # leave dangling bytes after sets
        import struct
        # Corrupt the first FlowSet's length to overrun.
        struct.pack_into("!H", wire, 22, 60000)
        with pytest.raises(ParseError):
            _decode(V9Session(), bytes(wire))

    def test_wrong_version_rejected(self):
        wire = bytearray(encode_v9_template([STANDARD_V4_TEMPLATE]))
        wire[1] = 5
        with pytest.raises(ParseError):
            _decode(V9Session(), bytes(wire))


class TestIpfix:
    def test_template_then_data(self):
        session = IpfixSession()
        flows = _flows(3)
        assert _decode(session, encode_ipfix_template([IPFIX_V4_TEMPLATE], export_secs=1000)) == []
        decoded = _decode(session, encode_ipfix_data(IPFIX_V4_TEMPLATE, flows, export_secs=1000))
        assert len(decoded) == 3
        for orig, back in zip(flows, decoded):
            assert back.src_ip == orig.src_ip
            assert back.bytes_ == orig.bytes_

    def test_absolute_timestamps(self):
        session = IpfixSession()
        _decode(session, encode_ipfix_template([IPFIX_V4_TEMPLATE], export_secs=0))
        flows = [FlowRecord(ts=123456.789, src_ip="1.1.1.1", dst_ip="2.2.2.2")]
        decoded = _decode(session, encode_ipfix_data(IPFIX_V4_TEMPLATE, flows, export_secs=0))
        assert abs(decoded[0].ts - 123456.789) < 0.01

    def test_unknown_template_skipped(self):
        session = IpfixSession()
        decoded = _decode(session, encode_ipfix_data(IPFIX_V4_TEMPLATE, _flows(1), export_secs=0))
        assert decoded == []

    def test_wrong_version_rejected(self):
        wire = bytearray(encode_ipfix_template([IPFIX_V4_TEMPLATE]))
        wire[1] = 9
        with pytest.raises(ParseError):
            _decode(IpfixSession(), bytes(wire))

    def test_truncated_message_rejected(self):
        wire = encode_ipfix_template([IPFIX_V4_TEMPLATE])
        with pytest.raises(ParseError):
            _decode(IpfixSession(), wire[:10])

    def test_domain_scoped_templates(self):
        session = IpfixSession()
        _decode(session, encode_ipfix_template([IPFIX_V4_TEMPLATE], domain_id=1))
        assert session.template_for(1, 300) is not None
        assert session.template_for(2, 300) is None


class TestUptimeWrap:
    """v5 end and v9 LAST_SWITCHED are 32-bit uptime counters that wrap
    every 2**32 ms (about 49.7 days). A flow that ended 1 s before the
    export, just before the counter wrapped, must land 1 s in the past —
    not 49.7 days in the future."""

    SYS_UPTIME = 300
    LAST = 2**32 - 700
    UNIX_SECS = 1_600_000_000
    EXPECTED = UNIX_SECS - 1.0

    def _v9(self):
        record = struct.pack("!4s4sHHBIII", bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2]),
                             443, 50000, 6, 1, 900, self.LAST)
        flowset = struct.pack("!HH", 256, 4 + len(record) + 3) + record + b"\x00" * 3
        return _pack_header(1, self.SYS_UPTIME, self.UNIX_SECS, 0, 0) + flowset

    def _v5(self):
        header = V5_HEADER.pack(5, 1, self.SYS_UPTIME, self.UNIX_SECS, 0, 0, 0, 0, 0)
        record = V5_RECORD.pack(0x0A000001, 0x0A000002, 0, 0, 0, 1, 900, self.LAST, self.LAST,
                                443, 50000, 0, 0, 6, 0, 0, 0, 0, 0, 0)
        return header + record

    def test_v9_compiled_and_oracle(self):
        template = encode_v9_template([STANDARD_V4_TEMPLATE])
        session = V9Session()
        _decode(session, template)
        assert [f.ts for f in _decode(session, self._v9())] == [self.EXPECTED]
        oracle = V9Session()
        reference.decode_v9(oracle, template)
        assert [f.ts for f in reference.decode_v9(oracle, self._v9())] == [self.EXPECTED]

    def test_v5_columns_and_oracle(self):
        assert [f.ts for f in _decode_v5(self._v5())[1]] == [self.EXPECTED]
        assert [f.ts for f in reference.decode_v5(self._v5())[1]] == [self.EXPECTED]

    def test_offsets_under_2_to_the_31_are_unchanged(self):
        """The signed reading moves nothing a sane export carries."""
        session = V9Session()
        _decode(session, encode_v9_template([STANDARD_V4_TEMPLATE]))
        flows = [FlowRecord(ts=self.UNIX_SECS - 86400.0 * days, src_ip="10.0.0.1",
                            dst_ip="10.0.0.2") for days in (0, 1, 24)]
        datagram = encode_v9_data(STANDARD_V4_TEMPLATE, flows, sys_uptime_ms=2**31 + 5,
                                  unix_secs=self.UNIX_SECS)
        assert [f.ts for f in _decode(session, datagram)] == [f.ts for f in flows]

    def test_v9_encoder_wraps_an_offset_before_uptime_zero(self):
        """A flow that ended 10 s before the export, when the exporter
        had been up 5 s, is written below the wrap and read back as
        10 s in the past, not clamped to uptime 0."""
        session = V9Session()
        _decode(session, encode_v9_template([STANDARD_V4_TEMPLATE]))
        flow = FlowRecord(ts=990.0, src_ip="10.0.0.1", dst_ip="10.0.0.2")
        datagram = encode_v9_data(STANDARD_V4_TEMPLATE, [flow], sys_uptime_ms=5000,
                                  unix_secs=1000)
        assert [f.ts for f in _decode(session, datagram)] == [990.0]

    def test_v5_encoder_wraps_an_offset_before_uptime_zero(self):
        flow = FlowRecord(ts=990.0, src_ip="10.0.0.1", dst_ip="10.0.0.2")
        datagram = encode_v5([flow], sys_uptime_ms=5000, unix_secs=1000)
        assert [f.ts for f in _decode_v5(datagram)[1]] == [990.0]


class TestSkippedSetsCounted:
    """A data set the walk passes over undecoded counts under
    ``CollectorStats.sets_skipped``, on the production collector and on
    its per-field oracle alike."""

    INGESTS = (FlowCollector.ingest_columns, reference.ingest)

    @pytest.mark.parametrize("ingest", INGESTS)
    def test_v9_late_join(self, ingest):
        collector = FlowCollector()
        data = encode_v9_data(STANDARD_V4_TEMPLATE, _flows(3), unix_secs=1000)
        assert len(ingest(collector, data)) == 0
        assert collector.stats.sets_skipped == 1
        assert collector.stats.datagrams == 1 and collector.stats.malformed == 0
        ingest(collector, encode_v9_template([STANDARD_V4_TEMPLATE], unix_secs=1000))
        assert len(ingest(collector, data)) == 3
        assert collector.stats.sets_skipped == 1

    @pytest.mark.parametrize("ingest", INGESTS)
    def test_ipfix_late_join(self, ingest):
        collector = FlowCollector()
        data = encode_ipfix_data(IPFIX_V4_TEMPLATE, _flows(2), export_secs=1000)
        assert len(ingest(collector, data)) == 0
        assert collector.stats.sets_skipped == 1

    @pytest.mark.parametrize("ingest", INGESTS)
    def test_ipfix_variable_length_template(self, ingest):
        """RFC 7011 §7: length 65535 marks a variable-length field, which
        neither decoder reads."""
        template = TemplateRecord(310, (
            TemplateField(IPV4_SRC_ADDR, 4),
            TemplateField(IPV4_DST_ADDR, 4),
            TemplateField(IN_BYTES, 4),
            TemplateField(96, 65535),  # applicationName, variable length
        ))
        collector = FlowCollector()
        ingest(collector, encode_ipfix_template([template], export_secs=1000))
        record = bytes([10, 0, 0, 1, 10, 0, 0, 2]) + struct.pack("!I", 900) + b"\x03abc"
        data_set = struct.pack("!HH", 310, 4 + len(record)) + record
        message = struct.pack("!HHIII", 10, 16 + len(data_set), 1000, 0, 0) + data_set
        assert len(ingest(collector, message)) == 0
        stats = collector.stats
        assert (stats.sets_skipped, stats.datagrams, stats.flows, stats.malformed) == (1, 2, 0, 0)

    def test_a_known_set_beside_an_unknown_one_still_decodes(self):
        collector = FlowCollector()
        collector.ingest_columns(encode_v9_template([STANDARD_V4_TEMPLATE]))
        known = encode_v9_data(STANDARD_V4_TEMPLATE, _flows(2), unix_secs=1000)[20:]
        unknown = struct.pack("!HH", 999, 8) + b"\x00" * 4
        datagram = _pack_header(2, 0, 1000, 0, 0) + unknown + known
        assert len(collector.ingest_columns(datagram)) == 2
        assert collector.stats.sets_skipped == 1
