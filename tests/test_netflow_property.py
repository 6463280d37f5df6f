"""Property-based tests for the NetFlow codecs."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netflow.collector import FlowCollector
from repro.netflow.exporter import FlowExporter
from repro.netflow.ipfix import (
    FLOW_END_MILLISECONDS,
    IPFIX_HEADER,
    IPFIX_VERSION,
    IpfixSession,
    encode_ipfix_template,
)
from repro.netflow.records import FlowBatch, FlowRecord
from repro.netflow.v9 import (
    IN_BYTES,
    IN_PKTS,
    IPV4_DST_ADDR,
    IPV4_SRC_ADDR,
    IPV6_DST_ADDR,
    IPV6_SRC_ADDR,
    L4_DST_PORT,
    L4_SRC_PORT,
    LAST_SWITCHED,
    PROTOCOL,
    TemplateField,
    TemplateRecord,
    V9Session,
    _pack_header,
    encode_v9_template,
)
from repro.netflow.v5 import decode_v5_columns
from repro.reference import decode_ipfix, decode_v9, ingest
from repro.util.errors import ParseError

_octet = st.integers(min_value=1, max_value=254)
_flow = st.builds(
    FlowRecord,
    ts=st.floats(min_value=1e6, max_value=2e6, allow_nan=False),
    src_ip=st.tuples(_octet, _octet, _octet, _octet).map(lambda t: ".".join(map(str, t))),
    dst_ip=st.tuples(_octet, _octet, _octet, _octet).map(lambda t: ".".join(map(str, t))),
    src_port=st.integers(min_value=0, max_value=65535),
    dst_port=st.integers(min_value=0, max_value=65535),
    protocol=st.integers(min_value=0, max_value=255),
    packets=st.integers(min_value=0, max_value=2**31),
    bytes_=st.integers(min_value=0, max_value=2**31),
)


@given(st.lists(_flow, min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_v9_export_ingest_preserves_flows(flows):
    exporter = FlowExporter(version=9, batch_size=16)
    collector = FlowCollector()
    decoded = []
    for datagram in exporter.export(flows):
        decoded.extend(collector.ingest_columns(datagram).to_records())
    assert len(decoded) == len(flows)
    for orig, back in zip(flows, decoded):
        assert back.src_ip == orig.src_ip
        assert back.dst_ip == orig.dst_ip
        assert back.src_port == orig.src_port
        assert back.bytes_ == orig.bytes_ & 0xFFFFFFFF


@given(st.lists(_flow, min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_v5_round_trip_volume_conserved(flows):
    exporter = FlowExporter(version=5, batch_size=30)
    collector = FlowCollector()
    decoded = []
    for datagram in exporter.export(flows):
        decoded.extend(collector.ingest_columns(datagram).to_records())
    assert sum(f.packets for f in decoded) == sum(f.packets & 0xFFFFFFFF for f in flows)


# Random bytes never learn a template, so on their own they never reach a
# data decoder. A hostile *session* does: a learned template whose fields
# are 1–8 bytes wide whatever their type (wide and odd-length ports,
# counters and timestamps; addresses mostly 4/16 bytes, sometimes not),
# then data sets of arbitrary bytes against it, some with one byte of the
# datagram (headers included) overwritten.
_FIELD_TYPES = [L4_SRC_PORT, L4_DST_PORT, PROTOCOL, IN_PKTS, IN_BYTES,
                LAST_SWITCHED, FLOW_END_MILLISECONDS, 100]


@st.composite
def _hostile_sessions(draw):
    """``(version, template datagram, data datagrams)`` for v9 or IPFIX."""
    version = draw(st.sampled_from([9, IPFIX_VERSION]))
    v6 = draw(st.booleans())
    addr_len = st.one_of(st.just(16 if v6 else 4), st.integers(min_value=1, max_value=8))
    fields = [
        TemplateField(IPV6_SRC_ADDR if v6 else IPV4_SRC_ADDR, draw(addr_len)),
        TemplateField(IPV6_DST_ADDR if v6 else IPV4_DST_ADDR, draw(addr_len)),
    ]
    for ftype in draw(st.lists(st.sampled_from(_FIELD_TYPES), max_size=6)):
        fields.append(TemplateField(ftype, draw(st.integers(min_value=1, max_value=8))))
    draw(st.randoms(use_true_random=False)).shuffle(fields)
    template = TemplateRecord(draw(st.integers(min_value=256, max_value=260)), tuple(fields))

    datagrams = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        records = draw(st.integers(min_value=0, max_value=3))
        payload = draw(st.binary(min_size=records * template.record_length,
                                 max_size=records * template.record_length + 3))
        data_set = struct.pack("!HH", template.template_id, 4 + len(payload)) + payload
        if version == 9:
            datagram = _pack_header(records, draw(st.integers(0, 2**32 - 1)),
                                    draw(st.integers(0, 2**32 - 1)), 0, 0) + data_set
        else:
            datagram = IPFIX_HEADER.pack(IPFIX_VERSION, IPFIX_HEADER.size + len(data_set),
                                         draw(st.integers(0, 2**32 - 1)), 0, 0) + data_set
        if draw(st.booleans()):
            i = draw(st.integers(min_value=0, max_value=len(datagram) - 1))
            datagram = datagram[:i] + bytes([draw(st.integers(0, 255))]) + datagram[i + 1:]
        datagrams.append(datagram)
    encode_template = encode_v9_template if version == 9 else encode_ipfix_template
    return version, encode_template([template]), datagrams


@given(st.binary(min_size=0, max_size=120), _hostile_sessions())
@settings(max_examples=200, deadline=None)
def test_decoders_never_crash_on_garbage(data, hostile):
    try:
        decode_v5_columns(data)
    except ParseError:
        pass
    try:
        V9Session().decode_batch_columns(data)
    except ParseError:
        pass
    try:
        IpfixSession().decode_batch_columns(data)
    except ParseError:
        pass
    version, template_datagram, datagrams = hostile
    session = V9Session() if version == 9 else IpfixSession()
    session.decode_batch_columns(template_datagram)
    oracle = decode_v9 if version == 9 else decode_ipfix
    for datagram in datagrams:
        # The production decoder and the per-field oracle the parity
        # suites hold it to.
        for decode in (session.decode_batch_columns,
                       lambda datagram: oracle(session, datagram)):
            try:
                decode(datagram)
            except ParseError:
                pass


@given(st.binary(min_size=0, max_size=120), _hostile_sessions())
@settings(max_examples=100, deadline=None)
def test_collector_never_raises(data, hostile):
    collector = FlowCollector()
    assert isinstance(collector.ingest_columns(data), FlowBatch)
    _version, template_datagram, datagrams = hostile
    for lane in (FlowCollector.ingest_columns, ingest):
        collector = FlowCollector()
        for datagram in [template_datagram] + datagrams:
            lane(collector, datagram)
        stats = collector.stats
        # Every datagram is either decoded or counted under a reason.
        assert stats.datagrams + stats.malformed + stats.unknown_version == 1 + len(datagrams)
