"""Differential tests: compiled decoders vs the per-field references.

PR 2's parity contract: for every template and payload the collector can
see, the template-specialized compiled v9/IPFIX decoders
(``decode_batch_columns``, rows materialised through
``FlowBatch.record``) must produce records byte-for-byte identical to
the per-field references (``repro.reference.decode_v9``/
``decode_ipfix``), and the memoryview/name-cache DNS
decoder names identical to an uncached ``decode_name`` chase. Templates
and payloads are randomized (hypothesis) so the parity claim covers odd
field widths, unknown field types, duplicate fields, padding, and
compression-pointer-heavy DNS messages — not just the standard layouts.
Sets of up to 70 records cross the compiled decoder's multi-record
struct pieces (powers of two up to 32 records), a wide port field
carrying a value over 65535 must be rejected by both sides, and a burst
through ``FlowCollector.ingest_columns_many`` must equal the per-datagram
oracle, malformed datagram included.
"""

import dataclasses
import random
import string
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.core.lookup import CorrelationBatch, CorrelationResult
from repro.core.writer import format_batch
from repro.dns.name import decode_name, encode_name
from repro.dns.rr import RRType
from repro.reference import (
    DnsMessage,
    Header,
    Question,
    a_record,
    cname_record,
    decode_ipfix,
    decode_message,
    decode_v9,
    encode_message,
    encode_v5,
    encode_v9_data,
)
from repro.netflow.ipfix import (
    FLOW_END_MILLISECONDS,
    IPFIX_HEADER,
    IPFIX_V4_TEMPLATE,
    IPFIX_VERSION,
    IpfixSession,
)
from repro.netflow.export import (
    _pack_header,
    encode_ipfix_data,
    encode_ipfix_template,
    encode_v9_template,
)
from repro.netflow.collector import FlowCollector
from repro.netflow.records import FlowBatch, FlowRecord
from repro.netflow.v9 import (
    FIRST_SWITCHED,
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
    SRC_AS,
    STANDARD_V4_TEMPLATE,
    TemplateField,
    TemplateRecord,
    V9Session,
    compiled_v9_decoder,
)
from repro.util.errors import ParseError
from repro.util.interning import ip_text

# ---------------------------------------------------------------------------
# Randomized template layouts. Address fields keep their wire-legal widths
# (4/16) and ports stay <= 2 bytes — the widths real exporters emit and the
# only ones whose decode the references accept without tripping their own
# value checks; everything else (counters, timestamps, unknown types) gets
# randomized widths including the odd ones (3, 5, 6, 7).
# ---------------------------------------------------------------------------

_extra_field = st.one_of(
    st.tuples(st.just(SRC_AS), st.sampled_from([2, 4])),
    st.tuples(st.just(FIRST_SWITCHED), st.sampled_from([4, 8])),
    st.tuples(st.integers(min_value=100, max_value=120), st.integers(min_value=1, max_value=8)),
)


@st.composite
def _templates(draw, ts_type=LAST_SWITCHED, ts_lengths=(4,)):
    v6 = draw(st.booleans())
    addr_len = 16 if v6 else 4
    fields = [
        TemplateField(IPV6_SRC_ADDR if v6 else IPV4_SRC_ADDR, addr_len),
        TemplateField(IPV6_DST_ADDR if v6 else IPV4_DST_ADDR, addr_len),
    ]
    if draw(st.booleans()):
        fields.append(TemplateField(L4_SRC_PORT, draw(st.sampled_from([1, 2]))))
    if draw(st.booleans()):
        fields.append(TemplateField(L4_DST_PORT, 2))
    if draw(st.booleans()):
        fields.append(TemplateField(PROTOCOL, 1))
    fields.append(TemplateField(IN_PKTS, draw(st.sampled_from([2, 3, 4, 8]))))
    fields.append(TemplateField(IN_BYTES, draw(st.sampled_from([4, 5, 8]))))
    if draw(st.booleans()):
        fields.append(TemplateField(ts_type, draw(st.sampled_from(ts_lengths))))
    fields.extend(TemplateField(t, ln) for t, ln in draw(st.lists(_extra_field, max_size=3)))
    draw(st.randoms()).shuffle(fields)
    return TemplateRecord(template_id=draw(st.integers(min_value=256, max_value=400)), fields=tuple(fields))


#: Prefixes laid over the random IPv6 addresses: none, the IPv4-mapped
#: ``::ffff:0:0/96``, and ``::/96`` (12 or 14 zero bytes). The last ones
#: are where ``inet_ntop`` writes a dotted tail that ``ipaddress`` spells
#: differently, so both decoders' text must agree there too.
_v6_prefixes = st.sampled_from([b"", bytes(10) + b"\xff\xff", bytes(12), bytes(14)])


def _record_block(template, payload_rng, n_records, trailing, v6_prefix=b""):
    size = template.record_length * n_records
    raw = bytearray(payload_rng.getrandbits(8 * size).to_bytes(size, "big") if size else b"")
    if v6_prefix:
        offset = 0
        for _ in range(n_records):
            for f in template.fields:
                if f.field_type in (IPV6_SRC_ADDR, IPV6_DST_ADDR):
                    raw[offset : offset + len(v6_prefix)] = v6_prefix
                offset += f.length
    return bytes(raw) + b"\x00" * trailing


def _assert_same_address_text(batch, ref_flows):
    """The compiled path's address text is ``str`` of the reference's
    ``ipaddress`` objects, not merely an equal address."""
    assert batch.src_ip_text == [str(r.src_ip) for r in ref_flows]
    assert batch.dst_ip_text == [str(r.dst_ip) for r in ref_flows]


@given(
    template=_templates(),
    rng=st.randoms(use_true_random=False),
    n_records=st.integers(min_value=0, max_value=70),
    trailing=st.integers(min_value=0, max_value=3),
    unix_secs=st.integers(min_value=0, max_value=2**31),
    sys_uptime=st.integers(min_value=0, max_value=2**31),
    v6_prefix=_v6_prefixes,
)
@settings(max_examples=120, deadline=None)
def test_v9_compiled_matches_reference(template, rng, n_records, trailing, unix_secs, sys_uptime, v6_prefix):
    payload = _record_block(template, rng, n_records, trailing, v6_prefix)
    flowset = struct.pack("!HH", template.template_id, 4 + len(payload)) + payload
    datagram = _pack_header(n_records, sys_uptime, unix_secs, 0, 0) + flowset
    template_datagram = encode_v9_template([template], unix_secs=unix_secs)

    session = V9Session()
    decode_v9(session, template_datagram)
    ref_flows = decode_v9(session, datagram)
    batch = session.decode_batch_columns(datagram)
    comp_flows = batch.to_records()
    assert ref_flows == comp_flows
    _assert_same_address_text(batch, ref_flows)
    for a, b in zip(ref_flows, comp_flows):
        assert a.ts == b.ts
        assert a.extra == b.extra


@given(
    template=_templates(ts_type=FLOW_END_MILLISECONDS, ts_lengths=(4, 6, 8)),
    rng=st.randoms(use_true_random=False),
    n_records=st.integers(min_value=0, max_value=70),
    trailing=st.integers(min_value=0, max_value=3),
    export_secs=st.integers(min_value=0, max_value=2**31),
    v6_prefix=_v6_prefixes,
)
@settings(max_examples=120, deadline=None)
def test_ipfix_compiled_matches_reference(template, rng, n_records, trailing, export_secs, v6_prefix):
    payload = _record_block(template, rng, n_records, trailing, v6_prefix)
    data_set = struct.pack("!HH", template.template_id, 4 + len(payload)) + payload
    message = (
        IPFIX_HEADER.pack(IPFIX_VERSION, IPFIX_HEADER.size + len(data_set), export_secs, 0, 0)
        + data_set
    )
    template_message = encode_ipfix_template([template], export_secs=export_secs)

    session = IpfixSession()
    decode_ipfix(session, template_message)
    ref_flows = decode_ipfix(session, message)
    batch = session.decode_batch_columns(message)
    comp_flows = batch.to_records()
    assert ref_flows == comp_flows
    _assert_same_address_text(batch, ref_flows)
    for a, b in zip(ref_flows, comp_flows):
        assert a.ts == b.ts
        assert a.extra == b.extra


def test_zero_field_template_decodes_to_nothing_on_both_paths():
    """Regression: a hostile zero-field template must not hang the decoder."""
    # Hand-built template FlowSet: id 300, field_count 0 (encode helpers
    # can't produce this degenerate layout).
    template_datagram = (
        _pack_header(1, 0, 1000, 0, 0)
        + struct.pack("!HH", 0, 4 + 4)
        + struct.pack("!HH", 300, 0)
    )
    data_datagram = (
        _pack_header(1, 0, 1000, 0, 0)
        + struct.pack("!HH", 300, 4 + 8)
        + b"\x00" * 8
    )
    session = V9Session()
    decode_v9(session, template_datagram)
    assert decode_v9(session, data_datagram) == []
    assert len(session.decode_batch_columns(data_datagram)) == 0


@pytest.mark.parametrize("width", [1, 3, 5, 8, 15, 17])
@pytest.mark.parametrize("field", ["src", "dst"])
def test_bad_address_width_rejects_any_record_on_both_paths(width, field):
    """An address field neither 4 nor 16 bytes wide rejects a set with
    a record in it, on both paths; a set too short for one record
    decodes to nothing."""
    fields = [TemplateField(IPV4_SRC_ADDR, width if field == "src" else 4),
              TemplateField(IPV4_DST_ADDR, width if field == "dst" else 4),
              TemplateField(IN_BYTES, 4)]
    template = TemplateRecord(320, tuple(fields))
    session = V9Session()
    decode_v9(session, encode_v9_template([template]))
    short = _v9_datagram([(320, bytes(template.record_length - 1))])
    assert decode_v9(session, short) == []
    assert len(session.decode_batch_columns(short)) == 0
    full = _v9_datagram([(320, bytes(template.record_length * 2))])
    with pytest.raises(ParseError):
        decode_v9(session, full)
    with pytest.raises(ParseError):
        session.decode_batch_columns(full)


def test_compiled_decoder_skips_addressless_templates():
    """A template without addresses yields no flows on either path."""
    template = TemplateRecord(310, (TemplateField(IN_PKTS, 4), TemplateField(IN_BYTES, 4)))
    datagram = (
        _pack_header(1, 0, 1000, 0, 0)
        + struct.pack("!HH", 310, 4 + 8)
        + b"\x00" * 8
    )
    session = V9Session()
    decode_v9(session, encode_v9_template([template], unix_secs=1000))
    assert decode_v9(session, datagram) == []
    assert len(session.decode_batch_columns(datagram)) == 0


def _v9_datagram(flowsets, unix_secs=1000, sys_uptime=5000):
    """A v9 datagram carrying ``(set_id, payload)`` FlowSets, unpadded."""
    body = b"".join(struct.pack("!HH", set_id, 4 + len(payload)) + payload
                    for set_id, payload in flowsets)
    return _pack_header(len(flowsets), sys_uptime, unix_secs, 0, 0) + body


def _ipfix_message(set_id, payload, export_secs=1000):
    data_set = struct.pack("!HH", set_id, 4 + len(payload)) + payload
    return IPFIX_HEADER.pack(IPFIX_VERSION, IPFIX_HEADER.size + len(data_set),
                             export_secs, 0, 0) + data_set


@given(packed=st.binary(min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_ipv4_text_spells_dotted_quad(packed):
    """``ip_text`` spells a packed IPv4 address with ``inet_ntoa``; that
    is the plain dotted quad for every 4-byte input."""
    assert ip_text(packed) == "%d.%d.%d.%d" % tuple(packed)


# ---------------------------------------------------------------------------
# Wide port fields: a value over 65535 in any record rejects the datagram.
# ---------------------------------------------------------------------------


@given(
    ipfix=st.booleans(),
    port_type=st.sampled_from([L4_SRC_PORT, L4_DST_PORT]),
    port_len=st.sampled_from([3, 4]),
    n_records=st.integers(min_value=1, max_value=70),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_wide_port_over_16_bits_rejected_on_both_sides(ipfix, port_type, port_len,
                                                        n_records, data):
    template = TemplateRecord(320, (
        TemplateField(IPV4_SRC_ADDR, 4),
        TemplateField(IPV4_DST_ADDR, 4),
        TemplateField(port_type, port_len),
        TemplateField(IN_BYTES, 4),
    ))
    bad = data.draw(st.integers(min_value=0, max_value=n_records - 1))
    rng = data.draw(st.randoms(use_true_random=False))
    records = []
    for i in range(n_records):
        if i == bad:
            port = rng.randint(65536, 2 ** (8 * port_len) - 1)
        else:
            port = rng.randint(0, 65535)
        records.append(rng.randbytes(8) + port.to_bytes(port_len, "big") + rng.randbytes(4))
    payload = b"".join(records)
    if ipfix:
        sessions, oracle = (IpfixSession(), IpfixSession()), decode_ipfix
        template_message = encode_ipfix_template([template])
        message = _ipfix_message(320, payload)
    else:
        sessions, oracle = (V9Session(), V9Session()), decode_v9
        template_message = encode_v9_template([template])
        message = _v9_datagram([(320, payload)])
    production, reference_session = sessions
    production.decode_batch_columns(template_message)
    oracle(reference_session, template_message)
    with pytest.raises(ParseError):
        production.decode_batch_columns(message)
    with pytest.raises(ParseError):
        oracle(reference_session, message)


# ---------------------------------------------------------------------------
# Bursts: one accumulator, malformed datagrams rolled back.
# ---------------------------------------------------------------------------

#: A template with a 4-byte port (so a record can be malformed) and an
#: extra field (so its rows carry ``extras``).
_WIDE_TEMPLATE = TemplateRecord(330, (
    TemplateField(IPV4_SRC_ADDR, 4),
    TemplateField(IPV4_DST_ADDR, 4),
    TemplateField(L4_SRC_PORT, 4),
    TemplateField(SRC_AS, 2),
    TemplateField(IN_BYTES, 4),
    TemplateField(LAST_SWITCHED, 4),
))


def _wide_records(rng, count, bad_port=False):
    out = []
    for i in range(count):
        port = 70000 if bad_port and i == count - 1 else rng.randint(0, 65535)
        out.append(rng.randbytes(8) + struct.pack("!IHII", port, rng.randint(0, 65535),
                                                  rng.randint(0, 2 ** 32 - 1),
                                                  rng.randint(4000, 6000)))
    return b"".join(out)


def _flows(rng, count):
    return [
        FlowRecord(ts=1000.0 + rng.randint(0, 3000) / 1000.0,
                   src_ip=f"10.{rng.randint(0, 3)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}",
                   dst_ip=f"100.64.0.{rng.randint(1, 254)}", src_port=rng.randint(0, 65535),
                   dst_port=443, protocol=6, packets=rng.randint(1, 99),
                   bytes_=rng.randint(0, 10**6))
        for _ in range(count)
    ]


@st.composite
def _bursts(draw):
    """A burst of mixed datagrams with one malformed v9 datagram in the
    middle: its first FlowSet decodes, its second carries a port over
    65535."""
    rng = draw(st.randoms(use_true_random=False))

    def some_traffic():
        kind = draw(st.sampled_from(["v9", "wide", "v5", "ipfix", "late", "unknown"]))
        count = draw(st.integers(min_value=0, max_value=45))
        if kind == "v9":
            return encode_v9_data(STANDARD_V4_TEMPLATE, _flows(rng, count),
                                  sys_uptime_ms=5000, unix_secs=1000)
        if kind == "wide":
            return _v9_datagram([(330, _wide_records(rng, count))])
        if kind == "v5":
            return encode_v5(_flows(rng, min(count, 30)), sys_uptime_ms=5000, unix_secs=1000)
        if kind == "ipfix":
            return encode_ipfix_data(IPFIX_V4_TEMPLATE, _flows(rng, count), export_secs=1000)
        if kind == "late":  # a data FlowSet whose template never came
            return _v9_datagram([(400, rng.randbytes(25 * count))])
        return b"\x00\x07" + rng.randbytes(count)  # unknown version

    head = [some_traffic() for _ in range(draw(st.integers(min_value=0, max_value=4)))]
    tail = [some_traffic() for _ in range(draw(st.integers(min_value=0, max_value=4)))]
    first = draw(st.sampled_from([330, STANDARD_V4_TEMPLATE.template_id]))
    first_count = draw(st.integers(min_value=1, max_value=40))
    if first == 330:
        first_payload = _wide_records(rng, first_count)
    else:
        first_payload = encode_v9_data(STANDARD_V4_TEMPLATE, _flows(rng, first_count))[24:]
    malformed = _v9_datagram([
        (first, first_payload),
        (330, _wide_records(rng, draw(st.integers(min_value=1, max_value=40)), bad_port=True)),
    ])
    templates = [
        encode_v9_template([STANDARD_V4_TEMPLATE, _WIDE_TEMPLATE]),
        encode_ipfix_template([IPFIX_V4_TEMPLATE]),
    ]
    return templates + head + [malformed] + tail


@given(datagrams=_bursts())
@settings(max_examples=60, deadline=None)
def test_burst_matches_per_datagram_oracle(datagrams):
    collector = FlowCollector()
    batch = collector.ingest_columns_many(datagrams)
    oracle = FlowCollector()
    expected = [flow for d in datagrams for flow in reference.ingest(oracle, d)]
    records = batch.to_records()
    assert records == expected
    assert [(r.ts, r.extra) for r in records] == [(r.ts, r.extra) for r in expected]
    assert dataclasses.asdict(collector.stats) == dataclasses.asdict(oracle.stats)
    assert collector.stats.malformed >= 1
    if batch.extras is not None:
        assert len(batch.extras) == len(batch)


# ---------------------------------------------------------------------------
# The multi-record struct table stays small for any set size.
# ---------------------------------------------------------------------------


def test_struct_table_bounded_for_every_set_size():
    rec_len = STANDARD_V4_TEMPLATE.record_length
    session = V9Session()
    session.decode_batch_columns(encode_v9_template([STANDARD_V4_TEMPLATE]))
    decoder = compiled_v9_decoder(STANDARD_V4_TEMPLATE)
    structs = decoder.structs
    assert [s.size // rec_len for s in structs] == [32, 16, 8, 4, 2, 1]
    rng = random.Random(5)
    flows = _flows(rng, 200)
    for count in range(1, 201):
        datagram = encode_v9_data(STANDARD_V4_TEMPLATE, flows[:count],
                                  sys_uptime_ms=5000, unix_secs=1000)
        decoded = session.decode_batch_columns(datagram).to_records()
        assert len(decoded) == count
        assert decoded == decode_v9(session, datagram)
    assert decoder.structs is structs
    assert sum(s.size for s in structs) == 63 * rec_len


def test_struct_table_of_a_wide_template_stays_small():
    fields = [TemplateField(IPV4_SRC_ADDR, 4), TemplateField(IPV4_DST_ADDR, 4)]
    fields += [TemplateField(1000 + i, 2) for i in range(100)]
    template = TemplateRecord(340, tuple(fields))
    structs = compiled_v9_decoder(template).structs
    # 102 fields: only the 1- and 2-record structs fit in 256 codes.
    assert [s.size // template.record_length for s in structs] == [2, 1]
    session = V9Session()
    session.decode_batch_columns(encode_v9_template([template]))
    payload = random.Random(7).randbytes(template.record_length * 7)
    datagram = _v9_datagram([(340, payload)])
    assert session.decode_batch_columns(datagram).to_records() == decode_v9(session, datagram)


# ---------------------------------------------------------------------------
# Rows: per-batch fragments vs the per-result oracle.
# ---------------------------------------------------------------------------


def test_format_batch_keeps_signed_zero_timestamps_apart():
    """``0.0 == -0.0`` share a memo key but print as ``0.000`` and
    ``-0.000``; a FlowRecord-fed batch (a CSV time of ``-0``) has both."""
    chains = [("a.example",), (), ("edge.cdn.net", "svc.example"), ("a.example",), ()]
    results = [
        CorrelationResult(
            FlowRecord(ts=ts, src_ip="10.0.0.1", dst_ip="100.64.0.2", packets=2, bytes_=70),
            chain, ts,
        )
        for ts, chain in zip((0.0, -0.0, 1.25, -0.0, 0.0), chains)
    ]
    batch = CorrelationBatch(FlowBatch.from_records(r.flow for r in results), chains)
    rows = format_batch(batch)
    assert rows == [reference.format_result(r) for r in results]
    assert [row.split("\t")[0] for row in rows] == ["0.000", "-0.000", "1.250", "-0.000", "0.000"]


# ---------------------------------------------------------------------------
# DNS: memoryview + per-message name cache vs an uncached name chase.
# ---------------------------------------------------------------------------

# Includes space: FlowDNS must transport malformed names (Section 5), and
# whitespace labels once exposed a cached-vs-uncached normalization split.
_label = st.text(alphabet=string.ascii_uppercase + string.ascii_lowercase + string.digits + "- ",
                 min_size=1, max_size=12).filter(lambda s: s.strip(" .") == s)
_name = st.lists(_label, min_size=1, max_size=4).map(".".join)
_ipv4_text = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda n: ".".join(str((n >> s) & 0xFF) for s in (24, 16, 8, 0))
)


@st.composite
def _messages(draw):
    qname = draw(_name)
    # CNAME chains that reuse owner names maximize compression pointers —
    # exactly the case the per-message name cache short-circuits.
    chain = [qname] + draw(st.lists(_name, min_size=0, max_size=3))
    answers = []
    for owner, target in zip(chain, chain[1:]):
        answers.append(cname_record(owner, target, draw(st.integers(0, 3600))))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        answers.append(a_record(chain[-1], draw(_ipv4_text), draw(st.integers(0, 3600))))
    return DnsMessage(
        header=Header(msg_id=draw(st.integers(0, 0xFFFF))),
        questions=[Question(qname, RRType.A)],
        answers=answers,
    )


def _uncached_names(wire, answer_count):
    """Every name of a question + answers message, each compression
    chain chased from scratch (``decode_name`` without a cache)."""
    qname, offset = decode_name(wire, 12)
    offset += 4  # qtype, qclass
    names = [qname]
    for _ in range(answer_count):
        owner, offset = decode_name(wire, offset)
        rtype, _rclass, _ttl, rdlength = struct.unpack_from("!HHIH", wire, offset)
        offset += 10
        names.append(owner)
        if rtype == RRType.CNAME:
            names.append(decode_name(wire, offset)[0])
        offset += rdlength
    return names


@given(msg=_messages())
@settings(max_examples=150, deadline=None)
def test_dns_cached_decode_matches_uncached(msg):
    wire = encode_message(msg)
    cached = decode_message(wire)
    cached_names = [cached.questions[0].qname]
    for rr in cached.answers:
        cached_names.append(rr.name)
        if rr.rtype == RRType.CNAME:
            cached_names.append(rr.rdata)
    assert cached_names == _uncached_names(wire, len(cached.answers))
    via_memoryview = decode_message(memoryview(wire))
    assert via_memoryview == cached


@given(msg=_messages())
@settings(max_examples=60, deadline=None)
def test_dns_round_trip_survives_cache(msg):
    decoded = decode_message(encode_message(msg))
    assert [q.qname for q in decoded.questions] == [q.qname for q in msg.questions]
    assert decoded.answers == msg.answers


def test_name_cache_consistent_for_shared_suffixes():
    """Pointer into the middle of a cached chain still decodes exactly."""
    # buf: "a.example.com" uncompressed, then "b" + pointer to "example.com"
    first = encode_name("a.example.com")
    buf = bytearray(first)
    second_start = len(buf)
    buf += b"\x01b" + bytes([0xC0 | (2 >> 8), 2])  # pointer to offset 2 ("example.com")
    cache = {}
    name1, off1 = decode_name(bytes(buf), 0, cache)
    name2, off2 = decode_name(bytes(buf), second_start, cache)
    ref1, roff1 = decode_name(bytes(buf), 0)
    ref2, roff2 = decode_name(bytes(buf), second_start)
    assert (name1, off1) == (ref1, roff1)
    assert (name2, off2) == (ref2, roff2)
    assert name2 == "b.example.com"


def test_name_cache_splice_preserves_raw_labels():
    """Regression: a cached suffix must splice *before* normalization.

    The cache once stored normalized suffixes, so a pointer landing on a
    cached name whose first label carried leading whitespace produced a
    different string than the uncached chase (whole-name strip vs
    per-suffix strip).
    """
    buf = bytearray()
    buf += bytes([4]) + b" com" + b"\x00"          # ' com' at offset 0
    second_start = len(buf)
    buf += bytes([1]) + b"b" + bytes([0xC0, 0x00])  # 'b' + pointer to 0
    wire = bytes(buf)
    cache = {}
    primed, _ = decode_name(wire, 0, cache)          # primes cache[0]
    spliced, _ = decode_name(wire, second_start, cache)
    ref, _ = decode_name(wire, second_start)
    assert spliced == ref
    assert primed == decode_name(wire, 0)[0]
