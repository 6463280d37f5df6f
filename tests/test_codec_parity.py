"""Differential tests: compiled decoders vs the per-field references.

PR 2's parity contract: for every template and payload the collector can
see, the template-specialized compiled v9/IPFIX decoders
(``decode_batch_columns``, rows materialised through
``FlowBatch.record``) must produce records byte-for-byte identical to
the per-field reference ``decode()``, and the memoryview/name-cache DNS
decoder names identical to an uncached ``decode_name`` chase. Templates
and payloads are randomized (hypothesis) so the parity claim covers odd
field widths, unknown field types, duplicate fields, padding, and
compression-pointer-heavy DNS messages — not just the standard layouts.
"""

import string
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.name import decode_name, encode_name
from repro.dns.rr import RRType, a_record, cname_record
from repro.dns.wire import DnsMessage, Header, Question, decode_message, encode_message
from repro.netflow.ipfix import (
    FLOW_END_MILLISECONDS,
    IPFIX_HEADER,
    IPFIX_VERSION,
    IpfixSession,
    encode_ipfix_template,
)
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
    FIRST_SWITCHED,
    PROTOCOL,
    SRC_AS,
    TemplateField,
    TemplateRecord,
    V9Session,
    encode_v9_template,
    _pack_header,
)

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


def _record_block(template, payload_rng, n_records, trailing):
    size = template.record_length * n_records
    raw = payload_rng.getrandbits(8 * size).to_bytes(size, "big") if size else b""
    return raw + b"\x00" * trailing


@given(
    template=_templates(),
    rng=st.randoms(use_true_random=False),
    n_records=st.integers(min_value=0, max_value=5),
    trailing=st.integers(min_value=0, max_value=3),
    unix_secs=st.integers(min_value=0, max_value=2**31),
    sys_uptime=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=120, deadline=None)
def test_v9_compiled_matches_reference(template, rng, n_records, trailing, unix_secs, sys_uptime):
    payload = _record_block(template, rng, n_records, trailing)
    flowset = struct.pack("!HH", template.template_id, 4 + len(payload)) + payload
    datagram = _pack_header(n_records, sys_uptime, unix_secs, 0, 0) + flowset
    template_datagram = encode_v9_template([template], unix_secs=unix_secs)

    session = V9Session()
    session.decode(template_datagram)
    ref_flows = session.decode(datagram)
    comp_flows = session.decode_batch_columns(datagram).to_records()
    assert ref_flows == comp_flows
    for a, b in zip(ref_flows, comp_flows):
        assert a.ts == b.ts
        assert a.extra == b.extra


@given(
    template=_templates(ts_type=FLOW_END_MILLISECONDS, ts_lengths=(4, 6, 8)),
    rng=st.randoms(use_true_random=False),
    n_records=st.integers(min_value=0, max_value=5),
    trailing=st.integers(min_value=0, max_value=3),
    export_secs=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=120, deadline=None)
def test_ipfix_compiled_matches_reference(template, rng, n_records, trailing, export_secs):
    payload = _record_block(template, rng, n_records, trailing)
    data_set = struct.pack("!HH", template.template_id, 4 + len(payload)) + payload
    message = (
        IPFIX_HEADER.pack(IPFIX_VERSION, IPFIX_HEADER.size + len(data_set), export_secs, 0, 0)
        + data_set
    )
    template_message = encode_ipfix_template([template], export_secs=export_secs)

    session = IpfixSession()
    session.decode(template_message)
    ref_flows = session.decode(message)
    comp_flows = session.decode_batch_columns(message).to_records()
    assert ref_flows == comp_flows
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
    session.decode(template_datagram)
    assert session.decode(data_datagram) == []
    assert len(session.decode_batch_columns(data_datagram)) == 0


def test_compiled_decoder_skips_addressless_templates():
    """A template without addresses yields no flows on either path."""
    template = TemplateRecord(310, (TemplateField(IN_PKTS, 4), TemplateField(IN_BYTES, 4)))
    datagram = (
        _pack_header(1, 0, 1000, 0, 0)
        + struct.pack("!HH", 310, 4 + 8)
        + b"\x00" * 8
    )
    session = V9Session()
    session.decode(encode_v9_template([template], unix_secs=1000))
    assert session.decode(datagram) == []
    assert len(session.decode_batch_columns(datagram)) == 0


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


def test_interned_names_are_shared_objects():
    """Two messages carrying the same names decode to identical objects."""
    msg = DnsMessage(
        header=Header(msg_id=1),
        questions=[Question("www.shared.example", RRType.A)],
        answers=[a_record("www.shared.example", "198.51.100.7", 60)],
    )
    wire = encode_message(msg)
    first = decode_message(wire)
    second = decode_message(bytes(wire))
    assert first.answers[0].name is second.answers[0].name
