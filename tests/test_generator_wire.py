"""The one DNS writer against the reference object codec.

:func:`repro.dns.wire.encode_response` packs a response's header,
question and answers straight into one buffer; the generator, the
scenario corpus and the examples all write DNS through it. The
reference writer builds ``DnsMessage`` + ``Question`` +
``cname_record``/``a_record``/``aaaa_record`` objects and calls
``encode_message``. The capture pins in
``tests/test_workload_generator.py`` and the golden corpus hold that the
two agree on every message those write, and this file holds it over
resolution-shaped inputs the generator never draws: deep chains,
ephemeral tokens, upper case, trailing dots, empty, 63- and 64-octet
labels, underscores and non-ASCII labels, and TTLs at both ends of their
range. Either both paths write the same bytes or both raise
:class:`ParseError`.

It also holds the single-pass :class:`NameCompressor` to the
label-list implementation it replaced (copied below), over random name
sequences written near the 0x4000 pointer horizon.

Label alphabets leave out whitespace on purpose: ``normalize_name``
strips whitespace before trailing dots, so it is not idempotent on a
name like ``"a . \\t."``, and the object path normalises a CNAME target
once more than the writer does. Domain names carry no whitespace.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.name import (
    MAX_LABEL_LENGTH,
    NameCompressor,
    encode_name,
    normalize_name,
)
from repro.dns.rr import RRType
from repro.dns.wire import encode_response
from repro.reference import (
    DnsMessage,
    Question,
    a_record,
    aaaa_record,
    cname_record,
    decode_message,
    encode_message,
)
from repro.util.errors import ParseError
from repro.workloads.cdn import Resolution
from repro.workloads.generator import GeneratorParams, WorkloadGenerator

_GENERATOR = WorkloadGenerator(GeneratorParams(seed=1, clients=10, n_domains=3))

_LDH = "abcdefghijklmnopqrstuvwxyz0123456789-"

any_label = st.one_of(
    st.text(alphabet=_LDH, min_size=1, max_size=12),
    st.text(alphabet=_LDH.upper() + _LDH, min_size=1, max_size=12),
    st.text(alphabet=_LDH, min_size=1, max_size=8).map(lambda s: "_" + s),
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Lo")),
        min_size=1,
        max_size=6,
    ),
    st.just(""),
    st.sampled_from(("a" * 63, "b" * 64, "é" * 32)),  # 63, 64, 64 octets
)


@st.composite
def names(draw):
    name = ".".join(draw(st.lists(any_label, min_size=1, max_size=5)))
    if draw(st.booleans()):
        name += "."
    if draw(st.booleans()):
        name = name.upper()
    return name


#: Mostly well-formed names, so most examples reach a full encode.
plain_names = st.lists(
    st.text(alphabet=_LDH, min_size=1, max_size=10), min_size=1, max_size=4
).map(".".join)

ttls = st.sampled_from((0, 1, 300, 2**31 - 1))


@st.composite
def resolutions(draw):
    chain = draw(
        st.lists(st.one_of(plain_names, names()), min_size=1, max_size=8)
    )
    if len(chain) > 1 and draw(st.booleans()):
        token = draw(st.integers(min_value=0, max_value=(1 << 48) - 1))
        chain[-1] = f"t{token:012x}.{chain[-1]}"
    v6 = draw(st.booleans())
    ips = draw(
        st.lists(st.ip_addresses(v=6 if v6 else 4), min_size=1, max_size=4)
    )
    return Resolution(
        ts=0.0,
        service=None,
        chain=tuple(chain),
        ips=tuple(str(ip) for ip in ips),
        rtype=RRType.AAAA if v6 else RRType.A,
        a_ttl=draw(ttls),
        cname_ttl=draw(ttls),
    )


def _object_path(res: Resolution, msg_id: int) -> bytes:
    """The reference writer's message for ``res``."""
    answers = []
    for owner, target in zip(res.chain, res.chain[1:]):
        answers.append(cname_record(owner, target, res.cname_ttl))
    make = a_record if res.rtype == RRType.A else aaaa_record
    for ip in res.ips:
        answers.append(make(res.chain[-1], ip, res.a_ttl))
    msg = DnsMessage()
    msg.header.msg_id = msg_id
    msg.questions.append(Question(res.chain[0], res.rtype))
    msg.answers.extend(answers)
    return encode_message(msg)


def _outcome(encode, *args):
    try:
        return encode(*args)
    except ParseError:
        return ParseError


class TestResolutionWire:
    @settings(max_examples=400, deadline=None)
    @given(res=resolutions(), msg_id=st.integers(min_value=0, max_value=0xFFFF))
    def test_matches_object_path(self, res, msg_id):
        expected = _outcome(_object_path, res, msg_id)
        addresses = _GENERATOR._answer_addresses(res)
        got = _outcome(
            encode_response, msg_id, res.chain, res.rtype, addresses,
            res.cname_ttl, res.a_ttl,
        )
        assert got == expected
        if got is not ParseError:
            # And the bytes are a message the decoder accepts.
            decoded = decode_message(got)
            assert len(decoded.answers) == len(res.chain) - 1 + len(res.ips)

    def test_addresses_are_parsed_once_per_text(self):
        gen = WorkloadGenerator(GeneratorParams(seed=1, clients=10, n_domains=3))
        res = Resolution(0.0, None, ("a.example",), ("192.0.2.1", "192.0.2.2"),
                         RRType.A, 60, 60)
        first = gen._answer_addresses(res)
        assert first == (bytes([192, 0, 2, 1]), bytes([192, 0, 2, 2]))
        assert gen._answer_addresses(res)[0] is first[0]
        assert len(gen._packed) == 2

    def test_wrong_family_is_refused(self):
        """``a_record`` refuses a v6 address; so does the writer, for
        every address length that does not fit the answer type."""
        v6 = _GENERATOR._answer_addresses(
            Resolution(0.0, None, ("a.example",), ("2001:db8::1",), RRType.A, 60, 60)
        )
        with pytest.raises(ValueError):
            a_record("a.example", "2001:db8::1", 60)
        for rtype, addresses in ((RRType.A, v6), (RRType.AAAA, (bytes(4),)),
                                 (RRType.CNAME, (bytes(4),))):
            with pytest.raises(ValueError):
                encode_response(0, ("a.example",), rtype, addresses, 60, 60)


def _labels(name):
    """The labels of a presentation-format name (the root has none)."""
    norm = normalize_name(name)
    return [] if norm == "." else norm.split(".")


class _LabelListCompressor:
    """``NameCompressor.encode`` as it was: a label list and one
    ``".".join`` per suffix, and no 255-octet check."""

    def __init__(self):
        self._offsets = {}

    def encode(self, name, current_offset):
        out = bytearray()
        labels = _labels(name)
        for i in range(len(labels)):
            suffix = ".".join(labels[i:])
            known = self._offsets.get(suffix)
            if known is not None and known < 0x4000:
                out.append(0xC0 | (known >> 8))
                out.append(known & 0xFF)
                return bytes(out)
            offset_here = current_offset + len(out)
            if offset_here < 0x4000:
                self._offsets[suffix] = offset_here
            raw = labels[i].encode("utf-8", errors="surrogateescape")
            if not 1 <= len(raw) <= MAX_LABEL_LENGTH:
                raise ParseError(f"bad label length in {name!r}")
            out.append(len(raw))
            out.extend(raw)
        out.append(0)
        return bytes(out)


def _write_sequence(compressor, items, start):
    """Write ``(name, as_rdata)`` items from offset ``start`` the way
    ``encode_message`` does: owners through the compressor, rdata
    uncompressed and unrecorded. Returns the bytes or ``ParseError``."""
    out = bytearray()
    try:
        for name, as_rdata in items:
            if as_rdata:
                out += encode_name(name)
            else:
                out += compressor.encode(name, start + len(out))
    except ParseError:
        return ParseError
    return bytes(out)


def _wire_length(name):
    """Uncompressed wire octets of ``name``, whatever its labels."""
    return sum(len(label.encode("utf-8", "surrogateescape")) + 1
               for label in _labels(name)) + 1


def _shared_suffix_names():
    base = st.lists(st.sampled_from(("a", "bb", "cdn", "x1", "edge", "net")),
                    min_size=1, max_size=4).map(".".join)
    return st.one_of(base, names())


class TestSinglePassCompressor:
    @settings(max_examples=400, deadline=None)
    @given(
        items=st.lists(st.tuples(_shared_suffix_names(), st.booleans()),
                       min_size=1, max_size=12),
        start=st.one_of(
            st.integers(min_value=0, max_value=64),
            st.integers(min_value=0x4000 - 300, max_value=0x4000 + 8),
        ),
    )
    def test_matches_label_list_implementation(self, items, start):
        got = _write_sequence(NameCompressor(), items, start)
        if all(_wire_length(name) <= 255 for name, _ in items):
            assert got == _write_sequence(_LabelListCompressor(), items, start)
        else:
            # The old compressor let an over-long owner name through.
            assert got is ParseError

    def test_rdata_before_owner_is_not_a_pointer_target(self):
        """A name written as CNAME rdata first is not remembered: its
        first owner occurrence is written out, and only later ones point."""
        items = [("edge.cdn.net", True), ("edge.cdn.net", False),
                 ("edge.cdn.net", False)]
        got = _write_sequence(NameCompressor(), items, 12)
        rdata = encode_name("edge.cdn.net")
        assert got == rdata + rdata + bytes([0xC0, 12 + len(rdata)])
        assert got == _write_sequence(_LabelListCompressor(), items, 12)

    def test_no_pointer_at_or_beyond_0x4000(self):
        comp = NameCompressor()
        first = comp.encode("a.example", 0x4000 - 2)
        # "a.example" sits below 0x4000, "example" at 0x4000: only the
        # whole name is a pointer target.
        assert comp.encode("a.example", 0x4100) == bytes([0xFF, 0xFE])
        assert comp.encode("b.example", 0x4200) == encode_name("b.example")
        assert first == encode_name("a.example")

