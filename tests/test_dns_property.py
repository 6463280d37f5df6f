"""Property-based tests (hypothesis) for the DNS wire substrate."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.name import decode_name, encode_name, normalize_name
from repro.dns.rr import RRType
from repro.reference import (
    DnsMessage,
    Question,
    a_record,
    aaaa_record,
    cname_record,
    decode_message,
    encode_message,
)
from repro.dns.validation import check_domain
from repro.util.errors import ParseError

_label = st.text(alphabet=string.ascii_lowercase + string.digits + "-_", min_size=1, max_size=20)
_name = st.lists(_label, min_size=1, max_size=5).map(".".join)
_ipv4 = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda n: ".".join(str((n >> s) & 0xFF) for s in (24, 16, 8, 0))
)
_ipv6_suffix = st.integers(min_value=0, max_value=2**32 - 1)
_ttl = st.integers(min_value=0, max_value=2**31 - 1)


@given(_name)
def test_name_round_trip(name):
    wire = encode_name(name)
    decoded, offset = decode_name(wire, 0)
    assert decoded == normalize_name(name)
    assert offset == len(wire)


@given(_name)
def test_normalize_idempotent(name):
    once = normalize_name(name)
    assert normalize_name(once) == once


@given(st.binary(max_size=64))
def test_decode_name_never_hangs_or_crashes(data):
    """Arbitrary bytes either decode or raise ParseError — nothing else."""
    try:
        decode_name(data, 0)
    except ParseError:
        pass


@given(st.binary(max_size=200))
def test_decode_message_never_crashes(data):
    try:
        decode_message(data)
    except ParseError:
        pass


@given(
    st.lists(
        st.tuples(_name, _ipv4, _ttl),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=50)
def test_message_round_trip_a_records(entries):
    msg = DnsMessage()
    msg.questions.append(Question(entries[0][0], RRType.A))
    for name, ip, ttl in entries:
        msg.answers.append(a_record(name, ip, ttl))
    decoded = decode_message(encode_message(msg))
    assert len(decoded.answers) == len(entries)
    for rr, (name, ip, ttl) in zip(decoded.answers, entries):
        assert rr.name == normalize_name(name)
        assert str(rr.rdata) == ip
        assert rr.ttl == ttl


@given(st.lists(st.tuples(_name, _name, _ttl), min_size=1, max_size=5))
@settings(max_examples=50)
def test_message_round_trip_cname_records(entries):
    msg = DnsMessage()
    for owner, target, ttl in entries:
        msg.answers.append(cname_record(owner, target, ttl))
    decoded = decode_message(encode_message(msg))
    for rr, (owner, target, _ttl) in zip(decoded.answers, entries):
        assert rr.rdata == normalize_name(target)


@given(_name, _ipv6_suffix, _ttl)
def test_aaaa_round_trip(name, suffix, ttl):
    address = f"2001:db8::{suffix & 0xFFFF:x}:{(suffix >> 16) & 0xFFFF:x}"
    msg = DnsMessage()
    msg.answers.append(aaaa_record(name, address, ttl))
    decoded = decode_message(encode_message(msg))
    assert decoded.answers[0].rdata.compressed == decoded.answers[0].rdata.compressed


@given(_name)
def test_check_domain_never_crashes(name):
    check_domain(name)  # must not raise for any printable name


@given(st.text(max_size=100))
def test_check_domain_handles_arbitrary_text(name):
    check_domain(name)
