"""The per-batch name table changes no decoded name.

``decode_name`` with a ``names`` table first looks up the bytes from the
start offset to the next zero byte, then on a miss walks the labels and
pointers and files the name under its uncompressed wire form. One table
shared by every message of a batch must give, for every start offset,
what a fresh table gives: the same name, the same ``next_offset``, or
the same ``ParseError``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dns.name import MAX_NAME_WIRE_LENGTH, decode_name
from repro.util.errors import ParseError

#: Labels that make the lookup's edge cases: a zero byte and a pointer
#: byte inside a label, one name in two cases, a label that ends in a dot
#: (the spelled name then ends in one, which normalising drops), and
#: long labels for names near the 255-byte limit.
_LABELS = st.one_of(
    st.sampled_from([
        b"www", b"WWW", b"example", b"EXAMPLE", b"com", b"com.", b"cdn",
        b"a\x00b", b"\x00", b"\xc0\x0c", b"\xff", b"a" * 63, b"b" * 61,
    ]),
    st.binary(min_size=1, max_size=63),
)


def _label(raw: bytes) -> bytes:
    return bytes([len(raw)]) + raw


def _pointer(target: int) -> bytes:
    return bytes([0xC0 | (target >> 8), target & 0xFF])


@st.composite
def _messages(draw):
    """A message body of names: inline, labels then a pointer to an
    earlier name, or a bare pointer; plus every name's start offset."""
    data = bytearray(draw(st.binary(max_size=4)))
    starts = []
    for _ in range(draw(st.integers(1, 6))):
        labels = draw(st.lists(_LABELS, max_size=5))
        start = len(data)
        body = b"".join(_label(raw) for raw in labels)
        how = draw(st.sampled_from(["inline", "pointer", "bare"])) if starts else "inline"
        if how == "inline":
            data += body + b"\x00"
        else:
            target = draw(st.sampled_from(starts))
            data += (body if how == "pointer" else b"") + _pointer(target)
        starts.append(start)
    return bytes(data), starts


def _outcome(data, offset, cache, names):
    try:
        return decode_name(data, offset, cache, names)
    except ParseError as exc:
        return str(exc)


@given(batch=st.lists(_messages(), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
@example(batch=[
    # One name inline, then reached through a pointer, then spelled in
    # upper case and with a trailing dot in its last label.
    (_label(b"www") + _label(b"example") + b"\x00" + _pointer(0), [0, 13]),
    (_label(b"WWW") + _label(b"Example") + _label(b"com.") + b"\x00", [0]),
    # A key that is a prefix of a longer name, and a suffix of another.
    (_label(b"example") + _label(b"com") + b"\x00"
     + _label(b"example") + _label(b"com") + _label(b"cdn") + b"\x00"
     + _label(b"www") + _pointer(0), [0, 13, 30]),
    # A zero byte inside a label: the lookup stops short and misses.
    (_label(b"a\x00b") + b"\x00" + _label(b"a") + b"\x00", [0, 5]),
])
def test_shared_table_equals_fresh_table(batch):
    shared = {}
    for data, starts in batch:
        cache = {}
        for offset in starts + [len(data) // 2, len(data)]:
            fresh = _outcome(data, offset, None, {})
            assert _outcome(data, offset, cache, shared) == fresh
            assert _outcome(data, offset, None, None) == fresh
    # Every key is a whole uncompressed name that decodes to its value.
    for wire, name in shared.items():
        assert decode_name(wire, 0) == (name, len(wire))


@pytest.mark.parametrize("first", [0x40, 0x80, 0xC0])
def test_a_length_byte_of_0x40_or_more_is_never_a_label(first):
    """The bytes to the next zero start with a reserved label type or a
    pointer whose value, read as a label length, lands exactly on that
    zero: still not a name, and decoded (or refused) as the walk does."""
    pad = b"\x00" * 0x40
    data = pad + bytes([first]) + b"\x01" * first + b"\x00"
    assert _outcome(data, len(pad), {}, {}) == _outcome(data, len(pad), None, None)


def _wire(last: int) -> bytes:
    """An uncompressed name of 63 + 63 + 63 + ``last`` label bytes:
    ``last + 194`` wire bytes."""
    return b"".join(_label(raw) for raw in (b"a" * 63, b"b" * 63, b"c" * 63, b"d" * last)) + b"\x00"


@pytest.mark.parametrize("primed", [False, True])
@pytest.mark.parametrize("size", [MAX_NAME_WIRE_LENGTH, MAX_NAME_WIRE_LENGTH + 1])
def test_limit_holds_with_the_table_primed(size, primed):
    """255 wire bytes decode and 256 do not, inline or as a head label
    spliced onto a cached tail, whether or not the table already holds
    the 255-byte name."""
    names = {}
    if primed:
        decode_name(_wire(61), 0, {}, names)
    inline = _wire(size - 194)
    tail = _wire(size - 196)
    spliced = tail + _label(b"x") + _pointer(0)
    cache = {}
    decode_name(spliced, 0, cache, names)
    for data, offset, table_cache in ((inline, 0, {}), (spliced, len(tail), cache)):
        if size == MAX_NAME_WIRE_LENGTH:
            name, next_offset = decode_name(data, offset, table_cache, names)
            assert (name, next_offset) == decode_name(data, offset)
            assert len(name) == size - 2
        else:
            with pytest.raises(ParseError, match="255"):
                decode_name(data, offset, table_cache, names)
