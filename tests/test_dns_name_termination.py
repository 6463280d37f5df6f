"""``decode_name`` always ends, and ends the same way with or without the
per-message cache.

The decoder keeps no visited set. It ends because a compression pointer
must target a strictly lower offset — so a run of pointers only descends —
and the only way back up is a label, which spends the 255-byte budget.
These cases build the inputs that would spin a careless decoder and count
the reads each one is allowed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.name import MAX_NAME_WIRE_LENGTH, decode_name
from repro.util.errors import ParseError


class _CountedWire:
    """Wire bytes that count how often the decoder reads them."""

    def __init__(self, data: bytes):
        self._data = data
        self.reads = 0

    def __len__(self):
        return len(self._data)

    def __getitem__(self, index):
        self.reads += 1
        return self._data[index]


def _read_limit(data: bytes) -> int:
    # Pointer hops each lower the position by at least one and labels
    # raise it by at most 254 in total, so a walk makes at most
    # len + 254 hops and 127 label steps, three reads apiece at most.
    return 3 * (len(data) + MAX_NAME_WIRE_LENGTH + 128)


def _decode_counted(data: bytes, offset: int, cache=None):
    wire = _CountedWire(data)
    try:
        return decode_name(wire, offset, cache), wire.reads
    except ParseError:
        return None, wire.reads


def _pointer(target: int) -> bytes:
    return bytes([0xC0 | (target >> 8), target & 0xFF])


def _label(raw: bytes) -> bytes:
    return bytes([len(raw)]) + raw


_LABELS = st.lists(st.binary(min_size=1, max_size=63), min_size=1, max_size=6)


class TestLoops:
    @given(labels=_LABELS, pad=st.integers(0, 40))
    def test_loop_through_labels_runs_out_of_budget(self, labels, pad):
        """labels, then a pointer back to the first of them: every lap
        spends the labels' bytes, so the 255-byte check ends it."""
        body = b"".join(_label(raw) for raw in labels)
        data = b"\x00" * pad + body + _pointer(pad)
        for cache in (None, {}):
            result, reads = _decode_counted(data, pad, cache)
            assert result is None
            assert reads <= _read_limit(data)

    @given(pad=st.integers(0, 60))
    def test_pointer_to_self_is_a_forward_pointer(self, pad):
        data = b"\x00" * pad + _pointer(pad)
        with pytest.raises(ParseError, match="forward"):
            decode_name(data, pad)

    @given(gap=st.integers(0, 30))
    def test_two_pointers_at_each_other(self, gap):
        """A cycle of bare pointers needs one of them to point up."""
        second = 2 + gap
        data = _pointer(second) + b"\x00" * gap + _pointer(0)
        for start in (0, second):
            result, reads = _decode_counted(data, start)
            assert result is None
            assert reads <= 6

    def test_longest_descending_pointer_run_is_linear(self):
        """A staircase of pointers, each to the one before: legal, and
        walked once."""
        steps = 2000
        data = b"\x00" + b"".join(_pointer(max(0, 2 * i - 1)) for i in range(steps))
        result, reads = _decode_counted(data, len(data) - 2)
        assert result == ((".", len(data)))
        assert reads <= 2 * steps + 2


class TestMalformed:
    @given(at=st.integers(0, 50), beyond=st.integers(0, 200))
    def test_forward_pointer(self, at, beyond):
        target = at + beyond
        data = b"\x01a" * 25 + b"\x00" * 200
        data = data[:at] + _pointer(target) + data[at + 2 :]
        with pytest.raises(ParseError, match="forward"):
            decode_name(data, at)

    @given(first=st.integers(0x40, 0xBF), rest=st.binary(max_size=8))
    def test_reserved_label_types(self, first, rest):
        with pytest.raises(ParseError, match="reserved"):
            decode_name(bytes([first]) + rest, 0)
        # ... also behind a label and behind a pointer.
        with pytest.raises(ParseError, match="reserved"):
            decode_name(b"\x01a" + bytes([first]) + rest, 0)
        with pytest.raises(ParseError, match="reserved"):
            decode_name(bytes([first]) + rest + _pointer(0), 1 + len(rest))

    @given(labels=_LABELS, cut=st.integers(0, 400))
    def test_truncation_anywhere(self, labels, cut):
        whole = b"".join(_label(raw) for raw in labels) + b"\x00"
        if len(whole) > MAX_NAME_WIRE_LENGTH:
            whole = _label(labels[0]) + b"\x00"
        cut = min(cut, len(whole) - 1)
        with pytest.raises(ParseError, match="truncated"):
            decode_name(whole[:cut], 0)
        with pytest.raises(ParseError, match="truncated compression pointer"):
            decode_name(whole[:-1] + b"\xc0", 0)


class TestWireLimitOnCachedTails:
    @given(head=st.integers(1, 63), tail_labels=st.integers(1, 4), slack=st.integers(-3, 3))
    def test_limit_is_exact_when_the_tail_comes_from_the_cache(self, head, tail_labels, slack):
        """A head label spliced onto a cached suffix is accepted at 255
        encoded bytes and refused at 256 — with the cache primed, with it
        cold, and without one."""
        # Size the tail so that head + tail is 255 + slack bytes on the wire.
        tail_wire = MAX_NAME_WIRE_LENGTH + slack - (1 + head)
        sizes = [63] * (tail_labels - 1)
        last = tail_wire - 1 - sum(1 + s for s in sizes) - 1
        if not 1 <= last <= 63 or tail_wire > MAX_NAME_WIRE_LENGTH:
            return
        sizes.append(last)
        tail = b"".join(_label(b"t" * s) for s in sizes) + b"\x00"
        assert len(tail) == tail_wire
        second = len(tail)
        data = tail + _label(b"h" * head) + _pointer(0)
        primed = {}
        decode_name(data, 0, primed)
        outcomes = []
        for cache in (primed, {}, None):
            try:
                outcomes.append(decode_name(data, second, cache))
            except ParseError:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert (outcomes[0] is not None) == (slack <= 0)


class TestAnyBytes:
    @given(data=st.binary(max_size=300), starts=st.lists(st.integers(0, 300), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_ends_within_bound_and_cache_changes_nothing(self, data, starts):
        """Arbitrary bytes, arbitrary start offsets: a name or a
        ParseError, never more reads than the bound, and one shared cache
        across the offsets gives what no cache gives."""
        shared = {}
        for start in starts:
            plain, reads = _decode_counted(data, start)
            assert reads <= _read_limit(data)
            cached, reads = _decode_counted(data, start, shared)
            assert reads <= _read_limit(data)
            assert cached == plain
