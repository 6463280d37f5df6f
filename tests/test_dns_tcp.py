"""Tests for DNS-over-TCP framing (the paper's resolver→collector path)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.rr import RRType
from repro.reference import DnsMessage, Question, a_record, encode_message
from repro.dns.tcp import (
    MAX_MESSAGE_SIZE,
    TcpFrameDecoder,
    frame_message,
    frame_messages,
)
from repro.util.errors import ParseError


def _wire(name="x.example", ip="10.0.0.1"):
    msg = DnsMessage()
    msg.questions.append(Question(name, RRType.A))
    msg.answers.append(a_record(name, ip, 60))
    return encode_message(msg)


class TestFraming:
    def test_frame_prefixes_length(self):
        payload = b"hello"
        framed = frame_message(payload)
        assert framed == b"\x00\x05hello"

    def test_oversize_rejected(self):
        with pytest.raises(ParseError):
            frame_message(b"x" * 65536)

    def test_frame_messages_concatenates(self):
        stream = frame_messages([b"ab", b"cde"])
        assert stream == b"\x00\x02ab\x00\x03cde"


class TestDecoder:
    def test_whole_messages_in_one_chunk(self):
        wires = [_wire(f"h{i}.example", f"10.0.0.{i + 1}") for i in range(3)]
        decoder = TcpFrameDecoder()
        out = decoder.feed(frame_messages(wires))
        assert out == wires
        assert decoder.messages_out == 3
        assert decoder.pending_bytes == 0

    def test_byte_at_a_time(self):
        """A collector must survive arbitrarily mean chunk boundaries."""
        wires = [_wire("a.example"), _wire("b.example", "10.0.0.2")]
        stream = frame_messages(wires)
        decoder = TcpFrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == wires
        decoder.close()

    def test_split_inside_length_prefix(self):
        wire = _wire()
        stream = frame_message(wire)
        decoder = TcpFrameDecoder()
        assert decoder.feed(stream[:1]) == []
        assert decoder.feed(stream[1:]) == [wire]

    def test_zero_length_frame_skipped_but_counted(self):
        decoder = TcpFrameDecoder()
        wire = _wire()
        out = decoder.feed(b"\x00\x00" + frame_message(wire))
        assert out == [wire]
        # Not silently swallowed: the empty frame lands in a counter the
        # ingest layer surfaces as malformed input.
        assert decoder.empty_frames == 1
        assert decoder.messages_out == 1

    def test_zero_length_frame_split_across_feeds(self):
        decoder = TcpFrameDecoder()
        assert decoder.feed(b"\x00") == []
        assert decoder.feed(b"\x00") == []
        assert decoder.empty_frames == 1
        decoder.close()

    def test_truncated_close_raises(self):
        decoder = TcpFrameDecoder()
        decoder.feed(frame_message(_wire())[:5])
        with pytest.raises(ParseError):
            decoder.close()

    def test_clean_close_ok(self):
        decoder = TcpFrameDecoder()
        decoder.feed(frame_message(_wire()))
        decoder.close()


class TestDecoderProperty:
    """Randomized chunk boundaries: reassembly must be exact whatever the
    transport does — mid-length-prefix splits, 1-byte feeds, anything."""

    @given(
        payloads=st.lists(st.binary(min_size=0, max_size=120), min_size=1, max_size=12),
        cuts=st.lists(st.integers(min_value=0, max_value=2 ** 16), max_size=24),
    )
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_split_offsets(self, payloads, cuts):
        stream = frame_messages(payloads)
        offsets = sorted({min(c, len(stream)) for c in cuts} | {0, len(stream)})
        decoder = TcpFrameDecoder()
        out = []
        for start, end in zip(offsets, offsets[1:]):
            out.extend(decoder.feed(stream[start:end]))
        decoder.close()
        # Zero-length frames are legal but yield no message — and every
        # one is counted, whatever the chunk boundaries did to it.
        assert out == [p for p in payloads if p]
        assert decoder.messages_out == len(out)
        assert decoder.empty_frames == sum(1 for p in payloads if not p)
        assert decoder.pending_bytes == 0
        assert decoder.bytes_in == len(stream)

    @given(payloads=st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_one_byte_feeds(self, payloads):
        stream = frame_messages(payloads)
        decoder = TcpFrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        decoder.close()
        assert out == payloads

    @given(
        payloads=st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=6),
        trunc=st.integers(min_value=1, max_value=2 ** 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_truncated_tail_always_detected(self, payloads, trunc):
        stream = frame_messages(payloads)
        # Cut strictly inside the final frame (a cut on a frame boundary
        # is just a shorter, *valid* stream).
        last_frame = 2 + len(payloads[-1])
        trunc = 1 + (trunc - 1) % (last_frame - 1)
        decoder = TcpFrameDecoder()
        decoder.feed(stream[: len(stream) - trunc])
        with pytest.raises(ParseError):
            decoder.close()

    @given(
        cap=st.integers(min_value=1, max_value=512),
        over=st.integers(min_value=1, max_value=1024),
    )
    @settings(max_examples=60, deadline=None)
    def test_corruption_cap_raises(self, cap, over):
        """A frame claiming more than max_message_size bytes is stream
        corruption, raised as ParseError from feed()."""
        claimed = min(cap + over, MAX_MESSAGE_SIZE)
        if claimed <= cap:
            return
        decoder = TcpFrameDecoder(max_message_size=cap)
        with pytest.raises(ParseError, match="corrupt"):
            decoder.feed(claimed.to_bytes(2, "big"))

    def test_valid_messages_before_corruption_survive(self):
        """A chunk holding [valid frame][oversized prefix] must hand back
        the valid message — corruption is reported on the *next* feed or
        on close, never by discarding already-framed messages."""
        decoder = TcpFrameDecoder(max_message_size=16)
        good = b"hello"
        out = decoder.feed(frame_message(good) + (999).to_bytes(2, "big"))
        assert out == [good]
        assert decoder.messages_out == 1
        with pytest.raises(ParseError, match="corrupt"):
            decoder.feed(b"more")
        with pytest.raises(ParseError, match="corrupt"):
            decoder.close()

    def test_cap_boundary_accepts_exact_size(self):
        decoder = TcpFrameDecoder(max_message_size=8)
        payload = b"x" * 8
        assert decoder.feed(frame_message(payload)) == [payload]

    def test_default_cap_is_unreachable_by_wire_prefix(self):
        """The 16-bit length prefix cannot exceed the default cap, so the
        default decoder never rejects a legal stream."""
        decoder = TcpFrameDecoder()
        payload = b"y" * MAX_MESSAGE_SIZE
        assert decoder.feed(frame_message(payload)) == [payload]

    def test_invalid_cap_rejected(self):
        with pytest.raises(ParseError):
            TcpFrameDecoder(max_message_size=0)
        with pytest.raises(ParseError):
            TcpFrameDecoder(max_message_size=MAX_MESSAGE_SIZE + 1)


class TestEmptyFrameAccounting:
    """Zero-length frames must be counted under *any* chunking, and the
    ingest layer must surface them as malformed input — the silent-drop
    regression the chaos truncation profile exposed."""

    @given(
        payloads=st.lists(st.binary(min_size=0, max_size=60), min_size=1, max_size=10),
        cuts=st.lists(st.integers(min_value=0, max_value=2 ** 12), max_size=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_empty_frames_counted_under_arbitrary_splits(self, payloads, cuts):
        stream = frame_messages(payloads)
        offsets = sorted({min(c, len(stream)) for c in cuts} | {0, len(stream)})
        decoder = TcpFrameDecoder()
        for start, end in zip(offsets, offsets[1:]):
            decoder.feed(stream[start:end])
        decoder.close()
        assert decoder.empty_frames == sum(1 for p in payloads if not p)
        assert decoder.messages_out == sum(1 for p in payloads if p)

    def test_ingest_surfaces_empty_frames_as_malformed(self):
        from repro.core.ingest import TcpDnsIngest

        class FakeBuffer:
            def __init__(self):
                self.items = []

            def try_put(self, item):
                self.items.append(item)
                return True

        ingest = TcpDnsIngest(clock=lambda: 1.0)
        buffer = FakeBuffer()
        ingest.connect_buffer(buffer)
        decoder = TcpFrameDecoder()
        wire = _wire()
        assert ingest.feed_chunk(
            decoder, b"\x00\x00" + frame_message(wire) + b"\x00\x00"
        )
        assert ingest.ingest_stats.malformed == 2
        assert ingest.ingest_stats.received == 1
        assert ingest.ingest_stats.accepted == 1
        assert buffer.items == [(1.0, wire)]
