"""Tests for the capture format and replay sources.

The :class:`CaptureDecoder` suite mirrors ``tests/test_dns_tcp.py``'s
:class:`TcpFrameDecoder` contract — randomized chunk boundaries, 1-byte
feeds, truncated tails that surface *after* every cleanly-framed item —
because the capture reader makes the same promise: nothing the transport
or filesystem does to the byte stream may change what comes out.
"""

import asyncio
import io
import pathlib
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replay.capture import (
    LANE_DNS,
    LANE_FLOW,
    LANES,
    MAGIC,
    MAX_FRAME_PAYLOAD,
    CaptureDecoder,
    CaptureFrame,
    CaptureWriter,
    encode_frame,
    load_capture,
    read_capture,
    write_capture,
)
from repro.core.async_engine import AsyncEngine
from repro.core.config import EngineConfig, FlowDNSConfig
from repro.core.invariants import assert_invariants
from repro.dns.rr import RRType, a_record
from repro.dns.wire import DnsMessage, Question, encode_message
from repro.replay.runner import replay_capture
from repro.replay.source import ReplaySource, replay_sources
from repro.util.errors import ConfigError, ParseError

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden"

#: Finite doubles only: the !d encoding round-trips every finite float
#: exactly, and a NaN timestamp would break frame equality.
_TS = st.floats(allow_nan=False, allow_infinity=False, width=64)

_FRAMES = st.lists(
    st.builds(
        CaptureFrame,
        ts=_TS,
        lane=st.sampled_from(LANES),
        payload=st.binary(min_size=0, max_size=120),
    ),
    min_size=1,
    max_size=12,
)


def _stream(frames):
    return MAGIC + b"".join(encode_frame(f) for f in frames)


class TestFrameValidation:
    def test_unknown_lane_rejected(self):
        with pytest.raises(ParseError):
            CaptureFrame(1.0, "carrier-pigeon", b"x")

    def test_oversized_payload_rejected(self):
        with pytest.raises(ParseError):
            CaptureFrame(1.0, LANE_FLOW, b"x" * (MAX_FRAME_PAYLOAD + 1))


class TestDecoder:
    def test_whole_stream_in_one_chunk(self):
        frames = [
            CaptureFrame(1.5, LANE_FLOW, b"datagram"),
            CaptureFrame(2.5, LANE_DNS, b"message"),
        ]
        decoder = CaptureDecoder()
        assert decoder.feed(_stream(frames)) == frames
        assert decoder.frames_out == 2
        assert decoder.pending_bytes == 0
        decoder.close()

    def test_split_inside_magic(self):
        frames = [CaptureFrame(0.0, LANE_DNS, b"m")]
        stream = _stream(frames)
        decoder = CaptureDecoder()
        assert decoder.feed(stream[:3]) == []
        assert decoder.feed(stream[3:]) == frames

    def test_bad_magic_raises_immediately(self):
        decoder = CaptureDecoder()
        with pytest.raises(ParseError, match="magic"):
            decoder.feed(b"NOTACAP\x01rest")

    def test_bad_magic_detected_from_first_divergent_byte(self):
        """A wrong prefix fails as soon as it diverges — the decoder does
        not wait for all eight magic bytes."""
        decoder = CaptureDecoder()
        with pytest.raises(ParseError, match="magic"):
            decoder.feed(b"X")

    def test_unknown_lane_tag_is_corruption(self):
        decoder = CaptureDecoder()
        decoder.feed(MAGIC)
        with pytest.raises(ParseError, match="lane"):
            decoder.feed(b"\x7f" + b"\x00" * 12)

    def test_oversized_length_claim_is_corruption(self):
        decoder = CaptureDecoder()
        decoder.feed(MAGIC)
        bad = bytes([1]) + b"\x00" * 8 + (MAX_FRAME_PAYLOAD + 1).to_bytes(4, "big")
        with pytest.raises(ParseError, match="cap"):
            decoder.feed(bad)

    def test_frames_before_corruption_survive(self):
        """[valid frame][corrupt tag] in one chunk hands back the valid
        frame; the raise is deferred to the next feed or close."""
        good = CaptureFrame(3.0, LANE_FLOW, b"ok")
        decoder = CaptureDecoder()
        out = decoder.feed(_stream([good]) + b"\x7f garbage....")
        assert out == [good]
        with pytest.raises(ParseError):
            decoder.feed(b"")
        with pytest.raises(ParseError):
            decoder.close()

    def test_empty_close_raises(self):
        with pytest.raises(ParseError, match="empty"):
            CaptureDecoder().close()

    def test_close_inside_magic_raises(self):
        decoder = CaptureDecoder()
        decoder.feed(MAGIC[:4])
        with pytest.raises(ParseError, match="magic"):
            decoder.close()


class TestZeroLengthPayloads:
    """Zero-length payloads are legal frames (truncation faults produce
    them); the codec and the replay sources must carry them losslessly."""

    def test_explicit_round_trip(self, tmp_path):
        frames = [
            CaptureFrame(1.0, LANE_DNS, b""),
            CaptureFrame(2.0, LANE_FLOW, b""),
            CaptureFrame(3.0, LANE_FLOW, b"data"),
        ]
        path = str(tmp_path / "empty.fdc")
        write_capture(path, frames)
        assert load_capture(path) == frames
        dns_sources, flow_sources = replay_sources(frames)
        assert list(dns_sources[0]) == [(1.0, b"")]
        assert list(flow_sources[0]) == [b"", b"data"]

    @given(
        frames=_FRAMES,
        empties=st.lists(
            st.tuples(_TS, st.sampled_from(LANES)), min_size=1, max_size=4
        ),
        cuts=st.lists(st.integers(0, 2 ** 12), max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_decoder_handles_guaranteed_empties_under_splits(
        self, frames, empties, cuts
    ):
        frames = list(frames) + [
            CaptureFrame(ts, lane, b"") for ts, lane in empties
        ]
        stream = _stream(frames)
        offsets = sorted({min(c, len(stream)) for c in cuts} | {0, len(stream)})
        decoder = CaptureDecoder()
        out = []
        for start, end in zip(offsets, offsets[1:]):
            out.extend(decoder.feed(stream[start:end]))
        decoder.close()
        assert out == frames
        assert decoder.frames_out == len(frames)


class TestDecoderProperty:
    @given(frames=_FRAMES, cuts=st.lists(st.integers(0, 2 ** 16), max_size=24))
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_split_offsets(self, frames, cuts):
        """Reassembly is exact under any chunking — mid-magic, mid-header,
        mid-payload, anything."""
        stream = _stream(frames)
        offsets = sorted({min(c, len(stream)) for c in cuts} | {0, len(stream)})
        decoder = CaptureDecoder()
        out = []
        for start, end in zip(offsets, offsets[1:]):
            out.extend(decoder.feed(stream[start:end]))
        decoder.close()
        assert out == frames
        assert decoder.frames_out == len(frames)
        assert decoder.pending_bytes == 0
        assert decoder.bytes_in == len(stream)

    @given(frames=_FRAMES)
    @settings(max_examples=40, deadline=None)
    def test_one_byte_feeds(self, frames):
        stream = _stream(frames)
        decoder = CaptureDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        decoder.close()
        assert out == frames

    @given(frames=_FRAMES, trunc=st.integers(min_value=1, max_value=2 ** 12))
    @settings(max_examples=60, deadline=None)
    def test_truncated_tail_detected_without_losing_framed_items(
        self, frames, trunc
    ):
        """Cut strictly inside the final frame: every earlier frame still
        comes out of feed(); only close() raises."""
        stream = _stream(frames)
        last_frame = 13 + len(frames[-1].payload)
        trunc = 1 + (trunc - 1) % (last_frame - 1)
        decoder = CaptureDecoder()
        out = decoder.feed(stream[: len(stream) - trunc])
        assert out == frames[:-1]
        with pytest.raises(ParseError):
            decoder.close()

    @given(frames=_FRAMES)
    @settings(max_examples=40, deadline=None)
    def test_file_round_trip(self, frames, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("cap") / "roundtrip.fdc")
        assert write_capture(path, frames) == len(frames)
        assert load_capture(path) == frames


class TestLaneFilter:
    """A decoder told which lane it serves frames the other lane without
    copying it out — same checks at the same bytes, fewer frames."""

    @given(frames=_FRAMES, lane=st.sampled_from(LANES),
           cuts=st.lists(st.integers(0, 2 ** 12), max_size=24))
    @settings(max_examples=120, deadline=None)
    def test_filter_under_arbitrary_split_offsets(self, frames, lane, cuts):
        stream = _stream(frames)
        offsets = sorted({min(c, len(stream)) for c in cuts} | {0, len(stream)})
        decoder = CaptureDecoder(lane)
        out = []
        for start, end in zip(offsets, offsets[1:]):
            out.extend(decoder.feed(stream[start:end]))
        decoder.close()
        wanted = [f for f in frames if f.lane == lane]
        assert out == wanted
        assert decoder.frames_out == len(wanted)
        assert decoder.frames_skipped == len(frames) - len(wanted)
        # Skipped frames are consumed all the same.
        assert decoder.bytes_in == len(stream)
        assert decoder.pending_bytes == 0

    def test_unknown_lane_rejected(self):
        with pytest.raises(ParseError, match="lane"):
            CaptureDecoder("carrier-pigeon")

    def test_corrupt_header_after_skipped_frames_still_raises(self):
        skipped = CaptureFrame(1.0, LANE_FLOW, b"not wanted")
        decoder = CaptureDecoder(LANE_DNS)
        with pytest.raises(ParseError, match="lane"):
            decoder.feed(_stream([skipped]) + b"\x7f garbage....")
        assert decoder.frames_skipped == 1

    def test_oversized_claim_on_the_other_lane_is_corruption(self):
        decoder = CaptureDecoder(LANE_DNS)
        decoder.feed(MAGIC)
        bad = bytes([1]) + b"\x00" * 8 + (MAX_FRAME_PAYLOAD + 1).to_bytes(4, "big")
        with pytest.raises(ParseError, match="cap"):
            decoder.feed(bad)

    @given(frames=_FRAMES, trunc=st.integers(min_value=1, max_value=2 ** 12))
    @settings(max_examples=60, deadline=None)
    def test_truncated_tail_detected_whichever_lane_it_is(self, frames, trunc):
        stream = _stream(frames)
        last_frame = 13 + len(frames[-1].payload)
        trunc = 1 + (trunc - 1) % (last_frame - 1)
        for lane in LANES:
            decoder = CaptureDecoder(lane)
            out = decoder.feed(stream[: len(stream) - trunc])
            assert out == [f for f in frames[:-1] if f.lane == lane]
            with pytest.raises(ParseError, match="mid-frame"):
                decoder.close()

    def test_read_capture_and_replay_source_filter_a_file(self, tmp_path):
        frames = [
            CaptureFrame(1.0, LANE_FLOW, b"first"),
            CaptureFrame(2.0, LANE_DNS, b"second"),
            CaptureFrame(3.0, LANE_FLOW, b"third"),
        ]
        path = str(tmp_path / "lanes.fdc")
        write_capture(path, frames)
        assert list(read_capture(path, lane=LANE_DNS)) == [frames[1]]
        assert list(read_capture(path, chunk_size=5, lane=LANE_FLOW)) == [frames[0], frames[2]]
        flow = ReplaySource(path, LANE_FLOW)
        assert list(flow) == [b"first", b"third"]
        assert flow.ingest_stats.received == 2
        assert flow.ingest_stats.bytes_in == len(b"first") + len(b"third")
        assert list(ReplaySource(path, LANE_DNS)) == [(2.0, b"second")]

    def test_truncated_file_fails_a_lane_that_skips_the_damage(self, tmp_path):
        """The damaged frame belongs to the flow lane; the DNS lane's
        reader still reports the file as truncated."""
        frames = [
            CaptureFrame(1.0, LANE_DNS, b"kept"),
            CaptureFrame(2.0, LANE_FLOW, b"lost-tail"),
        ]
        path = tmp_path / "trunc.fdc"
        path.write_bytes(_stream(frames)[:-4])
        reader = read_capture(str(path), lane=LANE_DNS)
        assert next(reader) == frames[0]
        with pytest.raises(ParseError, match="mid-frame"):
            next(reader)


class TestReadCapture:
    def test_truncated_file_yields_clean_frames_then_raises(self, tmp_path):
        frames = [
            CaptureFrame(1.0, LANE_FLOW, b"first"),
            CaptureFrame(2.0, LANE_DNS, b"second"),
            CaptureFrame(3.0, LANE_FLOW, b"lost-tail"),
        ]
        path = tmp_path / "trunc.fdc"
        path.write_bytes(_stream(frames)[:-4])
        reader = read_capture(str(path), chunk_size=7)
        assert next(reader) == frames[0]
        assert next(reader) == frames[1]
        with pytest.raises(ParseError):
            next(reader)

    def test_not_a_capture_file(self, tmp_path):
        path = tmp_path / "nope.fdc"
        path.write_bytes(b"definitely not a capture")
        with pytest.raises(ParseError, match="magic"):
            list(read_capture(str(path)))


class TestCaptureWriter:
    def test_path_target_round_trip(self, tmp_path):
        path = str(tmp_path / "w.fdc")
        with CaptureWriter(path) as writer:
            writer.record_flow(b"dgram", ts=1.0)
            writer.record_dns(b"msg", ts=2.0)
        assert writer.frames_written == 2
        assert load_capture(path) == [
            CaptureFrame(1.0, LANE_FLOW, b"dgram"),
            CaptureFrame(2.0, LANE_DNS, b"msg"),
        ]

    def test_file_object_target_left_open(self):
        sink = io.BytesIO()
        writer = CaptureWriter(sink)
        writer.record_flow(b"x", ts=0.5)
        writer.close()
        assert not sink.closed
        decoder = CaptureDecoder()
        frames = decoder.feed(sink.getvalue())
        decoder.close()
        assert frames == [CaptureFrame(0.5, LANE_FLOW, b"x")]

    def test_clock_stamp_when_ts_omitted(self):
        ticks = iter([10.0, 11.5])

        class FakeClock:
            def now(self):
                return next(ticks)

        sink = io.BytesIO()
        writer = CaptureWriter(sink, clock=FakeClock())
        writer.record_flow(b"a")
        writer.record_dns(b"b")
        decoder = CaptureDecoder()
        frames = decoder.feed(sink.getvalue())
        assert [f.ts for f in frames] == [10.0, 11.5]

    def test_path_target_opens_lazily(self, tmp_path):
        """A path target must not be touched until the first frame (or an
        explicit ensure_open) — a session that dies before receiving
        anything leaves prior data at that path intact."""
        path = tmp_path / "precious.fdc"
        path.write_bytes(b"prior contents")
        writer = CaptureWriter(str(path))
        writer.close()
        assert path.read_bytes() == b"prior contents"

    def test_ensure_open_materializes_valid_empty_capture(self, tmp_path):
        path = str(tmp_path / "empty.fdc")
        writer = CaptureWriter(path)
        writer.ensure_open()
        writer.close()
        assert load_capture(path) == []

    def test_record_after_close_is_noop(self, tmp_path):
        path = str(tmp_path / "closed.fdc")
        writer = CaptureWriter(path)
        writer.record_flow(b"kept", ts=1.0)
        writer.close()
        writer.record_flow(b"dropped", ts=2.0)
        writer.close()  # double-close is fine too
        assert [f.payload for f in load_capture(path)] == [b"kept"]

    def test_concurrent_writers_interleave_whole_frames(self, tmp_path):
        """Two threads tee into one writer (one flow tap, one DNS tap);
        every frame must land intact."""
        path = str(tmp_path / "mt.fdc")
        writer = CaptureWriter(path)

        def pump(lane, payload):
            for i in range(200):
                writer.record(lane, payload + i.to_bytes(2, "big"))

        threads = [
            threading.Thread(target=pump, args=(LANE_FLOW, b"flow")),
            threading.Thread(target=pump, args=(LANE_DNS, b"dns")),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        writer.close()
        frames = load_capture(path)
        assert len(frames) == 400
        by_lane = {LANE_FLOW: [], LANE_DNS: []}
        for frame in frames:
            by_lane[frame.lane].append(frame.payload)
        # Per-lane order is each thread's program order.
        assert by_lane[LANE_FLOW] == [b"flow" + i.to_bytes(2, "big") for i in range(200)]
        assert by_lane[LANE_DNS] == [b"dns" + i.to_bytes(2, "big") for i in range(200)]


class TestReplaySource:
    FRAMES = [
        CaptureFrame(1.0, LANE_DNS, b"d0"),
        CaptureFrame(1.5, LANE_FLOW, b"f0"),
        CaptureFrame(2.0, LANE_DNS, b"d1"),
        CaptureFrame(4.0, LANE_FLOW, b"f1"),
    ]

    def test_lane_filtering_and_item_shapes(self):
        dns = list(ReplaySource(self.FRAMES, LANE_DNS))
        flow = list(ReplaySource(self.FRAMES, LANE_FLOW))
        assert dns == [(1.0, b"d0"), (2.0, b"d1")]
        assert flow == [b"f0", b"f1"]

    def test_reiteration_and_counter(self):
        source = ReplaySource(self.FRAMES, LANE_FLOW)
        assert len(list(source)) == 2
        assert source.items_replayed == 2
        assert len(list(source)) == 2  # list re-iterates

    @staticmethod
    def _delays(source):
        return [delay for delay, _item in source.paced()]

    def test_max_speed_never_sleeps(self):
        source = ReplaySource(self.FRAMES, LANE_FLOW)
        assert self._delays(source) == [0.0, 0.0]

    def test_realtime_sleeps_out_recorded_gaps(self):
        source = ReplaySource(self.FRAMES, LANE_FLOW, realtime=True)
        # First item is due immediately; then the 1.5→4.0 gap.
        assert self._delays(source) == [0.0, 2.5]

    def test_realtime_speed_scales_gaps(self):
        source = ReplaySource(self.FRAMES, LANE_FLOW, realtime=True, speed=2.0)
        assert self._delays(source) == [0.0, 1.25]

    def test_realtime_negative_gap_clamped(self):
        """Mixed-clock captures can interleave non-monotonic stamps; a
        negative gap means 'no wait', never a negative sleep."""
        frames = [
            CaptureFrame(5.0, LANE_FLOW, b"late"),
            CaptureFrame(1.0, LANE_FLOW, b"early"),
            CaptureFrame(1.0, LANE_FLOW, b"same"),
        ]
        source = ReplaySource(frames, LANE_FLOW, realtime=True)
        assert self._delays(source) == [0.0, 0.0, 0.0]

    def test_paced_pairs_carry_the_delays(self):
        """paced() is the one pacing computation: the async pump awaits
        its delays; plain iteration yields the same items unpaced."""
        realtime = ReplaySource(self.FRAMES, LANE_FLOW, realtime=True, speed=2.0)
        assert list(realtime.paced()) == [(0.0, b"f0"), (1.25, b"f1")]
        assert list(realtime) == [b"f0", b"f1"]
        max_speed = ReplaySource(self.FRAMES, LANE_DNS)
        assert list(max_speed.paced()) == [(0.0, (1.0, b"d0")), (0.0, (2.0, b"d1"))]

    def test_unknown_lane_rejected(self):
        with pytest.raises(ConfigError):
            ReplaySource(self.FRAMES, "telepathy")

    def test_bad_speed_rejected(self):
        with pytest.raises(ConfigError):
            ReplaySource(self.FRAMES, LANE_FLOW, speed=0.0)

    def test_replay_sources_covers_both_lanes(self, tmp_path):
        path = str(tmp_path / "both.fdc")
        write_capture(path, self.FRAMES)
        (dns_sources, flow_sources) = replay_sources(path)
        assert [list(s) for s in dns_sources] == [[(1.0, b"d0"), (2.0, b"d1")]]
        assert [list(s) for s in flow_sources] == [[b"f0", b"f1"]]

    def test_replay_sources_materializes_one_shot_iterators(self):
        """Two lanes iterate independently; a shared generator must not
        be race-split between them (each lane would silently see only
        the frames the other skipped)."""
        (dns_sources, flow_sources) = replay_sources(iter(self.FRAMES))
        assert list(dns_sources[0]) == [(1.0, b"d0"), (2.0, b"d1")]
        assert list(flow_sources[0]) == [b"f0", b"f1"]


def _a_wire(name, ip):
    msg = DnsMessage()
    msg.questions.append(Question(name, RRType.A))
    msg.answers.append(a_record(name, ip, 300))
    return encode_message(msg)


class TestRealtimeAsyncReplay:
    """``--realtime`` through the async engine paces in the pump task."""

    def test_loop_not_blocked_during_recorded_gap(self):
        """While the pump waits out a recorded gap, the rest of the loop
        runs: the fill lane stores the first DNS frame before the second
        one is due."""
        gap = 0.4
        frames = [
            CaptureFrame(0.0, LANE_DNS, _a_wire("first.example", "10.0.0.1")),
            CaptureFrame(gap, LANE_DNS, _a_wire("second.example", "10.0.0.2")),
        ]
        dns_sources, flow_sources = replay_sources(frames, realtime=True)
        engine = AsyncEngine(FlowDNSConfig())

        async def first_record_seen_after():
            loop = asyncio.get_running_loop()
            start = loop.time()
            run = loop.create_task(
                engine.run_async(dns_sources, flow_sources, dns_first=True)
            )
            seen = None
            while not run.done():
                if seen is None and engine.dns_records_seen > 0:
                    seen = loop.time() - start
                await asyncio.sleep(0.005)
            report = await run
            assert report.dns_records == 2
            return seen

        seen = asyncio.run(first_record_seen_after())
        assert seen is not None and seen < gap

    def test_burst_overflow_dropped_and_counted_deterministically(self):
        """The golden ``bursts`` capture replayed realtime: its 12-datagram
        zero-gap burst lands back to back on a 4-slot ingress buffer and
        overflows, while the steady gaps (5 ms at speed 50) leave time to
        drain. The loss is the same on every run, visible, and accounted."""
        path = str(GOLDEN_DIR / "bursts.fdc")
        config = EngineConfig(
            flowdns=FlowDNSConfig(stream_buffer_capacity=4),
            realtime=True,
            speed=50.0,
        )
        rates = set()
        for _ in range(5):
            sink = io.StringIO()
            report = replay_capture(path, config=config, sink=sink)
            rows = sum(
                1 for line in sink.getvalue().splitlines()
                if line and not line.startswith("#")
            )
            assert report.overall_loss_rate > 0
            assert any("buffers overflowed" in w for w in report.warnings)
            assert_invariants(report, rows=rows)
            assert rows == report.flow_records
            rates.add(report.overall_loss_rate)
        assert len(rates) == 1, rates
