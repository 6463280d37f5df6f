"""Replay captured wire bytes into the live engine.

A :class:`ReplaySource` is a plain iterable over one lane of a capture,
yielding exactly the item shapes the engine's lanes normalise natively:

* ``flow`` lane → raw export datagram ``bytes`` (the engine's
  per-stream :class:`~repro.netflow.collector.FlowCollector` re-decodes
  them, template state and malformed counting included);
* ``dns`` lane → ``(ts, wire_bytes)`` tuples, carrying the *captured*
  arrival timestamp so the fill lane stores records at the same times
  the original session did.

Two speeds:

* **max speed** (default) — yield as fast as the consumer pulls; the
  deterministic differential-testing mode;
* **timestamp-faithful** (``realtime=True``) — every item carries its
  recorded inter-arrival gap (scaled by ``speed``) for the consumer to
  wait out, so bursts land on the engine's bounded buffers as bursts
  and reproduce the original buffer-overflow loss instead of being
  smoothed away by backpressure.

The pacing is computed once, by :meth:`ReplaySource.paced`, as ``(delay,
item)`` pairs, and waiting is the consumer's job: the asyncio engine's
pump awaits ``asyncio.sleep(delay)``, so a gap never stalls its event
loop. Plain iteration yields the items without waiting.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple, Union

from repro.core.metrics import IngestStats
from repro.replay.capture import LANE_DNS, LANE_FLOW, LANES, CaptureFrame, read_capture
from repro.util.errors import ConfigError

CaptureLike = Union[str, Iterable[CaptureFrame]]


def _frames(capture: CaptureLike, lane: str) -> Iterator[CaptureFrame]:
    """``lane``'s frames: filtered in the reader for a file (the other
    lane's payloads are never copied out), here for frames in memory."""
    if isinstance(capture, str):
        return read_capture(capture, lane=lane)
    return (frame for frame in capture if frame.lane == lane)


class ReplaySource:
    """One lane of a capture as an engine stream source.

    ``capture`` is a file path (re-read lazily on every iteration, so
    one source object can feed several engine runs) or an in-memory
    frame iterable (list/tuple re-iterate too; a one-shot generator
    supports a single run).
    """

    def __init__(
        self,
        capture: CaptureLike,
        lane: str,
        realtime: bool = False,
        speed: float = 1.0,
        capture_tee=None,
    ):
        if lane not in LANES:
            raise ConfigError(f"unknown replay lane {lane!r}; known: {LANES}")
        if speed <= 0:
            raise ConfigError("replay speed must be positive")
        self._capture = capture
        self.lane = lane
        self.realtime = realtime
        self.speed = speed
        #: Items yielded by the most recent iteration.
        self.items_replayed = 0
        #: Ingest-source protocol: a replayed frame is by definition both
        #: received and accepted (nothing between file and engine drops).
        self.ingest_stats = IngestStats(name=f"replay[{lane}]")
        #: Optional CaptureWriter tee — re-recording a replay (protocol
        #: parity with the live sources; useful for capture round-trips).
        self.capture = capture_tee

    def close(self) -> None:
        """Ingest-source protocol close(); nothing to release (no-op)."""

    def __iter__(self) -> Iterator:
        return (item for _delay, item in self.paced())

    def paced(self) -> Iterator[Tuple[float, object]]:
        """This lane's items as ``(delay, item)`` pairs.

        ``delay`` is the seconds to wait before offering ``item``: the
        recorded gap to the previous frame divided by ``speed`` when
        ``realtime``, else 0. The consumer does the waiting.
        """
        dns = self.lane == LANE_DNS
        realtime = self.realtime
        prev_ts = None
        stats = self.ingest_stats
        tee = self.capture
        self.items_replayed = 0
        # Per-run counters, like items_replayed (one source object can
        # feed several engine runs); the object identity is kept because
        # collect_ingest reads the attribute after the run.
        stats.received = stats.accepted = stats.dropped = 0
        stats.malformed = stats.bytes_in = 0
        for frame in _frames(self._capture, self.lane):
            delay = 0.0
            if realtime:
                if prev_ts is not None:
                    # Clamp: mixed-clock captures may interleave lanes
                    # non-monotonically; a negative gap is just "no wait".
                    delay = max(0.0, (frame.ts - prev_ts) / self.speed)
                prev_ts = frame.ts
            self.items_replayed += 1
            stats.received += 1
            stats.accepted += 1
            stats.bytes_in += len(frame.payload)
            if tee is not None:
                if dns:
                    tee.record_dns(frame.payload, ts=frame.ts)
                else:
                    tee.record_flow(frame.payload, ts=frame.ts)
            yield delay, ((frame.ts, frame.payload) if dns else frame.payload)


def replay_sources(
    capture: CaptureLike,
    realtime: bool = False,
    speed: float = 1.0,
) -> Tuple[List[ReplaySource], List[ReplaySource]]:
    """Both lanes of a capture as ``(dns_sources, flow_sources)``.

    Always returns one source per lane — a lane absent from the capture
    simply yields nothing, which every engine treats as an empty stream.

    A one-shot iterator (a generator, ``read_capture(path)``) is
    materialized first: the two lanes iterate independently, and letting
    them race-split a shared iterator would silently hand each lane only
    the frames the other happened not to consume.

    For a path capture each lane streams the file independently (two
    reads, two decodes). That is deliberate, not an oversight: the
    engines drain the lanes on *their* schedule — ``dns_first=True``
    pulls nothing from the flow lane until the DNS lane has fully
    drained — so a shared single pass would have to buffer one lane's
    entire frame set in memory anyway. Two O(1)-memory streams beat one
    whole-file buffer; callers that already hold frames in memory pass
    the list and pay a single decode.
    """
    if not isinstance(capture, str) and iter(capture) is capture:
        capture = list(capture)
    return (
        [ReplaySource(capture, LANE_DNS, realtime=realtime, speed=speed)],
        [ReplaySource(capture, LANE_FLOW, realtime=realtime, speed=speed)],
    )
