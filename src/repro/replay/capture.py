"""The on-disk capture format: length-framed wire bytes per lane.

A capture is a durable recording of everything a FlowDNS collector saw
on the wire — NetFlow/IPFIX export datagrams and DNS messages — so a
scenario that trips the engine can be replayed bit-for-bit, as often as
needed. The format is deliberately dumb:

* an 8-byte magic header (``FDNSCAP`` + format version);
* then frames, each ``lane (1 byte) | timestamp (8-byte IEEE double,
  big-endian) | length (4 bytes, big-endian) | payload``.

The lane tag says which stream the bytes belong to (``flow`` = one UDP
export datagram, ``dns`` = one RFC 1035 wire-format message); the
timestamp is the per-item capture stamp — by default from
:class:`repro.util.clock.MonotonicClock`, so inter-arrival gaps survive
wall-clock steps; live DNS frames instead carry the fill lane's
wall-clock arrival stamp, because replay must store records at the
identical timestamps the live session used — and the payload is the raw
wire bytes, exactly as
received, malformed input included (replay must reproduce the original
run's malformed counters too).

:class:`CaptureDecoder` mirrors :class:`repro.dns.tcp.TcpFrameDecoder`'s
contract: incremental feeding under arbitrary chunk boundaries, corrupt
input raises :class:`ParseError` *after* handing back every frame that
framed cleanly, and a truncated tail surfaces on :meth:`close` without
losing already-framed items.
"""

from __future__ import annotations

import struct
import threading
from typing import IO, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.util.clock import Clock, MonotonicClock
from repro.util.errors import ParseError

#: File magic: format name + one version byte.
MAGIC = b"FDNSCAP\x01"

#: Lane tags (the public, string-typed API surface).
LANE_FLOW = "flow"
LANE_DNS = "dns"
LANES = (LANE_FLOW, LANE_DNS)

_LANE_TO_BYTE = {LANE_FLOW: 0x01, LANE_DNS: 0x02}
_BYTE_TO_LANE = {v: k for k, v in _LANE_TO_BYTE.items()}

#: lane tag, capture timestamp, payload length.
_FRAME_HEAD = struct.Struct("!BdI")

#: Hard ceiling on one frame's payload. Both wire formats the capture
#: carries are bounded at 64 KiB (UDP datagram / 16-bit DNS framing), so
#: a longer claim means the file is corrupt or not a capture at all.
MAX_FRAME_PAYLOAD = 1 << 17


class _FrameFields(NamedTuple):
    ts: float
    lane: str
    payload: bytes


class CaptureFrame(_FrameFields):
    """One captured wire unit: when it arrived, which lane, what bytes.

    Construction validates lane and payload size; the decoder, having
    checked both in the frame header, builds frames with ``_make``.
    """

    __slots__ = ()

    def __new__(cls, ts: float, lane: str, payload: bytes):
        if lane not in _LANE_TO_BYTE:
            raise ParseError(f"unknown capture lane {lane!r}")
        if len(payload) > MAX_FRAME_PAYLOAD:
            raise ParseError(
                f"capture payload too large: {len(payload)} > {MAX_FRAME_PAYLOAD}"
            )
        return super().__new__(cls, ts, lane, payload)


def encode_frame(frame: CaptureFrame) -> bytes:
    """One frame's on-disk bytes (header + payload)."""
    return _FRAME_HEAD.pack(
        _LANE_TO_BYTE[frame.lane], frame.ts, len(frame.payload)
    ) + frame.payload


class CaptureDecoder:
    """Incremental capture reader: feed chunks, collect complete frames.

    The magic header is consumed first (and validated as soon as enough
    bytes arrive); afterwards every completed frame comes out of
    :meth:`feed` regardless of how the transport or filesystem chunked
    the bytes. Corruption — bad magic, an unknown lane tag, an oversized
    length claim — raises :class:`ParseError`, but frames completed
    *before* the corrupt bytes in the same chunk are still returned and
    the raise is deferred to the next :meth:`feed` or :meth:`close`,
    exactly like :class:`repro.dns.tcp.TcpFrameDecoder`.

    With ``lane`` given, only that lane's frames are returned. The other
    lane's frames are still framed (a truncated or corrupt one fails the
    same way at the same byte) but their payloads are never copied out.
    ``frames_out`` counts frames returned, ``frames_skipped`` other-lane
    frames passed over, ``bytes_in`` every byte fed, whichever lane.
    """

    def __init__(self, lane: Optional[str] = None) -> None:
        if lane is not None and lane not in _LANE_TO_BYTE:
            raise ParseError(f"unknown capture lane {lane!r}")
        self._wanted = _LANE_TO_BYTE.get(lane)
        #: Bytes fed but not yet consumed: the head of an incomplete
        #: frame (or of the magic), never more than one frame's worth.
        self._pending = b""
        self._corrupt: str = ""
        self._magic_seen = False
        self.frames_out = 0
        self.frames_skipped = 0
        self.bytes_in = 0

    def feed(self, chunk: bytes) -> List[CaptureFrame]:
        """Add bytes; return every (wanted) frame completed by them."""
        if self._corrupt:
            raise ParseError(self._corrupt)
        self.bytes_in += len(chunk)
        buf = self._pending + chunk if self._pending else bytes(chunk)
        out: List[CaptureFrame] = []
        pos = 0
        if not self._magic_seen:
            have = min(len(buf), len(MAGIC))
            if buf[:have] != MAGIC[:have]:
                self._corrupt = f"not a FlowDNS capture (bad magic {buf[:8]!r})"
                raise ParseError(self._corrupt)
            if have < len(MAGIC):
                self._pending = buf
                return out
            pos = len(MAGIC)
            self._magic_seen = True
        unpack = _FRAME_HEAD.unpack_from
        head_size = _FRAME_HEAD.size
        lane_of = _BYTE_TO_LANE.get
        wanted = self._wanted
        make = CaptureFrame._make
        size = len(buf)
        skipped = 0
        # Walk the buffer by offset: the unconsumed tail is cut off once
        # per feed, not once per frame.
        while size - pos >= head_size:
            lane_byte, ts, length = unpack(buf, pos)
            lane = lane_of(lane_byte)
            if lane is None or length > MAX_FRAME_PAYLOAD:
                self._corrupt = (
                    f"unknown capture lane tag 0x{lane_byte:02x}"
                    if lane is None
                    else f"framed length {length} exceeds cap {MAX_FRAME_PAYLOAD}"
                ) + ": capture corrupt"
                break
            end = pos + head_size + length
            if end > size:
                break
            if wanted is None or lane_byte == wanted:
                out.append(make((ts, lane, buf[pos + head_size : end])))
            else:
                skipped += 1
            pos = end
        self._pending = buf[pos:]
        self.frames_out += len(out)
        self.frames_skipped += skipped
        if self._corrupt and not out:
            raise ParseError(self._corrupt)
        # With corruption behind clean frames, hand those back; the
        # caller learns of it on its next feed()/close().
        return out

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame (or the magic)."""
        return len(self._pending)

    def close(self) -> None:
        """Signal EOF; leftover bytes mean a truncated tail."""
        if self._corrupt:
            raise ParseError(self._corrupt)
        if not self._magic_seen:
            raise ParseError(
                "capture truncated inside the magic header"
                if self._pending
                else "empty capture: missing magic header"
            )
        if self._pending:
            raise ParseError(
                f"capture ended mid-frame with {len(self._pending)} bytes pending"
            )


class CaptureWriter:
    """Append-only capture sink the live ingest paths tee into.

    Accepts a path (opened/closed by the writer) or an already-open
    binary file object (left open). Thread-safe: it is a plain sink any
    caller may share — e.g. two replay sources iterated in threads of
    their own, each teeing its lane — so every record takes the lock.

    Items are stamped with ``clock.now()`` (default:
    :class:`~repro.util.clock.MonotonicClock`) unless the caller passes
    the timestamp it already stamped the item with — the live DNS ingest
    does, so a replayed capture feeds the fill lane the *identical*
    arrival timestamps the original session used.

    A *path* target opens lazily — on the first recorded frame or an
    explicit :meth:`ensure_open` — so a session that dies before
    receiving anything (listeners failed to bind) exits without having
    truncated whatever previously lived at that path. A file-object
    target is the caller's to manage and gets the magic immediately.
    """

    def __init__(
        self,
        target: Union[str, IO[bytes]],
        clock: Optional[Clock] = None,
    ):
        self.clock = clock if clock is not None else MonotonicClock()
        self._lock = threading.Lock()
        self._closed = False
        self.frames_written = 0
        self.bytes_written = 0
        if isinstance(target, str):
            self._path: Optional[str] = target
            self._file: Optional[IO[bytes]] = None
            self._owns_file = True
        else:
            self._path = None
            self._file = target
            self._owns_file = False
            self._file.write(MAGIC)
            self.bytes_written += len(MAGIC)

    def _open_locked(self) -> IO[bytes]:
        if self._file is None:
            self._file = open(self._path, "wb")
            self._file.write(MAGIC)
            self.bytes_written += len(MAGIC)
        return self._file

    def ensure_open(self) -> None:
        """Materialize a path target now (a valid, possibly empty capture).

        The CLI calls this after a live session ends cleanly, so a
        zero-traffic run still leaves a well-formed file; a run that
        failed at bind time never calls it and the path stays untouched.
        """
        with self._lock:
            if not self._closed:
                self._open_locked()

    def record(self, lane: str, payload: bytes, ts: Optional[float] = None) -> None:
        """Append one wire unit; stamps ``clock.now()`` when ``ts`` is None."""
        frame = CaptureFrame(
            ts=self.clock.now() if ts is None else ts,
            lane=lane,
            payload=bytes(payload),
        )
        encoded = encode_frame(frame)
        with self._lock:
            if self._closed:
                return
            self._open_locked().write(encoded)
            self.frames_written += 1
            self.bytes_written += len(encoded)

    def record_stream(self, frames: Iterable[Tuple[float, str, bytes]]) -> None:
        """Append many ``(ts, lane, payload)`` frames in one lock hold.

        The bulk fast path for producers that emit whole captures in one
        go (the workload generator): skips per-frame :class:`CaptureFrame`
        construction and lock churn while writing the exact same bytes as
        repeated :meth:`record` calls. The lock is held for the duration,
        so don't interleave with concurrent :meth:`record` callers.
        """
        pack = _FRAME_HEAD.pack
        head_size = _FRAME_HEAD.size
        lane_bytes = _LANE_TO_BYTE
        with self._lock:
            if self._closed:
                return
            write = self._open_locked().write
            frames_written = 0
            bytes_written = 0
            try:
                for ts, lane, payload in frames:
                    n = len(payload)
                    if n > MAX_FRAME_PAYLOAD:
                        raise ParseError(
                            f"capture payload too large: {n} > {MAX_FRAME_PAYLOAD}"
                        )
                    try:
                        tag = lane_bytes[lane]
                    except KeyError:
                        raise ParseError(f"unknown capture lane {lane!r}") from None
                    write(pack(tag, ts, n) + payload)
                    frames_written += 1
                    bytes_written += head_size + n
            finally:
                self.frames_written += frames_written
                self.bytes_written += bytes_written

    def record_flow(self, payload: bytes, ts: Optional[float] = None) -> None:
        """Tee one NetFlow/IPFIX export datagram."""
        self.record(LANE_FLOW, payload, ts=ts)

    def record_dns(self, payload: bytes, ts: Optional[float] = None) -> None:
        """Tee one DNS wire-format message."""
        self.record(LANE_DNS, payload, ts=ts)

    def flush(self) -> None:
        with self._lock:
            if not self._closed and self._file is not None:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._file is not None:
                self._file.flush()
                if self._owns_file:
                    self._file.close()

    def __enter__(self) -> "CaptureWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_capture(path: str, frames: Iterable[CaptureFrame]) -> int:
    """Write a complete capture file from frames; returns the frame count."""
    count = 0
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        for frame in frames:
            handle.write(encode_frame(frame))
            count += 1
    return count


def probe_capture(path: str) -> None:
    """Fail fast on a path that can never replay.

    Raises :class:`OSError` (missing/unreadable file) or
    :class:`ParseError` (not a capture) by checking only the magic header
    — the cheap validation :func:`repro.replay.runner.replay_capture`
    runs *before* spinning up an engine, so a bad path surfaces as a
    clean error instead of an engine fed by a source that dies lazily.
    """
    with open(path, "rb") as handle:
        head = handle.read(len(MAGIC))
    if head != MAGIC:
        raise ParseError(
            f"not a FlowDNS capture: {path!r} (bad or short magic {head!r})"
        )


def read_capture(
    path: str, chunk_size: int = 1 << 16, lane: Optional[str] = None
) -> Iterator[CaptureFrame]:
    """Stream frames off a capture file — all of them, or one ``lane``'s.

    Frames are yielded as they complete, so a truncated file still
    delivers everything that framed cleanly before :class:`ParseError`
    surfaces for the damaged tail (wherever in the file the damage is:
    a lane filter skips payloads, not checks).
    """
    decoder = CaptureDecoder(lane)
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                break
            yield from decoder.feed(chunk)
    decoder.close()
