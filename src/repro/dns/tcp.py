"""DNS-over-TCP stream framing (RFC 1035 §4.2.2).

The paper's collection path: "This data is sent from the ISP resolvers
to our collectors via TCP." On TCP, each DNS message is preceded by a
two-byte big-endian length. :class:`TcpFrameDecoder` incrementally
reassembles messages from arbitrary chunk boundaries — the collector
cannot assume one read() per message — and tolerates mid-stream
truncation by surfacing whatever is complete.
"""

from __future__ import annotations

import struct
from typing import Iterable, List

from repro.util.errors import ParseError

_LEN = struct.Struct("!H")

#: Hard ceiling on one framed message; a length prefix beyond this is
#: treated as stream corruption (real DNS/TCP messages max at 64 KiB by
#: construction, but a desynchronised stream can claim anything).
MAX_MESSAGE_SIZE = 65535


def frame_message(payload: bytes) -> bytes:
    """Prefix one wire-format message with its 16-bit length."""
    if len(payload) > MAX_MESSAGE_SIZE:
        raise ParseError(f"DNS message too large for TCP framing: {len(payload)}")
    return _LEN.pack(len(payload)) + payload


def frame_messages(payloads: Iterable[bytes]) -> bytes:
    """Concatenate several framed messages into one TCP byte stream."""
    return b"".join(frame_message(p) for p in payloads)


class TcpFrameDecoder:
    """Incremental decoder: feed chunks, collect complete messages.

    The decoder never raises on partial input — a short read simply
    waits for more bytes. A zero-length frame is legal per the RFC but
    carries no message; it is not emitted, and is tallied in
    ``empty_frames`` so callers can account for it (an empty DNS
    message cannot parse, so silently swallowing it would hide loss).

    ``max_message_size`` is the corruption guard: a length prefix beyond
    it means the stream has desynchronised (real resolver exports stay
    far below the 64 KiB framing ceiling), and :meth:`feed` raises
    :class:`ParseError` rather than buffering towards a frame that will
    never arrive intact. The default cap is the 16-bit framing maximum,
    which any ``!H`` prefix trivially satisfies; collectors that know
    their resolvers' realistic message sizes pass a tighter cap.
    """

    def __init__(self, max_message_size: int = MAX_MESSAGE_SIZE) -> None:
        if not 0 < max_message_size <= MAX_MESSAGE_SIZE:
            raise ParseError(
                f"max_message_size must be in (0, {MAX_MESSAGE_SIZE}]: "
                f"{max_message_size}"
            )
        self._buffer = bytearray()
        self._corrupt: str = ""
        self.max_message_size = max_message_size
        self.messages_out = 0
        self.empty_frames = 0
        self.bytes_in = 0

    def feed(self, chunk: bytes) -> List[bytes]:
        """Add a chunk; return every message completed by it.

        Raises :class:`ParseError` when a frame claims more than
        ``max_message_size`` bytes — the stream-corruption path; the
        decoder is not usable afterwards (resynchronisation is the
        caller's policy, typically dropping the connection). Messages
        completed *before* the corrupt prefix in the same chunk are
        still returned (they framed correctly and must not be lost);
        the raise is deferred to the next :meth:`feed` or :meth:`close`.
        """
        if self._corrupt:
            raise ParseError(self._corrupt)
        self._buffer.extend(chunk)
        self.bytes_in += len(chunk)
        out: List[bytes] = []
        while True:
            if len(self._buffer) < _LEN.size:
                break
            (length,) = _LEN.unpack_from(self._buffer, 0)
            if length > self.max_message_size:
                self._corrupt = (
                    f"framed length {length} exceeds cap "
                    f"{self.max_message_size}: stream corrupt"
                )
                if out:
                    # Hand back what framed cleanly; the caller learns of
                    # the corruption on its next feed()/close().
                    return out
                raise ParseError(self._corrupt)
            if len(self._buffer) < _LEN.size + length:
                break
            payload = bytes(self._buffer[_LEN.size : _LEN.size + length])
            del self._buffer[: _LEN.size + length]
            if payload:
                out.append(payload)
                self.messages_out += 1
            else:
                self.empty_frames += 1
        return out

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)

    def close(self) -> None:
        """Signal EOF; leftover bytes indicate a truncated final frame
        (or a corruption detected on the last feed)."""
        if self._corrupt:
            raise ParseError(self._corrupt)
        if self._buffer:
            raise ParseError(
                f"TCP stream ended mid-frame with {len(self._buffer)} bytes pending"
            )

