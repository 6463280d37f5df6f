"""The live ingest sources and the bounded buffer they feed.

Everything the async engine reads from a socket enters through here:

* :class:`AsyncBuffer` — the bounded per-stream FIFO of the paper's
  Section 2, whose overflow drops and counts;
* :class:`UdpFlowIngest` — NetFlow/IPFIX datagrams off one nonblocking
  UDP socket, drained in bulk on loop wakeups, decoded later in the
  lookup lane;
* :class:`TcpDnsIngest` — DNS messages over TCP (RFC 1035 §4.2.2
  framing), stamped on arrival.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core.config import DEFAULT_RECV_BUFFER_BYTES
from repro.core.metrics import BufferStats, IngestStats
from repro.dns.tcp import MAX_MESSAGE_SIZE, TcpFrameDecoder
from repro.netflow.collector import FlowCollector
from repro.netflow.udp import MAX_DATAGRAM, bind_udp_socket, set_recv_buffer
from repro.util.errors import ParseError

#: Chunks read from each connection at stop: a full kernel receive
#: buffer's worth, bounded so a peer that keeps sending cannot hold the
#: stop open.
_STOP_READS = 128

#: Seconds the listener pauses after an accept fails for want of
#: descriptors or buffers, as asyncio's own server does: the listening
#: socket stays readable, so retrying at once would spin the loop.
_ACCEPT_RETRY_DELAY = 1.0


class AsyncBuffer:
    """A bounded FIFO for one event loop, with drop accounting.

    The per-stream internal buffer of the paper's Section 2, single-loop,
    so no locks — just events. Socket callbacks and paced (``realtime``)
    replay offer items with the non-blocking :meth:`try_put` (overflow
    drops the incoming item and counts it, the paper's loss semantics);
    max-speed iterable pumps use the awaitable :meth:`put`, which applies
    backpressure instead of dropping because an offline replay at max
    speed has no real-time deadline.
    """

    def __init__(self, capacity: int, name: str = "buffer"):
        self.capacity = capacity
        self.name = name
        self.stats = BufferStats()
        self._items: deque = deque()
        self._closed = False
        self._not_empty = asyncio.Event()
        self._not_full = asyncio.Event()
        self._not_full.set()

    def try_put(self, item) -> bool:
        """Offer one item; False (and a counted drop) when full or closed."""
        stats = self.stats
        stats.offered += 1
        if self._closed or len(self._items) >= self.capacity:
            # A put after close would be silently lost (the lane task has
            # already drained and exited), so it counts as a drop too.
            stats.dropped += 1
            return False
        self._items.append(item)
        stats.accepted += 1
        self._not_empty.set()
        return True

    async def put(self, item) -> None:
        """Backpressuring put: wait for space instead of dropping."""
        while len(self._items) >= self.capacity and not self._closed:
            self._not_full.clear()
            await self._not_full.wait()
        self.try_put(item)

    async def get_many(self, max_items: int) -> List:
        """Wait for at least one item; drain up to ``max_items``.

        Returns an empty list only when the buffer is closed and drained
        — the lane tasks' termination signal.
        """
        while not self._items:
            if self._closed:
                return []
            self._not_empty.clear()
            await self._not_empty.wait()
        items = self._items
        n = min(max_items, len(items))
        batch = [items.popleft() for _ in range(n)]
        self._not_full.set()
        return batch

    def close(self) -> None:
        """Mark the producer side done; consumers drain then stop."""
        self._closed = True
        self._not_empty.set()
        self._not_full.set()

    def __len__(self) -> int:
        return len(self._items)


class UdpFlowIngest:
    """Live NetFlow/IPFIX-over-UDP source for the async engine.

    The batched socket layer: ``(host, port)`` is bound as a
    *nonblocking* UDP socket registered with the event loop through
    ``add_reader``, and one readiness wakeup drains up to
    ``max_recv_per_wakeup`` datagrams via ``recv_into`` on a reused
    buffer — the ``recvmmsg`` shape, minus the syscall CPython does not
    expose. The receive path does **no decoding**: each raw datagram is
    offered to the engine's bounded buffer (overflow drops it and counts
    it in :attr:`ingest_stats` — backpressure by loss, like the paper's
    collectors under burst), and the engine's lookup lane batch-decodes
    through :attr:`collector` off the hot callback. Malformed datagrams
    are therefore charged to :attr:`ingest_stats` *by the lane* at
    decode time, against the same collector counters as before.

    The achieved kernel receive buffer (``SO_RCVBUF`` after the
    best-effort request — the kernel clamps to rmem_max) is recorded in
    ``ingest_stats.recv_buffer_bytes``: export bursts ride out decode
    latency in that buffer, so when it is silently small (CI hosts),
    drop diagnostics must show it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        collector: Optional[FlowCollector] = None,
        capacity: Optional[int] = None,
        recv_buffer_bytes: int = DEFAULT_RECV_BUFFER_BYTES,
        name: Optional[str] = None,
        capture=None,
        max_recv_per_wakeup: int = 256,
    ):
        self.host = host
        self.port = port
        #: The lane-side decoder: the engine's lookup lane decodes this
        #: source's datagrams through it, so template state and
        #: malformed counting live with the source.
        self.collector = collector if collector is not None else FlowCollector()
        #: Overrides the engine's stream_buffer_capacity when set.
        self.capacity = capacity
        #: Optional :class:`repro.replay.capture.CaptureWriter` tee: every
        #: datagram is recorded as received, before decode — malformed
        #: input included, so a replay reproduces those counters too.
        self.capture = capture
        #: Requested SO_RCVBUF (best-effort; see class docstring).
        self.recv_buffer_bytes = recv_buffer_bytes
        #: Datagrams drained per readiness wakeup. Bounded so a sustained
        #: flood cannot starve the decode lane sharing the loop.
        self.max_recv_per_wakeup = max_recv_per_wakeup
        self.ingest_stats = IngestStats(name=name or f"udp[{host}:{port}]")
        self.address: Optional[Tuple[str, int]] = None
        self._buffer: Optional[AsyncBuffer] = None
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._recv_view = memoryview(bytearray(MAX_DATAGRAM))
        self._ready = threading.Event()

    def connect_buffer(self, buffer: AsyncBuffer) -> None:
        """Attach the engine buffer raw datagrams are offered to."""
        self._buffer = buffer

    def _on_readable(self) -> None:
        """Drain the socket: many ``recv_into`` calls per loop wakeup."""
        sock = self._sock
        if sock is None:  # racing close(); the reader is being removed
            return
        view = self._recv_view
        stats = self.ingest_stats
        buffer = self._buffer
        capture = self.capture
        for _ in range(self.max_recv_per_wakeup):
            try:
                n = sock.recv_into(view)
            except (BlockingIOError, InterruptedError):
                return  # kernel queue drained
            except OSError:
                return  # closing under our feet: stop() owns cleanup
            data = bytes(view[:n])
            stats.received += 1
            stats.bytes_in += n
            if capture is not None:
                capture.record_flow(data)
            if buffer.try_put(data):
                stats.accepted += 1
            else:
                stats.dropped += 1

    async def start(self, loop: asyncio.AbstractEventLoop) -> None:
        sock = bind_udp_socket((self.host, self.port))
        sock.setblocking(False)
        self.ingest_stats.recv_buffer_bytes = set_recv_buffer(
            sock, self.recv_buffer_bytes
        )
        self._sock = sock
        self._loop = loop
        self.address = sock.getsockname()[:2]
        if self.ingest_stats.name == f"udp[{self.host}:{self.port}]":
            self.ingest_stats.name = f"udp[{self.address[0]}:{self.address[1]}]"
        loop.add_reader(sock.fileno(), self._on_readable)
        self._ready.set()

    async def stop(self) -> None:
        """Stop receiving; buffered datagrams still drain through the lane."""
        self.close()

    def close(self) -> None:
        """Idempotent teardown (the ingest-source protocol's close())."""
        sock, self._sock = self._sock, None
        if sock is None:
            return
        if self._loop is not None:
            try:
                self._loop.remove_reader(sock.fileno())
            except (RuntimeError, ValueError, OSError):
                pass  # loop already closed; nothing left to wake
        sock.close()

    def wait_ready(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Block (from another thread) until bound; returns the address."""
        if not self._ready.wait(timeout):
            raise TimeoutError("UDP ingest did not bind in time")
        return self.address


class TcpDnsIngest:
    """Live DNS-over-TCP source for the async engine.

    A nonblocking listening socket on ``(host, port)`` registered with
    the loop through ``add_reader``, like :class:`UdpFlowIngest`; every
    accepted connection is read the same way and gets its own
    :class:`TcpFrameDecoder` reassembling length-prefixed messages from
    arbitrary chunk boundaries. Complete messages are stamped with
    ``clock()`` on arrival (the collector's receive time, like the
    paper's live deployment) and offered to the bounded buffer as
    ``(ts, wire_bytes)`` items — the fill lane's standard tuple form.
    A frame claiming more than ``max_message_size`` bytes means the
    stream desynchronised: the connection is dropped and counted, never
    raised into the engine.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        clock=time.time,
        capacity: Optional[int] = None,
        max_message_size: int = MAX_MESSAGE_SIZE,
        name: Optional[str] = None,
        capture=None,
    ):
        self.host = host
        self.port = port
        self.clock = clock
        self.capacity = capacity
        self.max_message_size = max_message_size
        #: Optional :class:`repro.replay.capture.CaptureWriter` tee. Each
        #: reassembled message is recorded with the *same* arrival stamp
        #: the fill lane gets, so a replayed capture stores records at
        #: identical timestamps to the live session.
        self.capture = capture
        self.ingest_stats = IngestStats(name=name or f"tcp-dns[{host}:{port}]")
        self.address: Optional[Tuple[str, int]] = None
        self._buffer: Optional[AsyncBuffer] = None
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        #: Open connections, each with its frame decoder.
        self._connections: Dict[socket.socket, TcpFrameDecoder] = {}

    def connect_buffer(self, buffer: AsyncBuffer) -> None:
        self._buffer = buffer

    def feed_chunk(self, decoder: TcpFrameDecoder, chunk: bytes) -> bool:
        """Run one received chunk through a connection's decoder.

        Returns False when the stream is corrupt (oversized frame) and
        the connection must be dropped. Shared by the live handler and
        the deterministic unit tests.
        """
        stats = self.ingest_stats
        empty_before = decoder.empty_frames
        try:
            messages = decoder.feed(chunk)
        except ParseError:
            stats.malformed += 1 + (decoder.empty_frames - empty_before)
            return False
        # Zero-length frames carry no parseable message; charge them as
        # malformed so the frame-level accounting still sees them.
        stats.malformed += decoder.empty_frames - empty_before
        ts = self.clock()
        for wire in messages:
            stats.received += 1
            stats.bytes_in += len(wire)
            if self.capture is not None:
                self.capture.record_dns(wire, ts=ts)
            if self._buffer.try_put((ts, wire)):
                stats.accepted += 1
            else:
                stats.dropped += 1
        return True

    def _on_accept(self) -> None:
        """Take every connection the kernel has established."""
        while self._sock is not None:
            try:
                conn, _peer = self._sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except ConnectionAbortedError:
                continue  # the peer gave up while queued
            except OSError:  # out of descriptors or buffers
                self._loop.remove_reader(self._sock.fileno())
                self._loop.call_later(_ACCEPT_RETRY_DELAY, self._resume_accept)
                return
            conn.setblocking(False)
            self._connections[conn] = TcpFrameDecoder(
                max_message_size=self.max_message_size
            )
            self._loop.add_reader(conn.fileno(), self._read, conn, 1)

    def _resume_accept(self) -> None:
        if self._sock is not None:
            self._loop.add_reader(self._sock.fileno(), self._on_accept)

    def _read(self, conn: socket.socket, reads: int) -> None:
        """Read up to ``reads`` chunks the peer already delivered; end the
        connection at EOF, on a reset, or on a corrupt stream."""
        decoder = self._connections.get(conn)
        if decoder is None:  # ended after this wakeup was queued
            return
        for _ in range(reads):
            try:
                chunk = conn.recv(65536)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # reset by the peer
                chunk = None
            if not chunk:
                self._end(conn, at_eof=chunk is not None)
                return
            if not self.feed_chunk(decoder, chunk):
                self._end(conn, at_eof=False)  # corrupt stream: drop it
                return

    def _end(self, conn: socket.socket, at_eof: bool) -> None:
        """Close one connection; at EOF a partial final frame is counted
        as malformed, like any truncated input."""
        decoder = self._connections.pop(conn, None)
        if decoder is None:
            return
        if at_eof:
            try:
                decoder.close()
            except ParseError:
                self.ingest_stats.malformed += 1
        try:
            self._loop.remove_reader(conn.fileno())
        except (RuntimeError, ValueError, OSError):
            pass  # loop already closed; nothing left to wake
        conn.close()

    async def start(self, loop: asyncio.AbstractEventLoop) -> None:
        family, _type, _proto, _canon, sockaddr = socket.getaddrinfo(
            self.host, self.port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
        )[0]
        sock = socket.create_server(sockaddr, family=family, backlog=100)
        sock.setblocking(False)
        self._sock = sock
        self._loop = loop
        self.address = sock.getsockname()[:2]
        if self.ingest_stats.name == f"tcp-dns[{self.host}:{self.port}]":
            self.ingest_stats.name = f"tcp-dns[{self.address[0]}:{self.address[1]}]"
        loop.add_reader(sock.fileno(), self._on_accept)
        self._ready.set()

    async def stop(self) -> None:
        """Stop accepting and end every connection (graceful drain).

        Every connection the kernel established before the stop is
        taken, even one the loop has not been woken for yet. The bytes
        each peer already delivered are read without waiting for more,
        their messages counted and offered to the buffer, and the
        connection is closed as at EOF. Messages already buffered still
        flow through the fill lane.
        """
        self._on_accept()
        for conn in list(self._connections):
            self._read(conn, _STOP_READS)
        for conn in list(self._connections):
            self._end(conn, at_eof=True)
        self.close()

    def close(self) -> None:
        """Idempotent teardown (the ingest-source protocol's close()).

        Closes the listening socket and every connection without
        reading what they still hold; the graceful in-loop path is
        ``await stop()``.
        """
        for conn in list(self._connections):
            self._end(conn, at_eof=False)
        sock, self._sock = self._sock, None
        if sock is None:
            return
        try:
            self._loop.remove_reader(sock.fileno())
        except (RuntimeError, ValueError, OSError):
            pass  # loop already closed; nothing left to wake
        sock.close()

    def wait_ready(self, timeout: float = 10.0) -> Tuple[str, int]:
        if not self._ready.wait(timeout):
            raise TimeoutError("TCP ingest did not start in time")
        return self.address
