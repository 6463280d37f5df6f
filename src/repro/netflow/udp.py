"""UDP collection: receive NetFlow/IPFIX export datagrams off a socket.

Routers export flow records over UDP; :class:`UdpFlowSource` binds a
socket, decodes datagrams through a :class:`FlowCollector`, and exposes
the decoded flows as an iterable suitable for handing straight to the
live engines as one of their flow streams. It yields columnar
:class:`FlowBatch` items (one per datagram, via
:meth:`FlowCollector.ingest_columns`), the shape the engines' flow
lanes carry.

The source is deliberately minimal: one socket, one thread (the caller's
— iteration does the receiving), a stop flag, and per-source ingest
counters (:class:`repro.core.metrics.IngestStats`, surfaced by the
engines under ``EngineReport.ingest``). Sizing the OS receive buffer is
the deployment's job; the paper's loss accounting happens in the
engine's bounded stream buffers.

``stop()`` wakes a ``recvfrom`` blocked in another thread immediately
(zero-byte wake datagram, then socket close) — a stopped source
terminates without waiting out ``recv_timeout``. Stopping twice, or
iterating after stop, is safe and yields nothing.
"""

from __future__ import annotations

import socket
from typing import Iterator, Optional, Tuple

from repro.core.metrics import IngestStats
from repro.netflow.collector import FlowCollector
from repro.netflow.records import FlowBatch
from repro.util.errors import ConfigError

#: Largest datagram we accept; NetFlow exports stay well under this.
MAX_DATAGRAM = 65535


def bind_udp_socket(
    bind_addr: Tuple[str, int], reuseport: bool = False
) -> socket.socket:
    """Bind a UDP socket for the given address, any family.

    The family comes from ``getaddrinfo`` so IPv6 literals ("::1") work
    as naturally as IPv4. Binding an IPv6 wildcard ("::") clears
    ``IPV6_V6ONLY`` where the platform allows, giving one dual-stack
    socket that receives exporters over both families.

    ``reuseport=True`` sets ``SO_REUSEPORT`` before binding, so several
    sockets (across processes) can share one port and the kernel load-
    balances datagrams between them by flow hash — the socket-sharding
    mechanism :class:`repro.core.ingest.ReuseportUdpIngest` builds on.
    Raises :class:`ConfigError` where the platform has no SO_REUSEPORT.
    """
    host, port = bind_addr
    infos = socket.getaddrinfo(
        host, port, type=socket.SOCK_DGRAM, flags=socket.AI_PASSIVE
    )
    if not infos:  # pragma: no cover - getaddrinfo raises before this
        raise ConfigError(f"cannot resolve bind address {bind_addr!r}")
    family, _type, proto, _canon, sockaddr = infos[0]
    sock = socket.socket(family, socket.SOCK_DGRAM, proto)
    try:
        if reuseport:
            if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
                sock.close()
                raise ConfigError(
                    "SO_REUSEPORT is not available on this platform; "
                    "multi-worker UDP ingest requires it"
                )
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        if family == socket.AF_INET6 and host in ("::", ""):
            try:
                sock.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY, 0)
            except OSError:  # pragma: no cover - platform without dual-stack
                pass
        sock.bind(sockaddr)
    except OSError:
        sock.close()
        raise
    return sock


#: Backwards-compatible alias (pre-PR6 private name).
_bind_udp_socket = bind_udp_socket


def set_recv_buffer(sock: socket.socket, requested: int) -> int:
    """Best-effort SO_RCVBUF sizing; returns the *achieved* size.

    The kernel silently clamps the request to rmem_max (and on Linux
    reports double the usable payload), so callers record the achieved
    value — :attr:`repro.core.metrics.IngestStats.recv_buffer_bytes` —
    rather than trusting the request. Returns 0 when the platform
    exposes neither the setter nor the getter.
    """
    if requested:
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, requested)
        except OSError:  # pragma: no cover - platform refusal is fine
            pass
    try:
        return sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    except OSError:  # pragma: no cover - platform without the getter
        return 0


class UdpFlowSource:
    """Iterable of columnar flow batches decoded from UDP export datagrams."""

    def __init__(
        self,
        bind_addr: Tuple[str, int] = ("127.0.0.1", 0),
        collector: Optional[FlowCollector] = None,
        recv_timeout: float = 0.2,
        capture=None,
        recv_buffer_bytes: int = 0,
    ):
        self.collector = collector if collector is not None else FlowCollector()
        #: Optional :class:`repro.replay.capture.CaptureWriter` tee: every
        #: received datagram is recorded pre-decode (malformed included).
        self.capture = capture
        self._sock = bind_udp_socket(bind_addr)
        self._sock.settimeout(recv_timeout)
        # Snapshot the bound address: stop() closes the socket, and a
        # stopped source must still report where it was listening.
        self._address = self._sock.getsockname()[:2]
        self._stopped = False
        self.ingest_stats = IngestStats(name=f"udp[{self._address[0]}:{self._address[1]}]")
        # Achieved SO_RCVBUF is always recorded (0 requests nothing but
        # still reports the kernel default) — drop diagnostics need it.
        self.ingest_stats.recv_buffer_bytes = set_recv_buffer(
            self._sock, recv_buffer_bytes
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — exporters send here."""
        return self._address

    def stop(self) -> None:
        """Make the iterator finish immediately.

        A zero-byte wake datagram is sent to our own address (on Linux,
        merely closing the fd does *not* interrupt a thread already
        parked in ``recvfrom``) and the socket is then closed, so a
        blocked receiver wakes right away — via the wake datagram or the
        close's ``OSError``, both swallowed because the stop flag is
        already set — instead of waiting out ``recv_timeout``.
        Idempotent: stopping twice is a no-op.
        """
        if self._stopped:
            return
        self._stopped = True
        try:
            host, port = self._address
            if host in ("0.0.0.0", ""):
                host = "127.0.0.1"
            elif host == "::":
                host = "::1"
            with socket.socket(self._sock.family, socket.SOCK_DGRAM) as wake:
                wake.sendto(b"", (host, port))
        except OSError:
            pass
        self._sock.close()

    def close(self) -> None:
        self.stop()

    def __enter__(self) -> "UdpFlowSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def recv_once(self) -> Optional[bytes]:
        """One raw datagram, or None on timeout or after stop."""
        if self._stopped:
            return None
        try:
            data, _peer = self._sock.recvfrom(MAX_DATAGRAM)
        except socket.timeout:
            return None
        except OSError:
            # stop() closed the socket under us — the expected wake-up.
            if self._stopped:
                return None
            raise
        if self._stopped:
            # What woke us was stop()'s zero-byte wake datagram, not real
            # traffic — it must not pollute the ingest counters.
            return None
        stats = self.ingest_stats
        stats.received += 1
        stats.bytes_in += len(data)
        if self.capture is not None:
            self.capture.record_flow(data)
        return data

    def __iter__(self) -> Iterator[FlowBatch]:
        """Yield decoded flows until :meth:`stop` is called.

        One :class:`FlowBatch` per flow-carrying datagram (template-only
        and malformed datagrams yield nothing but are counted).
        """
        stats = self.ingest_stats
        collector = self.collector
        while not self._stopped:
            datagram = self.recv_once()
            if datagram is None:
                continue
            errors_before = collector.stats.malformed + collector.stats.unknown_version
            batch = collector.ingest_columns(datagram)
            if len(batch):
                stats.accepted += 1
                yield batch
            errors_after = collector.stats.malformed + collector.stats.unknown_version
            if errors_after > errors_before:
                stats.malformed += 1


def send_datagrams(datagrams, address: Tuple[str, int]) -> int:
    """Test/exporter helper: push datagrams at a collector address."""
    host, _port = address
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    sent = 0
    with socket.socket(family, socket.SOCK_DGRAM) as sock:
        for datagram in datagrams:
            sock.sendto(datagram, address)
            sent += 1
    return sent
