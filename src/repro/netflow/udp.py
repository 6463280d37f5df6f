"""UDP socket helpers for NetFlow/IPFIX export collection.

Routers export flow records over UDP. The live receiver is the async
engine's :class:`repro.core.ingest.UdpFlowIngest`; this module
holds its socket plumbing: a family-agnostic bind (dual-stack on
``::``) and best-effort ``SO_RCVBUF`` sizing that reports the size the
kernel actually granted.
"""

from __future__ import annotations

import socket
from typing import Tuple

from repro.util.errors import ConfigError

#: Largest datagram we accept; NetFlow exports stay well under this.
MAX_DATAGRAM = 65535


def bind_udp_socket(bind_addr: Tuple[str, int]) -> socket.socket:
    """Bind a UDP socket for the given address, any family.

    The family comes from ``getaddrinfo`` so IPv6 literals ("::1") work
    as naturally as IPv4. Binding an IPv6 wildcard ("::") clears
    ``IPV6_V6ONLY`` where the platform allows, giving one dual-stack
    socket that receives exporters over both families.
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
