"""The common flow record consumed by FlowDNS.

All three supported export formats (Netflow v5, Netflow v9, IPFIX) decode
into :class:`FlowRecord`. Only the fields FlowDNS uses are first-class;
everything else a template might carry is preserved in ``extra``.

:class:`FlowBatch` is the columnar twin: the same fields as parallel
lists, carried through the decode→correlate hot path without
materialising a ``FlowRecord`` (or its two ``ipaddress`` objects) per
flow. A parity-identical record can still be built on demand via
:meth:`FlowBatch.record`.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from repro.util.interning import cached_ip_address, ip_text, ip_texts

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]


@dataclass(frozen=True)
class FlowRecord:
    """One unidirectional flow observation.

    ``ts`` is the flow end timestamp in UNIX seconds (what the correlator
    compares against DNS record timestamps), ``packets``/``bytes_`` are the
    flow's volume counters.
    """

    ts: float
    src_ip: IPAddress
    dst_ip: IPAddress
    src_port: int = 0
    dst_port: int = 0
    protocol: int = 6
    packets: int = 1
    bytes_: int = 0
    extra: Dict[str, int] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not isinstance(self.src_ip, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
            object.__setattr__(self, "src_ip", cached_ip_address(self.src_ip))
        if not isinstance(self.dst_ip, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
            object.__setattr__(self, "dst_ip", cached_ip_address(self.dst_ip))
        if self.packets < 0 or self.bytes_ < 0:
            raise ValueError("flow counters must be non-negative")
        if not (0 <= self.src_port <= 65535 and 0 <= self.dst_port <= 65535):
            raise ValueError("ports must fit in 16 bits")

    @property
    def is_dns_port(self) -> bool:
        """True for traffic to/from port 53 (DNS) or 853 (DoT).

        Used by the Section 4 coverage analysis, which filters a flow
        sample down to resolver traffic before testing destination IPs
        against the public-resolver list.
        """
        dns_ports = (53, 853)
        return self.dst_port in dns_ports or self.src_port in dns_ports


class FlowBatch:
    """A batch of flows as parallel columns (structure-of-arrays).

    Addresses are carried as canonical *text* (what the correlator keys
    its map lookups on anyway), so the decode→correlate path never
    touches ``ipaddress``. Inside :mod:`repro.netflow` a decode burst
    first fills the address columns with packed 4- or 16-byte values,
    and :meth:`addresses_to_text` turns them into text before the batch
    is returned. ``extras`` is ``None`` when every flow's ``extra`` dict
    is empty — the common case for the standard v9/IPFIX templates —
    otherwise a parallel list of per-flow dicts (``None`` entries
    meaning empty).
    """

    __slots__ = (
        "ts",
        "src_ip_text",
        "dst_ip_text",
        "src_port",
        "dst_port",
        "protocol",
        "packets",
        "bytes_",
        "extras",
    )

    def __init__(
        self,
        ts: Optional[List[float]] = None,
        src_ip_text: Optional[List[str]] = None,
        dst_ip_text: Optional[List[str]] = None,
        src_port: Optional[List[int]] = None,
        dst_port: Optional[List[int]] = None,
        protocol: Optional[List[int]] = None,
        packets: Optional[List[int]] = None,
        bytes_: Optional[List[int]] = None,
        extras: Optional[List[Optional[Dict[str, int]]]] = None,
    ):
        self.ts = ts if ts is not None else []
        self.src_ip_text = src_ip_text if src_ip_text is not None else []
        self.dst_ip_text = dst_ip_text if dst_ip_text is not None else []
        self.src_port = src_port if src_port is not None else []
        self.dst_port = dst_port if dst_port is not None else []
        self.protocol = protocol if protocol is not None else []
        self.packets = packets if packets is not None else []
        self.bytes_ = bytes_ if bytes_ is not None else []
        self.extras = extras

    def __len__(self) -> int:
        return len(self.ts)

    def __repr__(self) -> str:
        return f"FlowBatch(len={len(self.ts)})"

    # --- building ---------------------------------------------------------

    def append_row(
        self,
        ts: float,
        src_ip_text: str,
        dst_ip_text: str,
        src_port: int = 0,
        dst_port: int = 0,
        protocol: int = 6,
        packets: int = 1,
        bytes_: int = 0,
        extra: Optional[Dict[str, int]] = None,
    ) -> None:
        """Append one flow from already-validated scalar fields."""
        if extra:
            if self.extras is None:
                self.extras = [None] * len(self.ts)
            self.extras.append(extra)
        elif self.extras is not None:
            self.extras.append(None)
        self.ts.append(ts)
        self.src_ip_text.append(src_ip_text)
        self.dst_ip_text.append(dst_ip_text)
        self.src_port.append(src_port)
        self.dst_port.append(dst_port)
        self.protocol.append(protocol)
        self.packets.append(packets)
        self.bytes_.append(bytes_)

    def append_record(self, flow: FlowRecord) -> None:
        """Append one :class:`FlowRecord` (compat lane for object sources)."""
        self.append_row(
            flow.ts,
            ip_text(flow.src_ip.packed),
            ip_text(flow.dst_ip.packed),
            flow.src_port,
            flow.dst_port,
            flow.protocol,
            flow.packets,
            flow.bytes_,
            flow.extra,
        )

    def extend(self, other: "FlowBatch") -> None:
        """Concatenate another batch's columns onto this one."""
        if not len(other):
            return
        if other.extras is not None and self.extras is None:
            self.extras = [None] * len(self.ts)
        if self.extras is not None:
            if other.extras is not None:
                self.extras.extend(other.extras)
            else:
                self.extras.extend([None] * len(other.ts))
        self.ts.extend(other.ts)
        self.src_ip_text.extend(other.src_ip_text)
        self.dst_ip_text.extend(other.dst_ip_text)
        self.src_port.extend(other.src_port)
        self.dst_port.extend(other.dst_port)
        self.protocol.extend(other.protocol)
        self.packets.extend(other.packets)
        self.bytes_.extend(other.bytes_)

    def addresses_to_text(self) -> None:
        """Replace the packed address columns with their text, converting
        each distinct address once (a decoder's last step)."""
        self.src_ip_text = ip_texts(self.src_ip_text)
        self.dst_ip_text = ip_texts(self.dst_ip_text)

    def truncate(self, length: int) -> None:
        """Drop every row from ``length`` on (rolls back a datagram that
        turned out malformed after some of its rows were appended).

        Columns a failed decode left at different lengths are all cut to
        ``length``; ``extras`` goes back to ``None`` when no kept row
        has one.
        """
        del self.ts[length:]
        del self.src_ip_text[length:]
        del self.dst_ip_text[length:]
        del self.src_port[length:]
        del self.dst_port[length:]
        del self.protocol[length:]
        del self.packets[length:]
        del self.bytes_[length:]
        if self.extras is not None:
            del self.extras[length:]
            if not any(self.extras):
                self.extras = None

    @classmethod
    def from_records(cls, flows: Iterable[FlowRecord]) -> "FlowBatch":
        batch = cls()
        for flow in flows:
            batch.append_record(flow)
        return batch

    # --- materialisation --------------------------------------------------

    def record(self, i: int) -> FlowRecord:
        """Build the parity-identical :class:`FlowRecord` for row ``i``.

        Fields were validated at decode/adapt time, so the record is
        assembled through ``object.__new__``, skipping the constructor's
        checks; ``extra`` is copied so repeated materialisations never
        alias.
        """
        rec = object.__new__(FlowRecord)
        extra = self.extras[i] if self.extras is not None else None
        rec.__dict__.update(
            ts=self.ts[i],
            src_ip=cached_ip_address(self.src_ip_text[i]),
            dst_ip=cached_ip_address(self.dst_ip_text[i]),
            src_port=self.src_port[i],
            dst_port=self.dst_port[i],
            protocol=self.protocol[i],
            packets=self.packets[i],
            bytes_=self.bytes_[i],
            extra=dict(extra) if extra else {},
        )
        return rec

    def to_records(self) -> List[FlowRecord]:
        """Materialise every row (tests and compat callers only)."""
        return [self.record(i) for i in range(len(self.ts))]
