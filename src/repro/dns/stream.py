"""The stream-level DNS record FlowDNS actually processes.

Section 2 describes each DNS stream record as
``timestamp, ..., [name; rtype; ttl; answer] <0,n>`` — i.e. one timestamped
entry per answer RR. :class:`DnsRecord` is that flattened per-answer tuple;
it is what travels through the FillUp queue and keys the hashmaps. Wire
responses never become these in production: the columnar decoder
(:mod:`repro.dns.columnar`) lays their answers out as the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.name import normalize_name
from repro.dns.rr import RRType


def is_address_type(rtype: RRType) -> bool:
    """True for A/AAAA — the types the IP-NAME hashmaps hold."""
    return rtype in (RRType.A, RRType.AAAA)


@dataclass(frozen=True)
class DnsRecord:
    """One (timestamp, query, rtype, ttl, answer) stream entry.

    ``query`` is the name the client asked for, ``answer`` is the rdata in
    presentation form: an IP address string for A/AAAA, a domain name for
    CNAME. FlowDNS's hashmaps use ``answer`` as key and ``query`` as value
    (Section 3.1).
    """

    ts: float
    query: str
    rtype: RRType
    ttl: int
    answer: str

    def __post_init__(self):
        # Names are normalised the way the wire decoder spells them.
        # Address answers are kept as given.
        object.__setattr__(self, "query", normalize_name(self.query))
        if self.rtype == RRType.CNAME:
            object.__setattr__(self, "answer", normalize_name(self.answer))

    @property
    def is_address(self) -> bool:
        return is_address_type(self.rtype)

    @property
    def is_cname(self) -> bool:
        return self.rtype == RRType.CNAME

