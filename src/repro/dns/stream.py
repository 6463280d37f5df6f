"""The stream-level DNS record FlowDNS actually processes.

Section 2 describes each DNS stream record as
``timestamp, ..., [name; rtype; ttl; answer] <0,n>`` — i.e. one timestamped
entry per answer RR. :class:`DnsRecord` is that flattened per-answer tuple;
it is what travels through the FillUp queue and keys the hashmaps. The
heavier :class:`repro.dns.wire.DnsMessage` is converted into a list of
these at ingest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dns.name import normalize_name
from repro.dns.rr import RRType
from repro.dns.wire import DnsMessage
from repro.util.interning import intern_string


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
        # Interned: the query/answer strings are the storage layer's map
        # keys, and sharing one object per distinct name keeps the maps
        # free of duplicate key storage.
        object.__setattr__(self, "query", intern_string(normalize_name(self.query)))
        if self.rtype == RRType.CNAME:
            object.__setattr__(self, "answer", intern_string(normalize_name(self.answer)))
        else:
            object.__setattr__(self, "answer", intern_string(self.answer))

    @property
    def is_address(self) -> bool:
        return is_address_type(self.rtype)

    @property
    def is_cname(self) -> bool:
        return self.rtype == RRType.CNAME


def records_from_message(ts: float, msg: DnsMessage) -> List[DnsRecord]:
    """Flatten a response message into per-answer stream records.

    Only A/AAAA/CNAME answers survive — this is the "valid DNS response"
    filter from Section 3.2 step 2. Non-responses, error rcodes and empty
    answer sections yield nothing.
    """
    if not msg.is_response or msg.header.rcode != 0:
        return []
    # The query name associated with each answer RR is the RR owner name,
    # which for CDN chains differs from the original question as the chain
    # unrolls (q -> cname1 -> cname2 -> A).
    out: List[DnsRecord] = []
    for rr in msg.answers:
        if rr.is_address:
            # DnsRecord.__post_init__ interns the answer text itself.
            out.append(DnsRecord(ts, rr.name, rr.rtype, rr.ttl, str(rr.rdata)))
        elif rr.is_cname:
            out.append(DnsRecord(ts, rr.name, rr.rtype, rr.ttl, rr.rdata))
    return out
