"""Step 2's DNS validity filter, one message at a time through objects.

The production fill lane decodes wire payloads straight to
:class:`~repro.dns.columnar.DnsBatch` columns. This is the object twin:
a full :func:`~repro.dns.wire.decode_message`, then one
:class:`DnsRecord` per A/AAAA/CNAME answer of a NOERROR response,
counted into a production :class:`FillUpProcessor`'s stats.
"""

from __future__ import annotations

from typing import List

from repro.core.fillup import FillUpProcessor
from repro.dns.stream import DnsRecord
from repro.dns.wire import DnsMessage, decode_message
from repro.util.errors import ParseError


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
            out.append(DnsRecord(ts, rr.name, rr.rtype, rr.ttl, str(rr.rdata)))
        elif rr.is_cname:
            out.append(DnsRecord(ts, rr.name, rr.rtype, rr.ttl, rr.rdata))
    return out


def filter_message(processor: FillUpProcessor, ts: float, payload) -> List[DnsRecord]:
    """One payload (wire bytes or a decoded message) → stream records.

    Invalid payloads (unparseable, queries, error responses) yield an
    empty list and are counted, never raised.
    """
    stats = processor.stats
    stats.raw_messages += 1
    if isinstance(payload, (bytes, bytearray, memoryview)):
        try:
            message = decode_message(payload)
        except ParseError:
            stats.invalid += 1
            return []
    else:
        message = payload
    records = records_from_message(ts, message)
    if message.is_response and message.header.rcode == 0:
        # The columnar decoder never walks the sections of a rejected
        # message (query, error rcode), so its unknown RRs go uncounted.
        stats.records_unknown_type += message.unknown_records
    if not records:
        stats.invalid += 1
    return records
