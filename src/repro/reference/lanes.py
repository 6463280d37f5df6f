"""Fill, store, look up and write one record at a time.

Algorithm 1 and Algorithm 2 exactly as the paper states them, one DNS
record or one flow per call, over the production processors' public
state (``storage``, ``stats``, ``config``, ``resolve``).
"""

from __future__ import annotations

from repro.core.fillup import FillUpProcessor
from repro.core.lookup import CorrelationResult, LookUpProcessor
from repro.core.storage_adapter import DnsStorage
from repro.core.writer import NULL_SERVICE
from repro.dns.stream import DnsRecord
from repro.netflow.records import FlowDirection, FlowRecord


def add_record(storage: DnsStorage, record: DnsRecord) -> None:
    """Insert one DNS stream record (Algorithm 1's body)."""
    ip_store, cname_store = storage.stores
    if record.is_address:
        ip_store.put(record.answer, record.query, record.ttl, record.ts)
    elif record.is_cname:
        cname_store.put(record.answer, record.query, record.ttl, record.ts)
    # Other record types were filtered before the FillUp queue.


def fill_record(processor: FillUpProcessor, record: DnsRecord) -> bool:
    """Section 3.2 steps 4–6 for one record; True when stored.

    Only A/AAAA and CNAME records reach the hashmaps; anything else is
    skipped.
    """
    stats = processor.stats
    stats.records_in += 1
    if not (record.is_address or record.is_cname):
        stats.records_skipped += 1
        return False
    add_record(processor.storage, record)
    stats.records_stored += 1
    return True


def is_valid(flow: FlowRecord) -> bool:
    """Step 2's flow filter: discard flows without usable counters."""
    return flow.bytes_ >= 0 and flow.packets >= 0


def correlate_record(processor: LookUpProcessor, flow: FlowRecord) -> CorrelationResult:
    """Algorithm 2's steps 4–7 for one flow record."""
    stats = processor.stats
    stats.flows_in += 1
    stats.bytes_in += flow.bytes_
    if not is_valid(flow):
        stats.invalid += 1
        return CorrelationResult(flow, (), flow.ts)

    direction = processor.config.direction
    if direction == FlowDirection.BOTH:
        # Try the source first (the paper's primary interest), fall
        # back to the destination.
        chain = processor.resolve(str(flow.src_ip), flow.ts)
        if not chain:
            chain = processor.resolve(str(flow.dst_ip), flow.ts)
    else:
        chain = processor.resolve(str(flow.lookup_ip(direction)), flow.ts)

    if chain:
        stats.matched += 1
        stats.bytes_matched += flow.bytes_
        stats.note_chain(len(chain))
    else:
        stats.unmatched += 1
    return CorrelationResult(flow, tuple(chain), flow.ts)


def format_result(result: CorrelationResult) -> str:
    """One output row for a correlation result."""
    flow = result.flow
    service = result.service if result.matched else NULL_SERVICE
    chain = ">".join(result.chain) if result.matched else NULL_SERVICE
    return (
        f"{flow.ts:.3f}\t{flow.src_ip}\t{flow.dst_ip}\t{flow.protocol}\t"
        f"{flow.packets}\t{flow.bytes_}\t{service}\t{chain}\n"
    )
