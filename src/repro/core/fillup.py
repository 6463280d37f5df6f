"""FillUp processing: DNS records into the shared storage (Section 3.2).

The fill logic lives in :class:`FillUpProcessor` so the async engine
(which drives it from its fill lane), the simulation engine and the
facade share one implementation — any divergence between them would make
the ablation comparisons meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from repro.core.storage_adapter import DnsStorage
from repro.dns.stream import DnsRecord, records_from_message
from repro.dns.wire import DnsMessage, decode_message
from repro.util.errors import ParseError


@dataclass
class FillUpStats:
    """Counters for the DNS side of the pipeline."""

    raw_messages: int = 0
    invalid: int = 0
    records_in: int = 0
    records_stored: int = 0
    records_skipped: int = 0
    #: RRs skipped inside otherwise-valid responses for carrying an
    #: rtype/rclass outside the enums (SVCB/HTTPS/EDNS OPT). Counted
    #: only for messages that pass the response/NOERROR filter — the
    #: columnar path short-circuits rejected messages before walking
    #: their sections, and the two paths must count identically.
    records_unknown_type: int = 0


class FillUpProcessor:
    """Validates and stores DNS records (Section 3.2 steps 2–6)."""

    def __init__(self, storage: DnsStorage):
        self.storage = storage
        self.stats = FillUpStats()

    def filter_message(
        self, ts: float, payload: Union[bytes, bytearray, memoryview, DnsMessage]
    ) -> list:
        """Step 2's validity filter: wire bytes/message → stream records.

        Invalid payloads (unparseable, queries, error responses) yield an
        empty list and are counted, never raised — a malformed response
        must not take the FillUp path down.
        """
        self.stats.raw_messages += 1
        if isinstance(payload, (bytes, bytearray, memoryview)):
            try:
                # Zero-copy: the decoder reads wire bytes (or a memoryview
                # over a larger capture buffer) in place.
                message = decode_message(payload)
            except ParseError:
                self.stats.invalid += 1
                return []
        else:
            message = payload
        records = records_from_message(ts, message)
        if message.is_response and message.header.rcode == 0:
            # Same gate the columnar decoder applies: rejected messages
            # (queries, error rcodes) never have their sections walked
            # there, so their unknown-RR counts must not surface here
            # either.
            self.stats.records_unknown_type += message.unknown_records
        if not records:
            self.stats.invalid += 1
        return records

    def process_batch(self, records: Iterable[DnsRecord], *, sweep: bool = True) -> int:
        """Steps 4–6 for stream records: one storage round-trip.

        Only A/AAAA and CNAME records reach the hashmaps; the rest are
        counted as skipped. The storable ones go through the store's
        batched writer (:meth:`DnsStorage.add_many`, which ``sweep`` is
        passed to). Returns how many records were stored.
        """
        batch = records if isinstance(records, list) else list(records)
        if not batch:
            return 0
        storable = [r for r in batch if r.is_address or r.is_cname]
        self.storage.add_many(storable, sweep=sweep)
        self.stats.records_in += len(batch)
        self.stats.records_stored += len(storable)
        self.stats.records_skipped += len(batch) - len(storable)
        return len(storable)

    def process_columns(self, batch) -> int:
        """The columnar fill path: one :class:`~repro.dns.columnar.DnsBatch`
        straight into storage.

        Equivalent to :meth:`filter_message` per payload followed by one
        :meth:`process_batch` — same counters, same stored set — but the
        batch already carries the per-message accounting from
        :func:`repro.dns.columnar.decode_fill_columns` and every row is
        storable by construction (the decoder only emits A/AAAA/CNAME
        answers). Returns how many records were stored.
        """
        self.stats.raw_messages += batch.messages
        self.stats.invalid += batch.invalid
        self.stats.records_unknown_type += batch.unknown_records
        stored = len(batch)
        if stored:
            self.storage.add_many_columns(batch)
        self.stats.records_in += stored
        self.stats.records_stored += stored
        return stored
