"""FillUp processing: DNS records into the shared storage (Section 3.2).

The fill logic lives in :class:`FillUpProcessor` so the async engine
(which drives it from its fill lane), the simulation engine and the
facade share one implementation — any divergence between them would make
the ablation comparisons meaningless. Every DNS input reaches it as one
:class:`~repro.dns.columnar.DnsBatch`: wire payloads through
:func:`~repro.dns.columnar.decode_fill_columns`, stream records through
:meth:`~repro.dns.columnar.DnsBatch.from_records`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.storage_adapter import DnsStorage
from repro.dns.columnar import DnsBatch


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
    #: columnar decoder short-circuits rejected messages before walking
    #: their sections.
    records_unknown_type: int = 0


class FillUpProcessor:
    """Validates and stores DNS records (Section 3.2 steps 2–6)."""

    def __init__(self, storage: DnsStorage):
        self.storage = storage
        self.stats = FillUpStats()

    def process_columns(self, batch: DnsBatch, *, sweep: bool = True) -> int:
        """Steps 4–6 for one :class:`DnsBatch`: one storage round-trip.

        The batch carries the per-message accounting of step 2's
        validity filter, and every row is an A/AAAA or CNAME answer by
        construction; stream records of any other type were counted
        into ``batch.skipped``. The rows go through the store's one
        batched writer (:meth:`DnsStorage.add_many_columns`, which
        ``sweep`` is passed to). Returns how many records were stored.
        """
        stats = self.stats
        stats.raw_messages += batch.messages
        stats.invalid += batch.invalid
        stats.records_unknown_type += batch.unknown_records
        stored = len(batch)
        if stored:
            # Positional, so a wrapper that forwards positional arguments
            # only (bench/inline.py times storage calls that way) still
            # sees this call.
            self.storage.add_many_columns(batch, sweep)
        stats.records_in += stored + batch.skipped
        stats.records_stored += stored
        stats.records_skipped += batch.skipped
        return stored
