"""The FlowDNS facade: the one-object API for embedding the correlator.

The engines (simulation, async) own scheduling and reporting; this
facade owns nothing but the correlation state, for callers that already
have their own event loop and just want the paper's core behaviour:

    fd = FlowDNS()
    fd.add_dns(DnsRecord(ts, query, RRType.A, ttl, answer))
    result = fd.correlate(flow)          # CorrelationResult
    fd.service_of("10.1.2.3", now=ts)    # or just ask for an IP

One thread owns the store: call ``add_dns``/``correlate`` from the
thread that created the facade (or serialise the calls yourself). The
storage is plain dicts with no locks.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, TextIO

from repro.core.config import FlowDNSConfig
from repro.core.fillup import FillUpProcessor
from repro.core.lookup import CorrelationResult, LookUpProcessor
from repro.core.storage_adapter import DnsStorage
from repro.dns.stream import DnsRecord
from repro.netflow.records import FlowBatch, FlowRecord


class FlowDNS:
    """Stateful DNS↔Netflow correlator (Figure 1 without the plumbing)."""

    def __init__(self, config: Optional[FlowDNSConfig] = None):
        self.config = config if config is not None else FlowDNSConfig()
        self.storage = DnsStorage(self.config)
        self._fillup = FillUpProcessor(self.storage)
        self._lookup = LookUpProcessor(self.storage, self.config)
        # Dedicated probe for service_of(): shares the storage but keeps
        # IP-only probes out of the flow statistics.
        self._probe = LookUpProcessor(self.storage, self.config)

    # --- DNS side -------------------------------------------------------------

    def add_dns(self, record: DnsRecord) -> bool:
        """Insert one DNS stream record; True when it was stored."""
        return self._fillup.process_batch((record,)) == 1

    def add_dns_many(self, records: Iterable[DnsRecord]) -> int:
        """Insert many records through the batched fast path.

        The rotation check is amortised and the rows go through the
        store's batched writer; same counters as per-record
        :meth:`add_dns` calls.
        """
        return self._fillup.process_batch(records)

    def add_dns_message(self, ts: float, payload) -> int:
        """Filter + insert a wire-format response (bytes or DnsMessage)."""
        return self._fillup.process_batch(self._fillup.filter_message(ts, payload))

    # --- flow side ------------------------------------------------------------

    def correlate(self, flow: FlowRecord) -> CorrelationResult:
        """Look one flow up; always returns a result (possibly NULL)."""
        batch = self._lookup.correlate_batch_columns(FlowBatch.from_records((flow,)))
        return CorrelationResult(flow, batch.chains[0], flow.ts)

    def correlate_many(self, flows: Iterable[FlowRecord]) -> List[CorrelationResult]:
        """Correlate many flows through the batched fast path.

        Each distinct lookup IP is resolved once for the whole batch (see
        :meth:`LookUpProcessor.correlate_batch_columns` for the exact
        semantics).
        """
        batch = FlowBatch.from_records(flows)
        return self._lookup.correlate_batch_columns(batch).results()

    def service_of(self, ip, now: float) -> Optional[str]:
        """Resolve one bare IP to its service name (or None).

        Uses the same deepLookUp + CNAME-chain walk as flow processing —
        via a dedicated probe processor, so repeated probes cost no object
        churn and never touch the flow statistics.
        """
        chain = self._probe.resolve(str(ip), now)
        return chain[-1] if chain else None

    # --- maintenance / introspection -------------------------------------------

    def tick(self, ts: float) -> None:
        """Advance time-driven maintenance when no DNS records arrive.

        Rotations normally run off record timestamps inside ``add_dns``;
        a caller whose DNS stream can go quiet should tick with its own
        clock so clear-ups still happen on schedule.
        """
        self.storage.tick(ts)

    @property
    def fillup_stats(self):
        return self._fillup.stats

    @property
    def lookup_stats(self):
        return self._lookup.stats

    @property
    def correlation_rate(self) -> float:
        return self._lookup.stats.correlation_rate

    def entry_counts(self):
        return self.storage.entry_counts()

    def save_state(self, sink: TextIO) -> int:
        """Snapshot the DNS maps (see :mod:`repro.storage.snapshot`)."""
        from repro.storage.snapshot import dump_storage

        return dump_storage(self.storage, sink)

    def load_state(self, source: TextIO) -> int:
        from repro.storage.snapshot import load_storage

        return load_storage(self.storage, source)
