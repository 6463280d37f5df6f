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

from typing import Optional

from repro.core.config import FlowDNSConfig
from repro.core.fillup import FillUpProcessor
from repro.core.lookup import CorrelationResult, LookUpProcessor
from repro.core.storage_adapter import DnsStorage
from repro.dns.columnar import DnsBatch
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
        return self._fillup.process_columns(DnsBatch.from_records((record,))) == 1

    # --- flow side ------------------------------------------------------------

    def correlate(self, flow: FlowRecord) -> CorrelationResult:
        """Look one flow up; always returns a result (possibly NULL)."""
        batch = self._lookup.correlate_batch_columns(FlowBatch.from_records((flow,)))
        return CorrelationResult(flow, batch.chains[0], flow.ts)

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
    def lookup_stats(self):
        return self._lookup.stats

    @property
    def correlation_rate(self) -> float:
        return self._lookup.stats.correlation_rate

    def entry_counts(self):
        return self.storage.entry_counts()
