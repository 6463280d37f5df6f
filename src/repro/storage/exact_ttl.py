"""Per-record exact-TTL expiry store — the design Appendix A.8 rejects.

This store honours each DNS record's own TTL: a lookup only succeeds while
``record_ts + ttl > now``, and a background clear-up pass walks the whole
map removing expired entries. The paper measured this variant at the large
ISP and saw >90 % stream loss and double the memory within an hour,
because the full-map expiry scans hold the shared maps while the streams
keep arriving. We reproduce that failure mode in the simulation's cost
model: the scan cost here is real (O(total entries) per sweep) and is
charged to the CPU budget, starving the ingest path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.storage.rotating import trim_oldest
from repro.util.errors import ConfigError


@dataclass
class ExactTtlStats:
    puts: int = 0
    hits: int = 0
    misses: int = 0
    expired_on_read: int = 0
    sweeps: int = 0
    swept_entries: int = 0
    sweep_scanned: int = 0
    #: Entries dropped by the ``max_entries`` memory bound (oldest-first),
    #: on top of the TTL expiry the sweeps perform.
    evictions: int = 0


class ExactTtlStore:
    """One dict of key → (value, expiry_ts) with exact expiry semantics."""

    def __init__(self, sweep_interval: float = 60.0, max_entries: int = 0):
        if sweep_interval <= 0:
            raise ConfigError("sweep_interval must be positive")
        if max_entries < 0:
            raise ConfigError("max_entries must be non-negative")
        self.sweep_interval = float(sweep_interval)
        #: Memory bound on the map; 0 = unbounded. Exact-TTL's sweeps
        #: only remove *expired* entries — under churn the live set alone
        #: can grow without bound, so the service cap applies here too.
        self.max_entries = max_entries
        self.stats = ExactTtlStats()
        self.entries: Dict[str, Tuple[str, float]] = {}
        self._last_sweep_ts: Optional[float] = None

    def put(self, key: str, value: str, ttl: float, ts: float) -> None:
        """Store a record that will expire at ``ts + ttl``."""
        self.entries[key] = (value, ts + ttl)
        self.stats.puts += 1
        if self.max_entries:
            self.stats.evictions += trim_oldest(self.entries, self.max_entries)

    def lookup(self, key: str, now: float) -> Optional[str]:
        """Return the value only while the record's own TTL is live.

        The correlation condition is the paper's A.8 inequality
        ``TTL_dns + Timestamp_dns >= Timestamp_netflow`` (a record is
        usable until it expires). Expired entries found on the read path
        are removed eagerly.
        """
        entry = self.entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        value, expiry = entry
        if expiry < now:
            del self.entries[key]
            self.stats.expired_on_read += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def maybe_sweep(self, now: float) -> int:
        """Run the periodic full-map expiry scan when it is due.

        Returns the number of entries *scanned* (the cost driver), not
        removed. This is the "regular process to clear-up the expired DNS
        records" from A.8 whose cost grows with the map.
        """
        if self._last_sweep_ts is None:
            self._last_sweep_ts = now
            return 0
        if now - self._last_sweep_ts < self.sweep_interval:
            return 0
        self._last_sweep_ts = now
        return self.sweep(now)

    def sweep(self, now: float) -> int:
        """Walk every entry, dropping expired ones; returns entries scanned."""
        scanned = len(self.entries)
        expired = [key for key, (_value, expiry) in self.entries.items() if expiry < now]
        for key in expired:
            del self.entries[key]
        self.stats.swept_entries += len(expired)
        self.stats.sweeps += 1
        self.stats.sweep_scanned += scanned
        if self.max_entries:
            self.stats.evictions += trim_oldest(self.entries, self.max_entries)
        return scanned

    def total_entries(self) -> int:
        return len(self.entries)

    def entry_counts(self) -> Dict[str, int]:
        """Shape-compatible with StoreBank.entry_counts for the mem model."""
        return {"active": self.total_entries(), "inactive": 0, "long": 0}
