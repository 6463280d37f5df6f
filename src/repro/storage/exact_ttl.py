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
from typing import Dict, Optional

from repro.storage.concurrent_map import DEFAULT_SHARD_COUNT, ConcurrentMap
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
    """Map of key → (value, expiry_ts) with exact expiry semantics."""

    def __init__(
        self,
        num_splits: int = 1,
        shard_count: int = DEFAULT_SHARD_COUNT,
        sweep_interval: float = 60.0,
        max_entries: int = 0,
    ):
        if num_splits <= 0:
            raise ConfigError("num_splits must be positive")
        if sweep_interval <= 0:
            raise ConfigError("sweep_interval must be positive")
        if max_entries < 0:
            raise ConfigError("max_entries must be non-negative")
        self.num_splits = num_splits
        self.sweep_interval = float(sweep_interval)
        #: Memory bound per split map; 0 = unbounded. Exact-TTL's sweeps
        #: only remove *expired* entries — under churn the live set alone
        #: can grow without bound, so the service cap applies here too.
        self.max_entries = max_entries
        self.stats = ExactTtlStats()
        self._maps = [ConcurrentMap(shard_count, num_splits) for _ in range(num_splits)]
        self._last_sweep_ts: Optional[float] = None

    def _split(self, label: int) -> int:
        return label % self.num_splits

    def put(self, label: int, key: str, value: str, ttl: float, ts: float) -> None:
        """Store a record that will expire at ``ts + ttl``."""
        target = self._maps[self._split(label)]
        target.set(key, (value, ts + ttl))
        self.stats.puts += 1
        if self.max_entries:
            self._enforce_cap(target)

    def _enforce_cap(self, cmap: ConcurrentMap) -> None:
        """Trim one split map back to ``max_entries``, oldest first."""
        overflow = len(cmap) - self.max_entries
        if overflow > 0:
            self.stats.evictions += cmap.evict_oldest(overflow)

    def lookup(self, label: int, key: str, now: float) -> Optional[str]:
        """Return the value only while the record's own TTL is live.

        The correlation condition is the paper's A.8 inequality
        ``TTL_dns + Timestamp_dns >= Timestamp_netflow`` (a record is
        usable until it expires). Expired entries found on the read path
        are removed eagerly.
        """
        entry = self._maps[self._split(label)].get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        value, expiry = entry
        if expiry < now:
            self._maps[self._split(label)].pop(key)
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
        scanned = 0
        for cmap in self._maps:
            snapshot = cmap.snapshot()
            scanned += len(snapshot)
            for key, (_value, expiry) in snapshot.items():
                if expiry < now:
                    cmap.pop(key)
                    self.stats.swept_entries += 1
        self.stats.sweeps += 1
        self.stats.sweep_scanned += scanned
        if self.max_entries:
            for cmap in self._maps:
                self._enforce_cap(cmap)
        return scanned

    def total_entries(self) -> int:
        return sum(len(m) for m in self._maps)

    def entry_counts(self) -> Dict[str, int]:
        """Shape-compatible with StoreBank.entry_counts for the mem model."""
        return {"active": self.total_entries(), "inactive": 0, "long": 0}

    def contended_acquisitions(self) -> int:
        return sum(m.contended_acquisitions for m in self._maps)
