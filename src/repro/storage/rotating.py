"""The Active / Inactive / Long rotating store (Section 3.1, Table 1).

FlowDNS cannot expire DNS records by exact TTL (Appendix A.8 shows that
collapses under contention) and cannot keep them forever (memory). Its
answer is a three-tier store:

* **Active** — where new records with TTL below the clear-up interval go;
* **Inactive** — a copy of the previous Active generation, made at each
  clear-up ("buffer rotation"), so lookups shortly after a clear-up still
  hit recently-seen records;
* **Long** — records whose TTL is at least the clear-up interval; never
  cleared (or cleared much less frequently).

Lookups walk Active → Inactive → Long (Algorithm 2's ``deepLookUp``).

One :class:`StoreBank` implements the triple for one record family
(IP-NAME or NAME-CNAME) across ``num_splits`` label splits. Ablation flags
(``rotation_enabled``, ``clear_up_enabled``, ``long_enabled``) turn the
bank into the paper's *No Rotation* / *No Clear-Up* / *No Long Hashmaps*
variants without code duplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.storage.concurrent_map import (
    DEFAULT_SHARD_COUNT,
    ConcurrentMap,
    CountingLock,
    key_hash,
    key_hashes,
)
from repro.util.errors import ConfigError

#: A timestamp distance no record reaches: "never due", "never long".
_NEVER = float("inf")


class Tier(Enum):
    """Which hashmap a lookup was served from."""

    ACTIVE = "active"
    INACTIVE = "inactive"
    LONG = "long"


@dataclass
class RotatingStoreStats:
    """Lifetime counters for one bank."""

    puts: int = 0
    puts_long: int = 0
    overwrites: int = 0
    rotations: int = 0
    entries_rotated: int = 0
    entries_cleared: int = 0
    #: Entries dropped by the ``max_entries`` memory bound (oldest-first),
    #: distinct from ``entries_cleared`` (scheduled clear-up rounds).
    evictions: int = 0
    hits: Dict[str, int] = field(default_factory=lambda: {t.value: 0 for t in Tier})
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.misses + sum(self.hits.values())

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return (lookups - self.misses) / lookups if lookups else 0.0


class StoreBank:
    """Active/Inactive/Long hashmap triple over ``num_splits`` splits.

    :meth:`put_rows`, :meth:`lookup` and :meth:`lookup_many` are the
    production path: one :func:`~repro.storage.concurrent_map.key_hash`
    per key, split and shard taken from it, the row written to (or probed
    in) that shard dict directly. :meth:`put` / :meth:`deep_lookup` /
    :meth:`put_active` are Algorithm 1/2 one record at a time with the
    label passed in — the reference the batched path is tested against.
    They agree whenever the label is the key's hash.
    """

    def __init__(
        self,
        clear_up_interval: float,
        num_splits: int = 1,
        shard_count: int = DEFAULT_SHARD_COUNT,
        rotation_enabled: bool = True,
        clear_up_enabled: bool = True,
        long_enabled: bool = True,
        long_clear_every: int = 0,
        max_entries: int = 0,
    ):
        if clear_up_interval <= 0:
            raise ConfigError("clear_up_interval must be positive")
        if num_splits <= 0:
            raise ConfigError("num_splits must be positive")
        if max_entries < 0:
            raise ConfigError("max_entries must be non-negative")
        self.clear_up_interval = float(clear_up_interval)
        self.num_splits = num_splits
        self.shard_count = shard_count
        #: Memory bound per constituent hashmap (each tier × split map);
        #: 0 = unbounded (the paper's deployment relies on clear-up alone,
        #: but a week-long service under CNAME churn needs a hard cap).
        self.max_entries = max_entries
        self.rotation_enabled = rotation_enabled
        self.clear_up_enabled = clear_up_enabled
        self.long_enabled = long_enabled
        # "never cleared or are cleared much less frequently": 0 = never;
        # k > 0 = cleared on every k-th clear-up round.
        self.long_clear_every = long_clear_every
        self.stats = RotatingStoreStats()
        # The split spends the hash's low digit; each map shards on the next.
        self._active = [ConcurrentMap(shard_count, num_splits) for _ in range(num_splits)]
        self._inactive = [ConcurrentMap(shard_count, num_splits) for _ in range(num_splits)]
        self._long = [ConcurrentMap(shard_count, num_splits) for _ in range(num_splits)]
        self._last_clear_ts: Optional[float] = None
        self._clear_rounds = 0
        #: Held around every compound mutation (a fill segment, a rotation,
        #: a cap trim) so the direct writer, which takes no shard locks,
        #: never runs under another worker's eviction scan or rotation.
        self._lock = CountingLock()

    def _split(self, label: int) -> int:
        return label % self.num_splits

    def put(self, label: int, key: str, value: str, ttl: float, ts: float) -> None:
        """Insert one record, running the clear-up check first (Algorithm 1).

        The clear-up clock is driven by *record timestamps*, not wall time,
        so offline replays behave identically to live operation.
        """
        with self._lock:
            self._clear_up_locked(ts)
            n = self._split(label)
            goes_long = self.long_enabled and ttl >= self.clear_up_interval
            target = self._long[n] if goes_long else self._active[n]
            previous = target.get(key)
            if previous is not None and previous != value:
                # Same key, new name: the overwrite the paper's accuracy
                # analysis quantifies (multiple domains on one IP).
                self.stats.overwrites += 1
            target.set(key, value)
            self.stats.puts += 1
            if goes_long:
                self.stats.puts_long += 1
            if self.max_entries:
                self._enforce_cap(target)

    def put_rows(
        self,
        keys: Sequence[str],
        values: Sequence[str],
        ttls: Sequence[float],
        stamps: Sequence[float],
    ) -> None:
        """Insert parallel key/value/ttl/ts columns: batched Algorithm 1.

        One pass, one hash per row: a rotation runs at exactly the row
        where per-record :meth:`put` would run it, and each row is
        compared and stored in its shard dict (last write wins per key).
        ``max_entries`` is enforced where a rotation-free run of rows
        ends: before each rotation and after the last row.
        """
        splits = self.num_splits
        shard_count = self.shard_count
        interval = self.clear_up_interval
        long_floor = interval if self.long_enabled else _NEVER
        active = [cmap.shards for cmap in self._active]
        long_ = [cmap.shards for cmap in self._long]
        puts_long = overwrites = 0
        with self._lock:
            # ``ts - last >= interval`` is Algorithm 1's test. No clock yet
            # (first record ever) reads as due, and _clear_up_locked starts
            # the clock there; with clear-up off nothing is ever due.
            last = self._last_clear_ts if self.clear_up_enabled else _NEVER
            if last is None:
                last = -_NEVER
            for h, key, value, ttl, ts in zip(key_hashes(keys), keys, values, ttls, stamps):
                if ts - last >= interval:
                    self._enforce_caps()
                    self._clear_up_locked(ts)
                    last = self._last_clear_ts
                if ttl >= long_floor:
                    shard = long_[h % splits][h // splits % shard_count]
                    puts_long += 1
                else:
                    shard = active[h % splits][h // splits % shard_count]
                previous = shard.get(key)
                if previous is not None and previous != value:
                    overwrites += 1
                shard[key] = value
            self._enforce_caps()
            self.stats.puts += len(keys)
            self.stats.puts_long += puts_long
            self.stats.overwrites += overwrites

    def _enforce_cap(self, cmap: ConcurrentMap) -> None:
        """Trim one constituent map back to ``max_entries``, oldest first."""
        overflow = len(cmap) - self.max_entries
        if overflow > 0:
            self.stats.evictions += cmap.evict_oldest(overflow)

    def _enforce_caps(self) -> None:
        """Trim the maps fills write to; the caller holds the bank lock."""
        if self.max_entries:
            for cmap in self._active:
                self._enforce_cap(cmap)
            for cmap in self._long:
                self._enforce_cap(cmap)

    def _probe(self, n: int, idx: int, key: str) -> Tuple[Optional[str], Optional[Tier]]:
        """Algorithm 2's deepLookUp in one (split, shard) cell."""
        value = self._active[n].shards[idx].get(key)
        if value is not None:
            self.stats.hits[Tier.ACTIVE.value] += 1
            return value, Tier.ACTIVE
        value = self._inactive[n].shards[idx].get(key)
        if value is not None:
            self.stats.hits[Tier.INACTIVE.value] += 1
            return value, Tier.INACTIVE
        value = self._long[n].shards[idx].get(key)
        if value is not None:
            self.stats.hits[Tier.LONG.value] += 1
            return value, Tier.LONG
        self.stats.misses += 1
        return None, None

    def deep_lookup(self, label: int, key: str) -> Tuple[Optional[str], Optional[Tier]]:
        """Algorithm 2's deepLookUp: Active, then Inactive, then Long."""
        h = key_hash(key)
        return self._probe(self._split(label), h // self.num_splits % self.shard_count, key)

    def lookup(self, key: str) -> Optional[str]:
        """:meth:`deep_lookup` with the key's own hash as its label."""
        h = key_hash(key)
        return self._probe(h % self.num_splits, h // self.num_splits % self.shard_count, key)[0]

    def lookup_many(self, keys: Collection[str]) -> Dict[str, str]:
        """Batched :meth:`lookup` over unique keys.

        Returns ``{key: value}`` for the hits; missing keys are absent.
        Tier hit counters are updated in bulk.
        """
        splits = self.num_splits
        shard_count = self.shard_count
        active = [cmap.shards for cmap in self._active]
        inactive = [cmap.shards for cmap in self._inactive]
        long_ = [cmap.shards for cmap in self._long]
        out: Dict[str, str] = {}
        from_inactive = from_long = misses = 0
        for h, key in zip(key_hashes(keys), keys):
            n = h % splits
            idx = h // splits % shard_count
            value = active[n][idx].get(key)
            if value is None:
                value = inactive[n][idx].get(key)
                if value is not None:
                    from_inactive += 1
                else:
                    value = long_[n][idx].get(key)
                    if value is None:
                        misses += 1
                        continue
                    from_long += 1
            out[key] = value
        hits = self.stats.hits
        hits[Tier.ACTIVE.value] += len(out) - from_inactive - from_long
        hits[Tier.INACTIVE.value] += from_inactive
        hits[Tier.LONG.value] += from_long
        self.stats.misses += misses
        return out

    def put_active(self, label: int, key: str, value: str) -> None:
        """Direct Active insert, used for CNAME chain memoisation (step 7)."""
        target = self._active[self._split(label)]
        with self._lock:
            target.set(key, value)
            self.stats.puts += 1
            if self.max_entries:
                self._enforce_cap(target)

    def maybe_clear_up(self, ts: float) -> bool:
        """Rotate + clear when a clear-up interval has elapsed.

        Mirrors Algorithm 1: ``if d.ts - lastClearUpTs >= interval`` then
        Inactive = Active; Active = {}. With rotation disabled the Active
        maps are simply cleared; with clear-up disabled nothing happens.
        """
        # Cheap unguarded pre-check: only a due rotation takes the lock.
        last = self._last_clear_ts
        if last is not None and ts - last < self.clear_up_interval:
            return False
        with self._lock:
            return self._clear_up_locked(ts)

    def _clear_up_locked(self, ts: float) -> bool:
        """:meth:`maybe_clear_up` for callers that hold the bank lock."""
        if not self.clear_up_enabled:
            return False
        if self._last_clear_ts is None:
            self._last_clear_ts = ts
            return False
        if ts - self._last_clear_ts < self.clear_up_interval:
            return False  # another worker rotated while we waited
        self._run_clear_up()
        self._last_clear_ts = ts
        return True

    def _run_clear_up(self) -> None:
        self._clear_rounds += 1
        for n in range(self.num_splits):
            if self.rotation_enabled:
                self._inactive[n].replace_contents(self._active[n])
                self.stats.entries_rotated += len(self._inactive[n])
            self.stats.entries_cleared += self._active[n].clear()
        if self.long_clear_every and self._clear_rounds % self.long_clear_every == 0:
            for n in range(self.num_splits):
                self.stats.entries_cleared += self._long[n].clear()
        if self.max_entries:
            # Rotation boundary enforcement: the rotated-in inactive copy
            # and the never-cleared long tier are trimmed here (puts only
            # police the maps they write to).
            for n in range(self.num_splits):
                self._enforce_cap(self._inactive[n])
                self._enforce_cap(self._long[n])
        self.stats.rotations += 1

    def force_clear_up(self) -> None:
        """Run a clear-up round immediately (used by tests and A.8 harness)."""
        with self._lock:
            self._run_clear_up()

    def entry_counts(self) -> Dict[str, int]:
        """Entry totals per tier — the memory model's primary input."""
        return {
            Tier.ACTIVE.value: sum(len(m) for m in self._active),
            Tier.INACTIVE.value: sum(len(m) for m in self._inactive),
            Tier.LONG.value: sum(len(m) for m in self._long),
        }

    def total_entries(self) -> int:
        return sum(self.entry_counts().values())

    def contended_acquisitions(self) -> int:
        maps = self._active + self._inactive + self._long
        return self._lock.contended + sum(m.contended_acquisitions for m in maps)

    def split_sizes(self) -> List[int]:
        """Active entries per split — used to test label spread."""
        return [len(m) for m in self._active]


class RotatingStore:
    """The full FlowDNS internal storage: IP-NAME and NAME-CNAME banks.

    Keys follow the paper exactly: the hashmap key is the DNS *answer*
    (the IP address for A/AAAA, the canonical name for CNAME) and the
    value is the *query* name.
    """

    def __init__(self, ip_name: StoreBank, name_cname: StoreBank):
        self.ip_name = ip_name
        self.name_cname = name_cname

    def total_entries(self) -> int:
        return self.ip_name.total_entries() + self.name_cname.total_entries()

    def entry_counts(self) -> Dict[str, Dict[str, int]]:
        return {
            "ip_name": self.ip_name.entry_counts(),
            "name_cname": self.name_cname.entry_counts(),
        }
