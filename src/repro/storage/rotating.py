"""The Active / Inactive / Long rotating store (Section 3.1, Table 1).

FlowDNS cannot expire DNS records by exact TTL (Appendix A.8 shows that
collapses under contention) and cannot keep them forever (memory). Its
answer is a three-tier store:

* **Active** — where new records with TTL below the clear-up interval go;
* **Inactive** — the previous Active generation, handed over at each
  clear-up ("buffer rotation"), so lookups shortly after a clear-up still
  hit recently-seen records;
* **Long** — records whose TTL is at least the clear-up interval; never
  cleared (the paper also allows clearing them much less frequently;
  this store does not).

Lookups walk Active → Inactive → Long (Algorithm 2's ``deepLookUp``).

One :class:`StoreBank` implements the triple for one record family
(IP-NAME or NAME-CNAME) as three plain dicts. The paper splits and
lock-shards its maps so that many Go workers can write at once; here one
thread (the engine's event loop) owns the store, so a tier is one dict
keyed by Python's own string hash. Ablation flags (``rotation_enabled``,
``clear_up_enabled``, ``long_enabled``) turn the bank into the paper's
*No Rotation* / *No Clear-Up* / *No Long Hashmaps* variants without code
duplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Collection, Dict, Optional, Sequence, Tuple

from repro.util.errors import ConfigError

#: A timestamp distance no record reaches: "never due", "never long".
_NEVER = float("inf")


def trim_oldest(entries: Dict, cap: int) -> int:
    """Drop the oldest-inserted keys of ``entries`` until at most ``cap``
    remain; returns how many were dropped.

    A dict keeps insertion order (an overwrite keeps the key's place), so
    this is exact FIFO — the memory-bound primitive, not a cache policy.
    """
    overflow = len(entries) - cap
    if overflow <= 0:
        return 0
    for key in list(islice(entries, overflow)):
        del entries[key]
    return overflow


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


class StoreBank:
    """Active/Inactive/Long hashmap triple: the dicts :attr:`active`,
    :attr:`inactive` and :attr:`long`.

    :meth:`put_rows`, :meth:`lookup`, :meth:`lookup_many` and
    :meth:`put_active` (step 7's chain memo) are the production path.
    :meth:`put` / :meth:`deep_lookup` are Algorithm 1/2 one record at a
    time, the store's own API that the batched path is tested against.
    """

    def __init__(
        self,
        clear_up_interval: float,
        rotation_enabled: bool = True,
        clear_up_enabled: bool = True,
        long_enabled: bool = True,
        max_entries: int = 0,
    ):
        if clear_up_interval <= 0:
            raise ConfigError("clear_up_interval must be positive")
        if max_entries < 0:
            raise ConfigError("max_entries must be non-negative")
        self.clear_up_interval = float(clear_up_interval)
        #: Memory bound per tier; 0 = unbounded (the paper's deployment
        #: relies on clear-up alone, but a week-long service under CNAME
        #: churn needs a hard cap).
        self.max_entries = max_entries
        self.rotation_enabled = rotation_enabled
        self.clear_up_enabled = clear_up_enabled
        self.long_enabled = long_enabled
        self.stats = RotatingStoreStats()
        #: The tiers. A clear-up rebinds them, so hold a tier only
        #: between clear-ups.
        self.active: Dict[str, str] = {}
        self.inactive: Dict[str, str] = {}
        self.long: Dict[str, str] = {}
        self._last_clear_ts: Optional[float] = None

    def put(self, key: str, value: str, ttl: float, ts: float) -> None:
        """Insert one record, running the clear-up check first (Algorithm 1).

        The clear-up clock is driven by *record timestamps*, not wall time,
        so offline replays behave identically to live operation.
        """
        self.maybe_clear_up(ts)
        goes_long = self.long_enabled and ttl >= self.clear_up_interval
        target = self.long if goes_long else self.active
        if target.get(key, value) != value:
            # Same key, new name: the overwrite the paper's accuracy
            # analysis quantifies (multiple domains on one IP).
            self.stats.overwrites += 1
        target[key] = value
        self.stats.puts += 1
        if goes_long:
            self.stats.puts_long += 1
        if self.max_entries:
            self.stats.evictions += trim_oldest(target, self.max_entries)

    def put_rows(
        self,
        keys: Sequence[str],
        values: Sequence[str],
        ttls: Sequence[float],
        stamps: Sequence[float],
    ) -> None:
        """Insert parallel key/value/ttl/ts columns: batched Algorithm 1.

        One pass: a rotation runs at exactly the row where per-record
        :meth:`put` would run it, and each row is compared and stored in
        its tier (last write wins per key). ``max_entries`` is enforced
        where a rotation-free run of rows ends: before each rotation and
        after the last row.
        """
        interval = self.clear_up_interval
        long_floor = interval if self.long_enabled else _NEVER
        active, long_ = self.active, self.long
        puts_long = overwrites = 0
        # ``ts - last >= interval`` is Algorithm 1's test. No clock yet
        # (first record ever) reads as due, and maybe_clear_up starts the
        # clock there; with clear-up off nothing is ever due.
        last = self._last_clear_ts if self.clear_up_enabled else _NEVER
        if last is None:
            last = -_NEVER
        for key, value, ttl, ts in zip(keys, values, ttls, stamps):
            if ts - last >= interval:
                self._enforce_caps()
                self.maybe_clear_up(ts)
                last = self._last_clear_ts
                active, long_ = self.active, self.long
            if ttl >= long_floor:
                target = long_
                puts_long += 1
            else:
                target = active
            if target.get(key, value) != value:
                overwrites += 1
            target[key] = value
        self._enforce_caps()
        self.stats.puts += len(keys)
        self.stats.puts_long += puts_long
        self.stats.overwrites += overwrites

    def _enforce_caps(self) -> None:
        """Trim every tier back to ``max_entries``, oldest first."""
        if self.max_entries:
            for tier in (self.active, self.inactive, self.long):
                self.stats.evictions += trim_oldest(tier, self.max_entries)

    def deep_lookup(self, key: str) -> Tuple[Optional[str], Optional[Tier]]:
        """Algorithm 2's deepLookUp: Active, then Inactive, then Long."""
        value = self.active.get(key)
        if value is not None:
            self.stats.hits[Tier.ACTIVE.value] += 1
            return value, Tier.ACTIVE
        value = self.inactive.get(key)
        if value is not None:
            self.stats.hits[Tier.INACTIVE.value] += 1
            return value, Tier.INACTIVE
        value = self.long.get(key)
        if value is not None:
            self.stats.hits[Tier.LONG.value] += 1
            return value, Tier.LONG
        self.stats.misses += 1
        return None, None

    def lookup(self, key: str) -> Optional[str]:
        """:meth:`deep_lookup`'s value alone."""
        return self.deep_lookup(key)[0]

    def lookup_many(self, keys: Collection[str]) -> Dict[str, str]:
        """Batched :meth:`lookup` over unique keys.

        Returns ``{key: value}`` for the hits; missing keys are absent.
        Tier hit counters are updated in bulk.
        """
        active, inactive, long_ = self.active, self.inactive, self.long
        out: Dict[str, str] = {}
        from_inactive = from_long = misses = 0
        for key in keys:
            value = active.get(key)
            if value is None:
                value = inactive.get(key)
                if value is not None:
                    from_inactive += 1
                else:
                    value = long_.get(key)
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

    def put_active(self, key: str, value: str) -> None:
        """Direct Active insert, used for CNAME chain memoisation (step 7)."""
        self.active[key] = value
        self.stats.puts += 1
        if self.max_entries:
            self.stats.evictions += trim_oldest(self.active, self.max_entries)

    def maybe_clear_up(self, ts: float) -> bool:
        """Rotate + clear when a clear-up interval has elapsed.

        Mirrors Algorithm 1: ``if d.ts - lastClearUpTs >= interval`` then
        Inactive = Active; Active = {}. With rotation disabled Active is
        simply emptied; with clear-up disabled nothing happens.
        """
        if not self.clear_up_enabled:
            return False
        if self._last_clear_ts is None:
            self._last_clear_ts = ts
            return False
        if ts - self._last_clear_ts < self.clear_up_interval:
            return False
        self.force_clear_up()
        self._last_clear_ts = ts
        return True

    def force_clear_up(self) -> None:
        """Run a clear-up round now (due rounds, tests, the A.8 harness)."""
        self.stats.entries_cleared += len(self.active)
        if self.rotation_enabled:
            self.inactive = self.active
            self.stats.entries_rotated += len(self.inactive)
        self.active = {}
        # A restored snapshot may hand over tiers above the bound.
        self._enforce_caps()
        self.stats.rotations += 1

    def entry_counts(self) -> Dict[str, int]:
        """Entry totals per tier — the memory model's primary input."""
        return {
            Tier.ACTIVE.value: len(self.active),
            Tier.INACTIVE.value: len(self.inactive),
            Tier.LONG.value: len(self.long),
        }

    def total_entries(self) -> int:
        return len(self.active) + len(self.inactive) + len(self.long)

