"""A lock-sharded concurrent hashmap, after Go's ``concurrent-map``.

The Go module FlowDNS builds on shards the key space over N independently
locked maps so concurrent readers/writers rarely touch the same lock. A
CPython dict is already thread-safe for single operations under the GIL,
but the *contention behaviour* matters for this reproduction: the
simulation's CPU model charges for contended acquisitions, and compound
operations (get-then-set, snapshot, clear) must stay atomic while the
async engine's snapshot writer reads the maps from an executor thread.
So the sharding and its statistics are implemented faithfully.

Routing is one C-speed hash per key: :func:`key_hash` (CRC-32 of the
key's text bytes). A caller that first spends the hash's low digit on a
choice of its own — the rotating store picks the label split with
``h % num_splits`` — passes that radix as ``hash_divisor`` so the shard
comes from the *next* digit, ``h // hash_divisor % shard_count``. Taking
both from the same low bits would correlate them (``h % 10`` and
``h % 32`` share a factor of 2: half of every map's shards would sit
empty). Callers that already hold ``h`` index :attr:`ConcurrentMap.shards`
directly with that same formula.
"""

from __future__ import annotations

import threading
from itertools import repeat
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple
from zlib import crc32

from repro.util.errors import ConfigError

#: Go concurrent-map's default shard count.
DEFAULT_SHARD_COUNT = 32


def key_hash(key: str) -> int:
    """The routing hash: CRC-32 of the key's text bytes.

    Stable across processes and runs (unlike ``hash()``), computed in C,
    and defined for every string that reaches storage — malformed names
    carry their undecodable bytes as surrogate escapes.
    """
    return crc32(key.encode("utf-8", "surrogateescape"))


def key_hashes(keys: Iterable[str]) -> Iterator[int]:
    """:func:`key_hash` of each key, lazily and without a Python frame per key."""
    return map(crc32, map(str.encode, keys, repeat("utf-8"), repeat("surrogateescape")))


class CountingLock:
    """A mutex (``with lock:``) that counts the acquisitions that had to wait."""

    __slots__ = ("_lock", "contended")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.contended = 0

    def __enter__(self) -> None:
        if not self._lock.acquire(blocking=False):
            self.contended += 1
            self._lock.acquire()

    def __exit__(self, *exc) -> None:
        self._lock.release()


class ConcurrentMap:
    """Thread-safe string-keyed map sharded over independent locks."""

    def __init__(self, shard_count: int = DEFAULT_SHARD_COUNT, hash_divisor: int = 1):
        if shard_count <= 0:
            raise ConfigError("shard_count must be positive")
        if hash_divisor <= 0:
            raise ConfigError("hash_divisor must be positive")
        self.shard_count = shard_count
        self.hash_divisor = hash_divisor
        #: The shard dicts, indexed ``key_hash(key) // hash_divisor %
        #: shard_count``. The list is never rebound (entries may be), so a
        #: caller that routes for itself can hold on to it; single dict
        #: operations are atomic under the GIL, anything compound needs
        #: the caller's own exclusion against this map's other writers.
        self.shards: List[Dict[str, object]] = [{} for _ in range(shard_count)]
        self._locks = [CountingLock() for _ in range(shard_count)]
        #: Where the next eviction sweep starts; see :meth:`evict_oldest`.
        self._evict_cursor = 0

    def _shard_index(self, key: str) -> int:
        return key_hash(key) // self.hash_divisor % self.shard_count

    @property
    def contended_acquisitions(self) -> int:
        return sum(lock.contended for lock in self._locks)

    def set(self, key: str, value) -> None:
        idx = self._shard_index(key)
        with self._locks[idx]:
            self.shards[idx][key] = value

    def get(self, key: str, default=None):
        idx = self._shard_index(key)
        with self._locks[idx]:
            return self.shards[idx].get(key, default)

    def pop(self, key: str, default=None):
        idx = self._shard_index(key)
        with self._locks[idx]:
            return self.shards[idx].pop(key, default)

    def set_if_absent(self, key: str, value) -> bool:
        """Atomically insert; returns True when the key was newly set."""
        idx = self._shard_index(key)
        with self._locks[idx]:
            if key in self.shards[idx]:
                return False
            self.shards[idx][key] = value
            return True

    def update_with(self, key: str, fn: Callable[[Optional[object]], object]) -> object:
        """Atomically read-modify-write one key; returns the new value."""
        idx = self._shard_index(key)
        with self._locks[idx]:
            new_value = fn(self.shards[idx].get(key))
            self.shards[idx][key] = new_value
            return new_value

    def __contains__(self, key: str) -> bool:
        idx = self._shard_index(key)
        with self._locks[idx]:
            return key in self.shards[idx]

    def __len__(self) -> int:
        total = 0
        for idx in range(self.shard_count):
            with self._locks[idx]:
                total += len(self.shards[idx])
        return total

    def clear(self) -> int:
        """Empty every shard; returns how many entries were removed."""
        removed = 0
        for idx in range(self.shard_count):
            with self._locks[idx]:
                removed += len(self.shards[idx])
                self.shards[idx].clear()
        return removed

    def snapshot(self) -> Dict[str, object]:
        """A point-in-time copy (shard-by-shard consistent)."""
        out: Dict[str, object] = {}
        for idx in range(self.shard_count):
            with self._locks[idx]:
                out.update(self.shards[idx])
        return out

    def items(self) -> Iterator[Tuple[str, object]]:
        """Iterate over a snapshot (safe against concurrent mutation)."""
        return iter(self.snapshot().items())

    def replace_contents(self, other: "ConcurrentMap") -> None:
        """Overwrite this map's contents with a snapshot of ``other``.

        Used by buffer rotation: "the current contents of the inactive
        hashmap will be overwritten by the new contents" (Section 3.1).
        Maps that route alike are copied shard to shard — one dict copy
        each, insertion order (eviction's FIFO) intact, no re-hashing.
        """
        if (other.shard_count, other.hash_divisor) == (self.shard_count, self.hash_divisor):
            for idx in range(self.shard_count):
                with other._locks[idx]:
                    copy = dict(other.shards[idx])
                with self._locks[idx]:
                    self.shards[idx] = copy
            return
        incoming = other.snapshot()
        self.clear()
        for key, value in incoming.items():
            self.set(key, value)

    def evict_oldest(self, count: int) -> int:
        """Drop up to ``count`` entries, oldest-inserted first per shard.

        CPython dicts preserve insertion order, so popping each shard's
        first keys is FIFO *within* a shard; across shards a rotating
        cursor spreads the eviction (proportionally to shard size for
        large sweeps, round-robin for the steady single-entry trim at
        the cap), making the whole-map order approximately FIFO.
        Returns how many entries were removed — the memory-bound
        enforcement primitive, not a cache policy.
        """
        if count <= 0:
            return 0
        removed = 0
        while removed < count:
            sizes = self.shard_sizes()
            total = sum(sizes)
            if total == 0:
                break
            remaining = count - removed
            # Start from a rotating cursor: small evictions (the steady
            # one-in-one-out trim at the cap) must cycle through the
            # shards rather than repeatedly draining the lowest-index
            # one, which would evict *recent* entries hashed there while
            # stale entries elsewhere survive.
            start = self._evict_cursor
            for offset in range(self.shard_count):
                idx = (start + offset) % self.shard_count
                size = sizes[idx]
                if size == 0 or remaining <= 0:
                    continue
                # Proportional share, at least 1 from every non-empty
                # shard so tiny shards cannot stall the loop.
                share = min(size, max(1, remaining * size // total))
                self._evict_cursor = (idx + 1) % self.shard_count
                with self._locks[idx]:
                    shard = self.shards[idx]
                    victims = []
                    for key in shard:
                        if len(victims) >= share:
                            break
                        victims.append(key)
                    for key in victims:
                        del shard[key]
                    removed += len(victims)
                    remaining -= len(victims)
        return removed

    def shard_sizes(self) -> List[int]:
        """Per-shard entry counts — used to test hash spread uniformity."""
        sizes = []
        for idx in range(self.shard_count):
            with self._locks[idx]:
                sizes.append(len(self.shards[idx]))
        return sizes
