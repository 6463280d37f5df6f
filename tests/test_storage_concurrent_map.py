"""Tests for repro.storage.concurrent_map."""

import threading

import pytest

from repro.storage.concurrent_map import ConcurrentMap
from repro.util.errors import ConfigError


class TestBasics:
    def test_set_get(self):
        cmap = ConcurrentMap()
        cmap.set("k", "v")
        assert cmap.get("k") == "v"

    def test_get_default(self):
        assert ConcurrentMap().get("missing", "d") == "d"

    def test_contains(self):
        cmap = ConcurrentMap()
        cmap.set("a", 1)
        assert "a" in cmap and "b" not in cmap

    def test_len_spans_shards(self):
        cmap = ConcurrentMap(shard_count=8)
        for i in range(100):
            cmap.set(f"key-{i}", i)
        assert len(cmap) == 100

    def test_pop(self):
        cmap = ConcurrentMap()
        cmap.set("k", 1)
        assert cmap.pop("k") == 1
        assert cmap.pop("k", "gone") == "gone"

    def test_overwrite(self):
        cmap = ConcurrentMap()
        cmap.set("k", 1)
        cmap.set("k", 2)
        assert cmap.get("k") == 2
        assert len(cmap) == 1

    def test_shard_count_validation(self):
        with pytest.raises(ConfigError):
            ConcurrentMap(0)


class TestAtomicOps:
    def test_set_if_absent(self):
        cmap = ConcurrentMap()
        assert cmap.set_if_absent("k", 1) is True
        assert cmap.set_if_absent("k", 2) is False
        assert cmap.get("k") == 1

    def test_update_with(self):
        cmap = ConcurrentMap()
        cmap.update_with("counter", lambda v: (v or 0) + 1)
        cmap.update_with("counter", lambda v: (v or 0) + 1)
        assert cmap.get("counter") == 2


class TestBulkOps:
    def test_clear_returns_removed(self):
        cmap = ConcurrentMap()
        for i in range(10):
            cmap.set(str(i), i)
        assert cmap.clear() == 10
        assert len(cmap) == 0

    def test_snapshot_is_copy(self):
        cmap = ConcurrentMap()
        cmap.set("a", 1)
        snap = cmap.snapshot()
        cmap.set("a", 2)
        assert snap["a"] == 1

    def test_items_iterates_snapshot(self):
        cmap = ConcurrentMap()
        cmap.set("x", 1)
        cmap.set("y", 2)
        assert dict(cmap.items()) == {"x": 1, "y": 2}

    def test_replace_contents(self):
        a = ConcurrentMap()
        b = ConcurrentMap()
        a.set("old", 1)
        b.set("new", 2)
        a.replace_contents(b)
        assert a.get("old") is None
        assert a.get("new") == 2

    def test_shard_sizes_sum_to_len(self):
        cmap = ConcurrentMap(shard_count=16)
        for i in range(500):
            cmap.set(f"key-{i}", i)
        assert sum(cmap.shard_sizes()) == 500

    def test_shard_spread_is_reasonable(self):
        """The key hash should spread keys; no shard should dominate."""
        cmap = ConcurrentMap(shard_count=16)
        for i in range(3200):
            cmap.set(f"domain{i}.example.com", i)
        sizes = cmap.shard_sizes()
        assert max(sizes) < 3 * (3200 // 16)


class TestThreadSafety:
    def test_concurrent_writers_distinct_keys(self):
        cmap = ConcurrentMap(shard_count=4)

        def writer(base):
            for i in range(500):
                cmap.set(f"w{base}-{i}", i)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cmap) == 2000

    def test_concurrent_update_with_is_atomic(self):
        cmap = ConcurrentMap()

        def incrementer():
            for _ in range(1000):
                cmap.update_with("n", lambda v: (v or 0) + 1)

        threads = [threading.Thread(target=incrementer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cmap.get("n") == 4000

    def test_clear_during_writes_keeps_invariants(self):
        cmap = ConcurrentMap(shard_count=8)
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                cmap.set(f"k{i % 100}", i)
                i += 1

        t = threading.Thread(target=writer)
        t.start()
        for _ in range(50):
            cmap.clear()
        stop.set()
        t.join()
        assert len(cmap) <= 100


class TestEvictOldest:
    """The memory-bound enforcement primitive (PR 7): approximately-FIFO
    eviction — exact FIFO within a shard, cursor-rotated across shards."""

    def test_evicts_exactly_the_requested_count(self):
        cmap = ConcurrentMap()
        for i in range(100):
            cmap.set(f"k{i}", i)
        assert cmap.evict_oldest(30) == 30
        assert len(cmap) == 70

    def test_zero_and_negative_are_noops(self):
        cmap = ConcurrentMap()
        cmap.set("k", 1)
        assert cmap.evict_oldest(0) == 0
        assert cmap.evict_oldest(-5) == 0
        assert len(cmap) == 1

    def test_overshoot_empties_and_reports_actual(self):
        cmap = ConcurrentMap()
        for i in range(10):
            cmap.set(f"k{i}", i)
        assert cmap.evict_oldest(1000) == 10
        assert len(cmap) == 0

    def test_steady_trim_spares_recent_inserts(self):
        """One-in-one-out at the cap — the rotating store's hot loop —
        must cycle the eviction cursor across shards so the *newest*
        inserts survive; draining one shard repeatedly would evict
        fresh entries hashed there while stale ones elsewhere live on."""
        cmap = ConcurrentMap()
        cap = 256
        for i in range(cap):
            cmap.set(f"seed{i}", i)
        for i in range(1000):
            cmap.set(f"hot{i}", i)
            cmap.evict_oldest(len(cmap) - cap)
        assert len(cmap) == cap
        survivors = cmap.snapshot()
        assert all(f"hot{i}" in survivors for i in range(990, 1000))
        # Everything seeded long ago is gone.
        assert not any(key.startswith("seed") for key in survivors)
