"""Tests for repro.storage.rotating (the Active/Inactive/Long store)."""

import pytest

from repro.storage.exact_ttl import ExactTtlStore
from repro.storage.rotating import StoreBank, Tier
from repro.util.errors import ConfigError


def bank(**kwargs):
    defaults = dict(clear_up_interval=3600.0)
    defaults.update(kwargs)
    return StoreBank(**defaults)


class TestPutLookup:
    def test_short_ttl_goes_active(self):
        b = bank()
        b.put("1.1.1.1", "a.example", ttl=60, ts=0.0)
        value, tier = b.deep_lookup("1.1.1.1")
        assert value == "a.example" and tier == Tier.ACTIVE

    def test_long_ttl_goes_long(self):
        b = bank()
        b.put("2.2.2.2", "b.example", ttl=7200, ts=0.0)
        _value, tier = b.deep_lookup("2.2.2.2")
        assert tier == Tier.LONG

    def test_boundary_ttl_goes_long(self):
        b = bank()
        b.put("3.3.3.3", "c.example", ttl=3600, ts=0.0)
        assert b.deep_lookup("3.3.3.3")[1] == Tier.LONG

    def test_miss_returns_none(self):
        b = bank()
        assert b.deep_lookup("9.9.9.9") == (None, None)
        assert b.stats.misses == 1

    def test_overwrite_counted(self):
        b = bank()
        b.put("1.1.1.1", "first.example", ttl=60, ts=0.0)
        b.put("1.1.1.1", "second.example", ttl=60, ts=1.0)
        assert b.stats.overwrites == 1
        # Same value again is not an overwrite.
        b.put("1.1.1.1", "second.example", ttl=60, ts=2.0)
        assert b.stats.overwrites == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            StoreBank(clear_up_interval=0)
        with pytest.raises(ConfigError):
            StoreBank(clear_up_interval=10, max_entries=-1)


class TestClearUpRotation:
    def test_rotation_moves_active_to_inactive(self):
        b = bank()
        b.put("1.1.1.1", "a.example", ttl=60, ts=0.0)
        # Crossing the interval rotates before the new put lands.
        b.put("4.4.4.4", "d.example", ttl=60, ts=4000.0)
        value, tier = b.deep_lookup("1.1.1.1")
        assert value == "a.example" and tier == Tier.INACTIVE
        assert b.deep_lookup("4.4.4.4")[1] == Tier.ACTIVE

    def test_second_rotation_drops_old_generation(self):
        b = bank()
        b.put("1.1.1.1", "a.example", ttl=60, ts=0.0)
        b.put("2.2.2.2", "b.example", ttl=60, ts=4000.0)
        b.put("3.3.3.3", "c.example", ttl=60, ts=8000.0)
        assert b.deep_lookup("1.1.1.1") == (None, None)
        assert b.deep_lookup("2.2.2.2")[1] == Tier.INACTIVE

    def test_long_survives_rotations(self):
        b = bank()
        b.put("5.5.5.5", "long.example", ttl=86400, ts=0.0)
        for ts in (4000.0, 8000.0, 12000.0):
            b.put("x", "y", ttl=60, ts=ts)
        assert b.deep_lookup("5.5.5.5")[1] == Tier.LONG

    def test_clear_up_timer_driven_by_record_ts(self):
        b = bank()
        b.put("1.1.1.1", "a.example", ttl=60, ts=100.0)
        # 3599 seconds later: no rotation yet.
        assert b.maybe_clear_up(3699.0) is False
        assert b.deep_lookup("1.1.1.1")[1] == Tier.ACTIVE
        assert b.maybe_clear_up(3700.0) is True
        assert b.deep_lookup("1.1.1.1")[1] == Tier.INACTIVE

    def test_rotation_stats(self):
        b = bank()
        b.put("1.1.1.1", "a.example", ttl=60, ts=0.0)
        b.force_clear_up()
        assert b.stats.rotations == 1
        assert b.stats.entries_rotated == 1
        assert b.stats.entries_cleared == 1


class TestAblationFlags:
    def test_no_clear_up_keeps_everything(self):
        b = bank(clear_up_enabled=False)
        b.put("1.1.1.1", "a.example", ttl=60, ts=0.0)
        b.put("2.2.2.2", "b.example", ttl=60, ts=100000.0)
        assert b.deep_lookup("1.1.1.1")[1] == Tier.ACTIVE

    def test_no_rotation_discards_on_clear(self):
        b = bank(rotation_enabled=False)
        b.put("1.1.1.1", "a.example", ttl=60, ts=0.0)
        b.put("2.2.2.2", "b.example", ttl=60, ts=4000.0)
        assert b.deep_lookup("1.1.1.1") == (None, None)

    def test_no_long_places_long_ttl_in_active(self):
        b = bank(long_enabled=False)
        b.put("5.5.5.5", "long.example", ttl=86400, ts=0.0)
        assert b.deep_lookup("5.5.5.5")[1] == Tier.ACTIVE
        b.put("x", "y", ttl=60, ts=4000.0)
        b.put("x2", "y2", ttl=60, ts=8000.0)
        assert b.deep_lookup("5.5.5.5") == (None, None)


class TestAccounting:
    def test_entry_counts(self):
        b = bank()
        b.put("1.1.1.1", "a", ttl=60, ts=0.0)
        b.put("2.2.2.2", "b", ttl=86400, ts=0.0)
        counts = b.entry_counts()
        assert counts["active"] == 1 and counts["long"] == 1 and counts["inactive"] == 0
        assert b.total_entries() == 2

    def test_put_active_direct(self):
        b = bank()
        b.put_active("memo", "result")
        assert b.deep_lookup("memo")[0] == "result"


class TestExactFifo:
    """Under a cap of k, a tier keeps exactly its k newest keys, oldest
    first: eviction is exact FIFO per tier, whichever path fills it."""

    N = 500
    CAP = 37
    KEYS = [f"10.0.{i // 256}.{i % 256}" for i in range(N)]

    def test_put_rows(self):
        b = bank(max_entries=self.CAP)
        for start in range(0, self.N, 64):  # several rotation-free runs
            chunk = self.KEYS[start:start + 64]
            b.put_rows(chunk, ["v"] * len(chunk), [60.0] * len(chunk), [0.0] * len(chunk))
        assert [k for k in self.KEYS if b.lookup(k)] == self.KEYS[-self.CAP:]
        assert list(b.active) == self.KEYS[-self.CAP:]
        assert b.stats.evictions == self.N - self.CAP

    def test_put(self):
        b = bank(max_entries=self.CAP)
        for key in self.KEYS:
            b.put(key, "v", ttl=60, ts=0.0)
        assert list(b.active) == self.KEYS[-self.CAP:]
        assert b.stats.evictions == self.N - self.CAP

    def test_exact_ttl_store(self):
        store = ExactTtlStore(max_entries=self.CAP)
        for key in self.KEYS:
            store.put(key, "v", ttl=60, ts=0.0)
        assert [k for k in self.KEYS if store.lookup(k, now=1.0)] == self.KEYS[-self.CAP:]
        assert list(store.entries) == self.KEYS[-self.CAP:]
        assert store.stats.evictions == self.N - self.CAP

