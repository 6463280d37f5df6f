"""Tests for repro.storage.exact_ttl (the Appendix A.8 store)."""

import pytest

from repro.storage.exact_ttl import ExactTtlStore
from repro.util.errors import ConfigError


class TestExactExpiry:
    def test_live_record_found(self):
        store = ExactTtlStore()
        store.put("1.1.1.1", "a.example", ttl=60, ts=100.0)
        assert store.lookup("1.1.1.1", now=150.0) == "a.example"

    def test_expired_record_not_found(self):
        store = ExactTtlStore()
        store.put("1.1.1.1", "a.example", ttl=60, ts=100.0)
        assert store.lookup("1.1.1.1", now=161.0) is None
        assert store.stats.expired_on_read == 1

    def test_expiry_boundary_is_inclusive(self):
        """The A.8 condition: usable while TTL+ts >= now."""
        store = ExactTtlStore()
        store.put("1.1.1.1", "a.example", ttl=60, ts=100.0)
        assert store.lookup("1.1.1.1", now=160.0) == "a.example"

    def test_expired_on_read_removes_entry(self):
        store = ExactTtlStore()
        store.put("1.1.1.1", "a.example", ttl=10, ts=0.0)
        store.lookup("1.1.1.1", now=100.0)
        assert store.total_entries() == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExactTtlStore(max_entries=-1)
        with pytest.raises(ConfigError):
            ExactTtlStore(sweep_interval=0)


class TestSweep:
    def test_sweep_removes_expired_only(self):
        store = ExactTtlStore()
        store.put("old", "v", ttl=10, ts=0.0)
        store.put("new", "v", ttl=1000, ts=0.0)
        scanned = store.sweep(now=500.0)
        assert scanned == 2
        assert store.total_entries() == 1
        assert store.stats.swept_entries == 1

    def test_maybe_sweep_respects_interval(self):
        store = ExactTtlStore(sweep_interval=60.0)
        store.put("k", "v", ttl=1, ts=0.0)
        assert store.maybe_sweep(0.0) == 0  # arms the timer
        assert store.maybe_sweep(30.0) == 0
        assert store.maybe_sweep(61.0) == 1  # scanned one entry
        assert store.stats.sweeps == 1

    def test_sweep_cost_grows_with_map(self):
        """The A.8 failure driver: sweep scans everything, every time."""
        store = ExactTtlStore()
        for i in range(100):
            store.put(f"10.0.0.{i}", "v", ttl=10_000, ts=0.0)
        assert store.sweep(now=1.0) == 100
        assert store.sweep(now=2.0) == 100  # nothing expired, still 100 scanned
        assert store.stats.sweep_scanned == 200

    def test_entry_counts_shape(self):
        store = ExactTtlStore()
        store.put("k", "v", ttl=100, ts=0.0)
        assert store.entry_counts() == {"active": 1, "inactive": 0, "long": 0}


class TestAccounting:
    def test_hits_misses_counted(self):
        store = ExactTtlStore()
        store.put("k", "v", ttl=100, ts=0.0)
        store.lookup("k", now=1.0)
        store.lookup("absent", now=1.0)
        assert store.stats.hits == 1 and store.stats.misses == 1
