"""Tests for repro.util.rng."""

from repro.util.rng import derive_rng


class TestDeriveRng:
    def test_deterministic(self):
        a = derive_rng(5, "dns")
        b = derive_rng(5, "dns")
        assert a.random() == b.random()

    def test_labels_are_independent(self):
        a = derive_rng(5, "dns-0")
        b = derive_rng(5, "dns-1")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_seed_changes_stream(self):
        assert derive_rng(1, "x").random() != derive_rng(2, "x").random()
