"""Tests for repro.util.stats."""

import pytest

from repro.util.stats import Ecdf


class TestEcdf:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Ecdf([])

    def test_at_is_proportion_leq(self):
        ecdf = Ecdf([1, 2, 3, 4])
        assert ecdf.at(0) == 0.0
        assert ecdf.at(1) == 0.25
        assert ecdf.at(2.5) == 0.5
        assert ecdf.at(4) == 1.0
        assert ecdf.at(100) == 1.0

    def test_quantile_inverse_of_at(self):
        ecdf = Ecdf([10, 20, 30, 40, 50])
        assert ecdf.quantile(0.2) == 10
        assert ecdf.quantile(0.5) == 30
        assert ecdf.quantile(1.0) == 50

    def test_quantile_zero_is_min(self):
        assert Ecdf([5, 1, 9]).quantile(0.0) == 1

    def test_quantile_validates_range(self):
        with pytest.raises(ValueError):
            Ecdf([1]).quantile(1.5)

    def test_points_deduplicate(self):
        pts = Ecdf([1, 1, 2]).points()
        assert pts == [(1.0, 2 / 3), (2.0, 1.0)]

    def test_min_max(self):
        ecdf = Ecdf([3, 1, 4])
        assert ecdf.min == 1 and ecdf.max == 4

    def test_len(self):
        assert len(Ecdf([1, 2, 3])) == 3

