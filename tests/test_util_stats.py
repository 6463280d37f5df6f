"""Tests for repro.util.stats."""

import math

import pytest

from repro.util.stats import Ecdf, cumulative_share, gini, percentile, quantiles


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


class TestPercentile:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_nearest_rank(self):
        data = list(range(1, 101))
        assert percentile(data, 50) == 50
        assert percentile(data, 99) == 99
        assert percentile(data, 100) == 100
        assert percentile(data, 0) == 1

    def test_quantiles_multiple(self):
        assert quantiles([1, 2, 3, 4], [0.25, 1.0]) == [1, 4]


class TestCumulativeShare:
    def test_orders_descending_by_default(self):
        shares = cumulative_share({"a": 1.0, "b": 3.0})
        assert shares[0][0] == "b"
        assert math.isclose(shares[0][1], 0.75)
        assert math.isclose(shares[1][1], 1.0)

    def test_empty_total_yields_zero_shares(self):
        shares = cumulative_share({"a": 0.0})
        assert shares == [("a", 0.0)]


class TestGini:
    def test_equal_values_are_zero(self):
        assert abs(gini([5, 5, 5, 5])) < 1e-9

    def test_single_holder_is_close_to_one(self):
        g = gini([0] * 99 + [100])
        assert g > 0.95

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            gini([])
        with pytest.raises(ValueError):
            gini([-1, 2])

    def test_all_zero_is_zero(self):
        assert gini([0, 0, 0]) == 0.0
