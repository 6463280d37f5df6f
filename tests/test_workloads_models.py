"""Tests for the TTL model, diurnal pattern, and malicious-name synthesis."""

import random

import pytest

from repro.dns.rr import RRType
from repro.dns.validation import is_valid_domain, offending_characters
from repro.util.errors import ConfigError
from repro.workloads.diurnal import SECONDS_PER_DAY, DiurnalPattern, FlatPattern
from repro.workloads.malicious import (
    PAPER_DBL_COUNTS_PER_MILLION,
    build_abuse_population,
    botnet_name,
    malformed_name,
    phish_name,
    spam_name,
)
from repro.workloads.ttl_model import TtlModel


class TestTtlModel:
    """The Figure 8 anchors must hold on the model itself and on samples."""

    def test_anchor_99pct_a_below_3600(self):
        model = TtlModel()
        assert model.fraction_below(RRType.A, 3599) >= 0.99

    def test_anchor_99pct_cname_below_7200(self):
        model = TtlModel()
        assert model.fraction_below(RRType.CNAME, 7199) >= 0.99

    def test_anchor_70pct_below_300(self):
        model = TtlModel()
        assert model.fraction_below(RRType.A, 300) >= 0.70

    def test_cname_ttls_longer_than_address(self):
        model = TtlModel()
        assert model.fraction_below(RRType.CNAME, 300) < model.fraction_below(RRType.A, 300)

    def test_sampling_matches_model(self):
        model = TtlModel()
        rng = random.Random(1)
        samples = [model.sample(rng, RRType.A) for _ in range(20000)]
        below_300 = sum(1 for s in samples if s <= 300) / len(samples)
        assert abs(below_300 - model.fraction_below(RRType.A, 300)) < 0.02

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ConfigError):
            TtlModel(address_weights=((60, 0.5),))

    def test_aaaa_uses_address_table(self):
        from repro.workloads.ttl_model import ADDRESS_TTL_WEIGHTS

        model = TtlModel()
        rng = random.Random(2)
        address_values = {v for v, _ in ADDRESS_TTL_WEIGHTS}
        for _ in range(100):
            assert model.sample(rng, RRType.AAAA) in address_values


class TestDiurnalPattern:
    def test_mean_is_about_one(self):
        pattern = DiurnalPattern()
        factors = [pattern.factor(t) for t in range(0, int(SECONDS_PER_DAY), 600)]
        assert abs(sum(factors) / len(factors) - 1.0) < 0.02

    def test_peak_in_evening(self):
        pattern = DiurnalPattern(peak_hour=21.0)
        evening = pattern.factor(21 * 3600)
        night = pattern.factor(4 * 3600)
        assert evening > 1.2 * night

    def test_period_is_one_day(self):
        pattern = DiurnalPattern()
        assert pattern.factor(3600.0) == pytest.approx(pattern.factor(3600.0 + SECONDS_PER_DAY))

    def test_never_non_positive(self):
        pattern = DiurnalPattern(amplitude=0.9)
        assert min(pattern.factor(t) for t in range(0, 86400, 300)) > 0.0

    def test_rate_at(self):
        pattern = FlatPattern()
        assert pattern.rate_at(100.0, 1234.0) == 100.0

    def test_flat_pattern_constant(self):
        pattern = FlatPattern()
        assert pattern.factor(0) == pattern.factor(40000) == 1.0

    def test_amplitude_validation(self):
        with pytest.raises(ValueError):
            DiurnalPattern(amplitude=1.5)


class TestMaliciousNames:
    def test_category_builders_produce_plausible_names(self):
        rng = random.Random(3)
        assert "." in spam_name(rng)
        assert "." in botnet_name(rng)
        assert phish_name(rng).count(".") >= 2

    def test_malformed_names_actually_malformed(self):
        rng = random.Random(4)
        for _ in range(200):
            assert not is_valid_domain(malformed_name(rng))

    def test_underscore_share_near_paper_value(self):
        rng = random.Random(5)
        names = [malformed_name(rng) for _ in range(3000)]
        with_underscore = sum(1 for n in names if "_" in offending_characters(n))
        assert 0.82 < with_underscore / len(names) < 0.92

    def test_population_scales_with_universe(self):
        rng = random.Random(6)
        pop = build_abuse_population(rng, benign_universe_size=1_000_000)
        counts = {cat: len(names) for cat, names in pop.by_category.items()}
        for category, expected in PAPER_DBL_COUNTS_PER_MILLION.items():
            assert abs(counts[category] - expected) <= 1
        # 666k / 39M ≈ 1.7% malformed
        assert abs(counts["mal-formatted"] - 17077) < 100

    def test_small_universe_gets_minimums(self):
        rng = random.Random(7)
        pop = build_abuse_population(rng, benign_universe_size=100)
        for category in PAPER_DBL_COUNTS_PER_MILLION:
            assert len(pop.by_category[category]) >= 3

    def test_all_names_unique(self):
        rng = random.Random(9)
        pop = build_abuse_population(rng, benign_universe_size=10000)
        names = pop.all_names()
        assert len(names) == len(set(names))
