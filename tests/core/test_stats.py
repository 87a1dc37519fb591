"""Tests for the statistical support module."""

import numpy as np
import pytest

from repro.core.stats import (
    Interval,
    bootstrap_ci,
    compare_networks,
    lingering_summary,
    proportion_ci,
)
from repro.core.timing import LingeringAnalysis


def make_analysis():
    analysis = LingeringAnalysis()
    fast = [float(5 + (i % 10)) for i in range(200)]       # ~5-14 min
    slow = [float(60 + (i % 60)) for i in range(200)]      # ~60-119 min
    analysis.by_network["fast-net"] = fast
    analysis.by_network["slow-net"] = slow
    analysis.minutes = fast + slow
    return analysis


class TestBootstrapCi:
    def test_interval_contains_estimate(self):
        interval = bootstrap_ci([1.0, 2.0, 3.0, 4.0, 5.0] * 20, np.median, seed=1)
        assert interval.low <= interval.estimate <= interval.high
        assert interval.estimate in interval

    def test_narrow_for_constant_sample(self):
        interval = bootstrap_ci([7.0] * 50)
        assert interval.low == interval.high == interval.estimate == 7.0

    def test_deterministic_given_seed(self):
        sample = [float(i) for i in range(30)]
        assert bootstrap_ci(sample, seed=3) == bootstrap_ci(sample, seed=3)

    def test_empty_sample_degenerate(self):
        interval = bootstrap_ci([])
        assert interval.degenerate
        assert np.isnan(interval.estimate)
        assert np.isnan(interval.low) and np.isnan(interval.high)
        assert 0.0 not in interval

    def test_single_sample_zero_width_degenerate(self):
        interval = bootstrap_ci([42.0])
        assert interval.degenerate
        assert interval.low == interval.estimate == interval.high == 42.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.5)

    def test_custom_statistic(self):
        interval = bootstrap_ci([1.0, 2.0, 3.0] * 30, np.mean, seed=2)
        assert 1.5 < interval.estimate < 2.5


class TestProportionCi:
    def test_half(self):
        interval = proportion_ci(50, 100)
        assert interval.estimate == pytest.approx(0.5)
        assert interval.low < 0.5 < interval.high
        assert 0.0 <= interval.low and interval.high <= 1.0

    def test_wilson_never_degenerate_at_extremes(self):
        zero = proportion_ci(0, 20)
        full = proportion_ci(20, 20)
        assert zero.high > 0.0
        assert full.low < 1.0

    def test_larger_samples_tighter(self):
        small = proportion_ci(9, 10)
        large = proportion_ci(900, 1000)
        assert (large.high - large.low) < (small.high - small.low)

    def test_no_trials_degenerate(self):
        interval = proportion_ci(0, 0)
        assert interval.degenerate
        assert np.isnan(interval.estimate)
        assert interval.low == 0.0 and interval.high == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            proportion_ci(1, 0)
        with pytest.raises(ValueError):
            proportion_ci(5, 3)
        with pytest.raises(ValueError):
            proportion_ci(0, -1)

    def test_str_rendering(self):
        assert "@" in str(proportion_ci(5, 10))
        assert "degenerate" in str(proportion_ci(0, 0))


class TestCompareNetworks:
    def test_distinct_distributions_distinguishable(self):
        analysis = make_analysis()
        comparison = compare_networks(analysis, "fast-net", "slow-net")
        assert comparison.statistic > 0.8
        assert comparison.p_value < 0.01

    def test_identical_distributions_not_distinguishable(self):
        analysis = LingeringAnalysis()
        analysis.by_network["a"] = [float(i % 30) for i in range(100)]
        analysis.by_network["b"] = [float(i % 30) for i in range(100)]
        comparison = compare_networks(analysis, "a", "b")
        assert comparison.p_value >= 0.01

    def test_missing_network_rejected(self):
        with pytest.raises(ValueError):
            compare_networks(make_analysis(), "fast-net", "nope")


class TestLingeringSummary:
    def test_headline_numbers(self):
        summary = lingering_summary(make_analysis(), within_minutes=60)
        assert isinstance(summary["median_minutes"], Interval)
        fraction = summary["fraction_within_60m"]
        # Half the synthetic sample is fast (and 60.0 itself counts).
        assert 0.45 < fraction.estimate < 0.56

    def test_per_network(self):
        summary = lingering_summary(make_analysis(), network="fast-net")
        assert summary["fraction_within_60m"].estimate == 1.0

    def test_empty_analysis_degenerate(self):
        summary = lingering_summary(LingeringAnalysis())
        assert summary["median_minutes"].degenerate
        assert summary["fraction_within_60m"].degenerate

    def test_unknown_network_degenerate(self):
        summary = lingering_summary(make_analysis(), network="missing-net")
        assert summary["median_minutes"].degenerate
