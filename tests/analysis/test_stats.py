"""Tests for the statistics helpers."""

import pytest

from repro.analysis.stats import mean_confidence_interval, summarize


class TestSummary:
    def test_basic_stats(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.std == pytest.approx(1.29099, rel=1e-4)

    def test_single_value(self):
        s = summarize([5.0])
        assert s.std == 0.0

    def test_empty(self):
        assert summarize([]).count == 0

    def test_str(self):
        assert "mean=" in str(summarize([1.0, 2.0]))


class TestConfidenceInterval:
    def test_interval_brackets_mean(self):
        mean, lo, hi = mean_confidence_interval([10.0, 12.0, 11.0, 13.0])
        assert lo < mean < hi

    def test_degenerate_for_small_samples(self):
        mean, lo, hi = mean_confidence_interval([7.0])
        assert mean == lo == hi == 7.0

