"""Tests for the small-sample statistics helpers."""

import math

import pytest

from repro.experiments.stats import summarize, t_critical_95
from repro.util.errors import ReproError


class TestTCritical:
    def test_known_values(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(9) == pytest.approx(2.262)

    def test_large_df_is_normal(self):
        assert t_critical_95(1000) == pytest.approx(1.960)

    def test_monotone_decreasing(self):
        values = [t_critical_95(df) for df in range(1, 40)]
        assert values == sorted(values, reverse=True)

    def test_invalid_df(self):
        with pytest.raises(ReproError):
            t_critical_95(0)


class TestSummarize:
    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            summarize([])

    def test_single_value(self):
        s = summarize([5.0])
        assert s.mean == 5.0
        assert s.std == 0.0
        assert math.isinf(s.ci95)

    def test_constant_sample(self):
        s = summarize([3.0] * 10)
        assert s.mean == 3.0
        assert s.std == 0.0
        assert s.ci95 == 0.0

    def test_known_sample(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.mean == 3.0
        assert s.std == pytest.approx(math.sqrt(2.5))
        assert s.ci95 == pytest.approx(2.776 * math.sqrt(2.5) / math.sqrt(5))

    def test_interval_bounds(self):
        s = summarize([10.0, 12.0, 14.0])
        assert s.low == pytest.approx(s.mean - s.ci95)
        assert s.high == pytest.approx(s.mean + s.ci95)

    def test_str_format(self):
        assert "n=3" in str(summarize([1.0, 2.0, 3.0]))
