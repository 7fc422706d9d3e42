"""Tests for the statistics helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.stats.descriptive import BoxStats, box_stats, safe_median
from repro.stats.smoothing import moving_average


class TestBoxStats:
    def test_known_sample(self):
        stats = box_stats(list(range(1, 101)))
        assert stats.n == 100
        assert stats.median == pytest.approx(50.5)
        assert stats.q1 == pytest.approx(25.75)
        assert stats.q3 == pytest.approx(75.25)
        assert stats.mean == pytest.approx(50.5)

    def test_empty(self):
        stats = box_stats([])
        assert stats.n == 0
        assert math.isnan(stats.median)

    def test_nan_filtered(self):
        stats = box_stats([1.0, float("nan"), 3.0])
        assert stats.n == 2
        assert stats.median == pytest.approx(2.0)

    def test_as_dict(self):
        payload = box_stats([1.0, 2.0]).as_dict()
        assert set(payload) == {"n", "mean", "p1", "q1", "median", "q3",
                                "p95", "p99"}

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=200))
    def test_percentiles_ordered(self, values):
        stats = box_stats(values)
        assert (stats.p1 <= stats.q1 <= stats.median
                <= stats.q3 <= stats.p95 <= stats.p99)
        assert min(values) <= stats.median <= max(values)

    def test_safe_median(self):
        assert safe_median([3.0, 1.0, 2.0]) == 2.0
        assert math.isnan(safe_median([]))


class TestMovingAverage:
    def test_window_one_identity(self):
        values = [1.0, 5.0, 2.0]
        assert list(moving_average(values, 1)) == values

    def test_window_three(self):
        out = moving_average([3.0, 6.0, 9.0, 12.0], 3)
        assert out[0] == pytest.approx(3.0)
        assert out[1] == pytest.approx(4.5)
        assert out[2] == pytest.approx(6.0)
        assert out[3] == pytest.approx(9.0)

    def test_constant_series_unchanged(self):
        out = moving_average([7.0] * 10, 3)
        assert np.allclose(out, 7.0)

    def test_empty(self):
        assert moving_average([], 3).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            moving_average([1.0], 0)
        with pytest.raises(ValueError):
            moving_average(np.zeros((2, 2)), 3)

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50),
           st.integers(min_value=1, max_value=10))
    def test_bounds_preserved(self, values, window):
        out = moving_average(values, window)
        assert out.min() >= min(values) - 1e-9
        assert out.max() <= max(values) + 1e-9
