"""Tests for the seed-sensitivity sweep in ``sensitivity.py`` (tiny
windows)."""

import math

import pytest

from repro import StudyConfig
from repro.util.timeutil import utc_ts

from sensitivity import (
    MetricSpread,
    render_sweep,
    run_seed_sweep,
)


class TestMetricSpread:
    def test_statistics(self):
        spread = MetricSpread("x", [1.0, 2.0, 3.0])
        assert spread.mean == pytest.approx(2.0)
        assert spread.spread == (1.0, 3.0)
        assert spread.std > 0

    def test_nan_tolerance(self):
        spread = MetricSpread("x", [1.0, float("nan")])
        assert spread.mean == 1.0
        assert math.isnan(spread.std)

    def test_empty(self):
        spread = MetricSpread("x", [float("nan")])
        assert math.isnan(spread.mean)


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        config = StudyConfig(
            n_students=5,
            start_ts=utc_ts(2020, 2, 1), end_ts=utc_ts(2020, 2, 15),
            visitor_min_days=3)
        return run_seed_sweep(config, seeds=[1, 2])

    def test_metrics_collected_per_seed(self, sweep):
        assert sweep.seeds == [1, 2]
        for spread in sweep.metrics.values():
            assert len(spread.values) == 2

    def test_device_counts_vary_reasonably(self, sweep):
        peaks = sweep.metrics["peak_devices"].values
        assert all(value > 0 for value in peaks)

    def test_render(self, sweep):
        text = render_sweep(sweep)
        assert "traffic_increase" in text
        assert "mean" in text

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            run_seed_sweep(StudyConfig(n_students=3), seeds=[])
