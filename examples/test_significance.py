"""Tests for the Mann-Whitney shift testing in ``significance.py``.

scipy is the optional ``examples`` extra; an install without it skips
this module.
"""

import math

import numpy as np
import pytest

pytest.importorskip("scipy")

from significance import (  # noqa: E402
    MIN_SAMPLES,
    mann_whitney_shift,
    monthly_shift_tests,
    render_shift_tests,
)


class TestMannWhitneyShift:
    def test_clear_shift_is_significant(self):
        rng = np.random.default_rng(0)
        a = rng.lognormal(0.0, 0.3, size=60)
        b = rng.lognormal(1.0, 0.3, size=60)  # ~2.7x higher
        test = mann_whitney_shift(a, b)
        assert test.direction == "up"
        assert test.significant()
        assert test.p_value < 0.001

    def test_identical_distributions_not_significant(self):
        rng = np.random.default_rng(1)
        a = rng.lognormal(0.0, 0.5, size=80)
        b = rng.lognormal(0.0, 0.5, size=80)
        test = mann_whitney_shift(a, b)
        assert not test.significant()

    def test_small_samples_untestable(self):
        test = mann_whitney_shift([1.0] * (MIN_SAMPLES - 1),
                                  [2.0] * 50)
        assert math.isnan(test.p_value)
        assert not test.significant()

    def test_nan_values_filtered(self):
        test = mann_whitney_shift(
            [1.0, float("nan"), 2.0, 3.0, 4.0, 5.0],
            [1.0, 2.0, 3.0, 4.0, 5.0])
        assert test.n_a == 5

    def test_direction(self):
        down = mann_whitney_shift([5.0] * 10, [1.0] * 10)
        assert down.direction == "down"
        flat = mann_whitney_shift([2.0] * 10, [2.0] * 10)
        assert flat.direction == "flat"


class TestMonthlyShiftTests:
    def test_consecutive_pairs(self):
        table = {
            (2020, 2): [1.0] * 10,
            (2020, 3): [2.0] * 10,
            (2020, 4): [2.0] * 10,
            (2020, 5): [0.5] * 10,
        }
        tests = monthly_shift_tests(table)
        assert len(tests) == 3
        assert [t.direction for t in tests] == ["up", "flat", "down"]

    def test_missing_month_untestable(self):
        tests = monthly_shift_tests({(2020, 2): [1.0] * 10})
        assert all(math.isnan(t.p_value) for t in tests)

    def test_render(self):
        table = {
            (2020, 2): list(np.random.default_rng(0).lognormal(
                0, 0.4, 40)),
            (2020, 3): list(np.random.default_rng(1).lognormal(
                1, 0.4, 40)),
        }
        text = render_shift_tests(monthly_shift_tests(table))
        assert "February -> March" in text
        assert "significant" in text


class TestOnMiniStudy:
    def test_fig6_shifts_testable(self, mini_artifacts):
        """Wire the significance machinery to real figure-6 samples."""
        from repro.apps.facebook import facebook_platform_signature
        from repro.sessions.duration import monthly_duration_hours
        from repro.sessions.stitch import stitch_sessions

        dataset = mini_artifacts.dataset
        mask = facebook_platform_signature().domain_mask(dataset)
        sessions = stitch_sessions(dataset, mask)
        hours = monthly_duration_hours(sessions)
        table = {month: list(values.values())
                 for month, values in hours.items()}
        tests = monthly_shift_tests(table)
        assert len(tests) == 3
        for test in tests:
            assert math.isnan(test.p_value) or 0.0 <= test.p_value <= 1.0
