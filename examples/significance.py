"""Significance testing for monthly usage shifts.

The paper reports month-over-month median changes descriptively; a
natural reviewer question is which of those shifts outrun sampling
noise. This module wraps the Mann-Whitney U test (the right tool for
the heavy-tailed, non-normal per-device distributions in Figures 6
and 7) and applies it across a monthly per-device table.

It lives beside ``subpopulations.py``, its one caller, rather than in
the ``repro`` package: the pipeline and figures never test
significance, and scipy is only the optional ``examples`` extra
(``pip install -e .[examples]``), so ``import repro`` must not need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import stats as _scipy_stats

from repro import constants

#: Minimum per-side sample size before a test is attempted.
MIN_SAMPLES = 5


@dataclass(frozen=True)
class ShiftTest:
    """One month-pair comparison."""

    month_a: Tuple[int, int]
    month_b: Tuple[int, int]
    n_a: int
    n_b: int
    median_a: float
    median_b: float
    #: Two-sided Mann-Whitney p-value (NaN when untestable).
    p_value: float

    @property
    def direction(self) -> str:
        if math.isnan(self.median_a) or math.isnan(self.median_b):
            return "?"
        if self.median_b > self.median_a:
            return "up"
        if self.median_b < self.median_a:
            return "down"
        return "flat"

    def significant(self, alpha: float = 0.05) -> bool:
        return not math.isnan(self.p_value) and self.p_value < alpha


def mann_whitney_shift(values_a: Sequence[float],
                       values_b: Sequence[float],
                       month_a: Tuple[int, int] = (0, 0),
                       month_b: Tuple[int, int] = (0, 0)) -> ShiftTest:
    """Two-sided Mann-Whitney comparison of two per-device samples."""
    a = np.asarray([v for v in values_a if not math.isnan(v)])
    b = np.asarray([v for v in values_b if not math.isnan(v)])
    if len(a) < MIN_SAMPLES or len(b) < MIN_SAMPLES:
        p_value = float("nan")
    else:
        p_value = float(_scipy_stats.mannwhitneyu(
            a, b, alternative="two-sided").pvalue)
    return ShiftTest(
        month_a=month_a,
        month_b=month_b,
        n_a=int(len(a)),
        n_b=int(len(b)),
        median_a=float(np.median(a)) if len(a) else float("nan"),
        median_b=float(np.median(b)) if len(b) else float("nan"),
        p_value=p_value,
    )


def monthly_shift_tests(per_month_values: Dict[Tuple[int, int],
                                               Sequence[float]],
                        months: Sequence[Tuple[int, int]] =
                        constants.STUDY_MONTHS) -> List[ShiftTest]:
    """Test every consecutive month pair of a monthly sample table."""
    tests: List[ShiftTest] = []
    for month_a, month_b in zip(months, months[1:]):
        tests.append(mann_whitney_shift(
            per_month_values.get(month_a, ()),
            per_month_values.get(month_b, ()),
            month_a=month_a, month_b=month_b))
    return tests


def render_shift_tests(tests: Sequence[ShiftTest],
                       alpha: float = 0.05) -> str:
    """Plain-text table of shift tests."""
    labels = dict(zip(constants.STUDY_MONTHS, constants.MONTH_LABELS))
    lines = [f"{'shift':<22} {'n':>9} {'medians':>19} "
             f"{'p':>8}  verdict"]
    for test in tests:
        label = (f"{labels.get(test.month_a, test.month_a)} -> "
                 f"{labels.get(test.month_b, test.month_b)}")
        medians = f"{test.median_a:8.2f}->{test.median_b:8.2f}"
        if math.isnan(test.p_value):
            verdict = "untestable (n too small)"
            p_text = "   n/a"
        else:
            verdict = (f"{test.direction}, "
                       + ("significant" if test.significant(alpha)
                          else "not significant"))
            p_text = f"{test.p_value:8.3f}"
        lines.append(f"{label:<22} {test.n_a:>4}/{test.n_b:<4} "
                     f"{medians:>19} {p_text}  {verdict}")
    return "\n".join(lines)
