"""Descriptive statistics: box-and-whisker summaries.

Figures 6 and 7 use box plots whose whiskers "extend from the 1st to
the 95th percentile"; the text additionally discusses 99th percentiles
for TikTok. One summary type carries everything those figures need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class BoxStats:
    """Box-and-whisker summary of one sample."""

    n: int
    mean: float
    p1: float
    q1: float
    median: float
    q3: float
    p95: float
    p99: float

    @classmethod
    def empty(cls) -> "BoxStats":
        nan = float("nan")
        return cls(n=0, mean=nan, p1=nan, q1=nan, median=nan, q3=nan,
                   p95=nan, p99=nan)

    def as_dict(self) -> dict:
        return {
            "n": self.n, "mean": self.mean, "p1": self.p1, "q1": self.q1,
            "median": self.median, "q3": self.q3, "p95": self.p95,
            "p99": self.p99,
        }


def box_stats(values: Sequence[float]) -> BoxStats:
    """Summarize a sample; empty input yields an all-NaN summary."""
    data = np.asarray(values, dtype=np.float64)
    data = data[~np.isnan(data)]
    if data.size == 0:
        return BoxStats.empty()
    p1, q1, median, q3, p95, p99 = np.percentile(
        data, [1, 25, 50, 75, 95, 99])
    return BoxStats(
        n=int(data.size),
        mean=float(data.mean()),
        p1=float(p1),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        p95=float(p95),
        p99=float(p99),
    )
