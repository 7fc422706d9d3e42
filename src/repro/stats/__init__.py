"""Statistics helpers used by the analyses."""

from repro.stats.descriptive import BoxStats, box_stats
from repro.stats.smoothing import moving_average

__all__ = [
    "BoxStats",
    "box_stats",
    "moving_average",
]
