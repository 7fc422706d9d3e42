"""Shared utilities: deterministic RNG streams and time math."""

from repro.util.rng import RngFactory, substream
from repro.util.timeutil import (
    DAY,
    HOUR,
    MINUTE,
    WEEK,
    day_index,
    day_of_week,
    format_day,
    hour_of_week,
    is_weekend,
    iter_days,
    month_bounds,
    month_key,
    utc_ts,
)

__all__ = [
    "DAY",
    "HOUR",
    "MINUTE",
    "RngFactory",
    "WEEK",
    "day_index",
    "day_of_week",
    "format_day",
    "hour_of_week",
    "is_weekend",
    "iter_days",
    "month_bounds",
    "month_key",
    "substream",
    "utc_ts",
]
