"""Time arithmetic over a naive-UTC epoch-seconds timeline.

All the paper's figures are expressed in local campus time; for the
reproduction we treat the whole study as living on a single naive UTC
timeline (no DST jumps), which keeps day/hour bucketing exact and the
synthetic schedules easy to reason about.
"""

from __future__ import annotations

import calendar
import datetime as _dt
from typing import Iterator, Tuple

MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0
WEEK = 7 * DAY

_EPOCH = _dt.datetime(1970, 1, 1)


def utc_ts(year: int, month: int, day: int, hour: int = 0, minute: int = 0,
           second: float = 0.0) -> float:
    """Return the epoch timestamp of a naive-UTC calendar instant."""
    moment = _dt.datetime(year, month, day, hour, minute)
    return (moment - _EPOCH).total_seconds() + second


def from_ts(ts: float) -> _dt.datetime:
    """Return the naive-UTC datetime for an epoch timestamp."""
    return _EPOCH + _dt.timedelta(seconds=ts)


def day_index(ts: float, origin: float) -> int:
    """Return the whole number of days from ``origin`` to ``ts``.

    ``origin`` is normally the study start; timestamps earlier than the
    origin produce negative indices (floor division semantics).
    """
    return int((ts - origin) // DAY)


def day_of_week(ts: float) -> int:
    """Return the weekday of ``ts``: Monday == 0 ... Sunday == 6."""
    return from_ts(ts).weekday()


def is_weekend(ts: float) -> bool:
    """Return True when ``ts`` falls on a Saturday or Sunday."""
    return day_of_week(ts) >= 5


def hour_of_week(ts: float, week_start: float) -> int:
    """Return the zero-based hour offset of ``ts`` within a week.

    ``week_start`` anchors hour 0; the paper's Figure 3 uses weeks that
    start on a Thursday. Values outside [0, 168) mean ``ts`` is outside
    the anchored week.
    """
    return int((ts - week_start) // HOUR)


def month_key(ts: float) -> Tuple[int, int]:
    """Return the ``(year, month)`` containing ``ts``."""
    moment = from_ts(ts)
    return moment.year, moment.month


def month_bounds(year: int, month: int) -> Tuple[float, float]:
    """Return ``(start, end)`` of a calendar month; end is exclusive."""
    start = utc_ts(year, month, 1)
    days_in_month = calendar.monthrange(year, month)[1]
    return start, start + days_in_month * DAY


def iter_days(start: float, end: float) -> Iterator[float]:
    """Yield the start timestamp of each day in the half-open span.

    The first yielded value is the day boundary at or before ``start``;
    iteration stops before ``end``.
    """
    day_start = (start // DAY) * DAY
    while day_start < end:
        yield day_start
        day_start += DAY


def format_day(ts: float) -> str:
    """Return the ISO date (``YYYY-MM-DD``) of the day containing ``ts``."""
    return from_ts(ts).strftime("%Y-%m-%d")


def parse_day(text: str) -> float:
    """Parse an ISO date string into the epoch timestamp of its midnight."""
    moment = _dt.datetime.strptime(text, "%Y-%m-%d")
    return (moment - _EPOCH).total_seconds()
