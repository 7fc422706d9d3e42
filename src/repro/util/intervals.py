"""Closed-open interval algebra used by session stitching and DHCP leases.

The paper computes a platform's session duration as "the bounds of
overlapping flows from different domains belonging to the same site"
(Section 5.2); that is exactly a union of time intervals, implemented
here once and reused by :mod:`repro.sessions` and :mod:`repro.dhcp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open time span ``[start, end)`` in epoch seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"interval end ({self.end}) precedes start ({self.start})"
            )

    @property
    def duration(self) -> float:
        """Length of the interval in seconds."""
        return self.end - self.start

    def contains(self, ts: float) -> bool:
        """Return True when ``ts`` lies in ``[start, end)``."""
        return self.start <= ts < self.end

    def overlaps(self, other: "Interval", slack: float = 0.0) -> bool:
        """Return True when the two intervals overlap or touch.

        ``slack`` extends each interval by that many seconds before the
        test, letting callers merge near-adjacent flows into one session.
        """
        return self.start <= other.end + slack and other.start <= self.end + slack

    def merge(self, other: "Interval") -> "Interval":
        """Return the convex hull of two (overlapping) intervals."""
        return Interval(min(self.start, other.start), max(self.end, other.end))

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """Return the overlap of two intervals, or None when disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if end <= start:
            return None
        return Interval(start, end)

    def clamp(self, start: float, end: float) -> Optional["Interval"]:
        """Return this interval clipped to ``[start, end)``, or None."""
        return self.intersect(Interval(start, end))


def merge_intervals(intervals: Iterable[Interval],
                    slack: float = 0.0) -> List[Interval]:
    """Merge intervals whose spans overlap (or fall within ``slack``).

    Returns the merged spans sorted by start time. This is the core of
    the paper's session-duration computation: each merged span is one
    user session assembled from overlapping flows.
    """
    ordered = sorted(intervals, key=lambda iv: (iv.start, iv.end))
    merged: List[Interval] = []
    for interval in ordered:
        if merged and merged[-1].overlaps(interval, slack=slack):
            merged[-1] = merged[-1].merge(interval)
        else:
            merged.append(interval)
    return merged
