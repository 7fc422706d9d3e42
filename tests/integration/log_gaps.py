"""Seeded log-gap schedules for the gap-chaos and columnar tests."""

from typing import List, Tuple

from repro.reliability.faults import LogGap
from repro.util.rng import substream


def seeded_log_gaps(seed: int,
                    window_start: float,
                    window_end: float,
                    n_gaps: int,
                    source: str = "dhcp",
                    min_seconds: float = 3600.0,
                    max_seconds: float = 6 * 3600.0) -> Tuple[LogGap, ...]:
    """Draw ``n_gaps`` outage spans for one source from a seeded stream.

    Starts are uniform over the window, durations uniform over
    ``[min_seconds, max_seconds]`` and clipped to the window end -- a
    deterministic stand-in for the unpredictable collector outages a
    long deployment accumulates.
    """
    if window_end <= window_start:
        raise ValueError("window_end must be after window_start")
    if not 0.0 < min_seconds <= max_seconds:
        raise ValueError("need 0 < min_seconds <= max_seconds")
    rng = substream(seed, "log-gaps")
    gaps: List[LogGap] = []
    for _ in range(n_gaps):
        start = window_start + float(rng.random()) * (
            window_end - window_start - min_seconds)
        length = min_seconds + float(rng.random()) * (
            max_seconds - min_seconds)
        end = min(start + length, window_end)
        gaps.append(LogGap(source=source, start=start, end=end))
    return tuple(sorted(gaps, key=lambda gap: gap.start))
