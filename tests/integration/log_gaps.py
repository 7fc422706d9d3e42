"""Collector outages for the gap-chaos and columnar tests.

:func:`seeded_log_gaps` draws outage schedules; :func:`gapped_generation`
cuts a :class:`~repro.reliability.faults.FaultPlan`'s outages out of
every day a generator makes, so any ingest -- a study run, a journaled
run -- sees them without a test-only parameter on the code under test.
"""

from contextlib import contextmanager
from typing import Iterator, List, Tuple

import pytest

from repro.reliability.faults import FaultPlan, LogGap
from repro.synth.generator import CampusTraceGenerator
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


@contextmanager
def gapped_generation(plan: FaultPlan) -> Iterator[None]:
    """Apply ``plan.drop_log_span`` to every generated day trace.

    Wraps :meth:`CampusTraceGenerator.generate_day`, which runs in the
    ingesting process for every day -- the day pool computes only the
    day step -- so pooled and in-process generation both see the gaps.
    """
    original = CampusTraceGenerator.generate_day

    def generate_day(self, day_start, *args, **kwargs):
        return plan.drop_log_span(
            original(self, day_start, *args, **kwargs))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CampusTraceGenerator, "generate_day", generate_day)
        yield
