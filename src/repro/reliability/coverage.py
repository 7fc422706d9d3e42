"""Telemetry-coverage tracking: which log spans a run actually had.

The paper's pipeline is only sound while its three inputs -- the wire
tap ("conn"), the DHCP ACK log ("dhcp") and the DNS query log ("dns")
-- are contemporaneous. A real four-month collector deployment loses
spans of each (disk-full, rotated-away files, a crashed log shipper),
and a pipeline that cannot *say* what it was missing silently turns
absent input into wrong conclusions. This module gives ingest an
explicit coverage ledger:

* :class:`IntervalSet` -- a canonical union of half-open time spans.
  Normalization (sorted, disjoint, merged-when-touching) makes
  ``union`` associative, commutative and idempotent (property-tested
  in ``tests/property/test_coverage_props.py``).
* :class:`CoverageTracker` -- the mutable per-pipeline accumulator:
  each ingested day contributes its expected span and subtracts any
  injected/observed log gaps.
* :class:`CoverageReport` -- the frozen result: expected window,
  per-source observed spans, gap queries, per-day covered fractions
  (consumed by :class:`repro.analysis.context.AnalysisContext`), and a
  JSON round trip so a journaled run's ingest output preserves
  coverage across a resume.

Everything here is pure bookkeeping -- no clocks, no RNG -- so a clean
run (no gaps) produces a complete report and changes nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.reliability.faults import LogGap
from repro.util.timeutil import DAY

#: The three telemetry sources the pipeline consumes (PAPER.md §3).
SOURCES: Tuple[str, ...] = ("conn", "dhcp", "dns")

Span = Tuple[float, float]


def _normalize(spans: Iterable[Span]) -> Tuple[Span, ...]:
    """Sort, drop empties, and merge overlapping/touching spans."""
    ordered = sorted((float(start), float(end))
                     for start, end in spans if end > start)
    merged: List[Span] = []
    for start, end in ordered:
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return tuple(merged)


@dataclass(frozen=True)
class IntervalSet:
    """A canonical union of half-open ``[start, end)`` spans.

    The constructor does not normalize; build instances through
    :meth:`from_spans` (or the set operations, which always return
    canonical results). On canonical forms ``union`` is associative,
    commutative and idempotent -- no float arithmetic is involved, only
    ``min``/``max`` -- so any merge order yields the same spans.
    """

    spans: Tuple[Span, ...] = ()

    @classmethod
    def from_spans(cls, spans: Iterable[Span]) -> "IntervalSet":
        return cls(_normalize(spans))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @property
    def is_empty(self) -> bool:
        return not self.spans

    def covered_seconds(self) -> float:
        """Total seconds covered by the union."""
        return sum(end - start for start, end in self.spans)

    def contains(self, ts: float) -> bool:
        """Point query: does any span contain ``ts``?"""
        return any(start <= ts < end for start, end in self.spans)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_spans(self.spans + other.spans)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        result: List[Span] = []
        for a_start, a_end in self.spans:
            for b_start, b_end in other.spans:
                start, end = max(a_start, b_start), min(a_end, b_end)
                if end > start:
                    result.append((start, end))
        return IntervalSet.from_spans(result)

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        result: List[Span] = []
        for start, end in self.spans:
            cursor = start
            for b_start, b_end in other.spans:
                if b_end <= cursor or b_start >= end:
                    continue
                if b_start > cursor:
                    result.append((cursor, b_start))
                cursor = max(cursor, b_end)
                if cursor >= end:
                    break
            if cursor < end:
                result.append((cursor, end))
        return IntervalSet.from_spans(result)


@dataclass(frozen=True)
class CoverageReport:
    """Per-source telemetry coverage of one ingest run.

    ``expected`` is the union of days the run was supposed to measure;
    ``observed`` maps each source to the spans its log actually
    covered.
    """

    expected: IntervalSet = field(default_factory=IntervalSet.empty)
    observed: Mapping[str, IntervalSet] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "CoverageReport":
        return cls(IntervalSet.empty(),
                   {source: IntervalSet.empty() for source in SOURCES})

    def observed_for(self, source: str) -> IntervalSet:
        if source not in SOURCES:
            raise ValueError(f"unknown telemetry source {source!r}")
        return self.observed.get(source, IntervalSet.empty())

    def gaps(self, source: str) -> IntervalSet:
        """Expected-but-unobserved spans for one source."""
        return self.expected.subtract(self.observed_for(source))

    def is_complete(self) -> bool:
        """True when every source covered the whole expected window."""
        return all(self.gaps(source).is_empty for source in SOURCES)

    def fraction(self, source: str) -> float:
        """Window-wide covered fraction for one source (1.0 if empty)."""
        expected = self.expected.covered_seconds()
        if expected <= 0:
            return 1.0
        return self.observed_for(source).covered_seconds() / expected

    def day_fractions(self, day0: float, n_days: int,
                      source: Optional[str] = None) -> List[float]:
        """Covered fraction per study day (``source=None``: worst of all).

        Days the report never expected (outside the measured window)
        read as fully covered, so analysis masks only discount days the
        run was actually responsible for.
        """
        fractions = [1.0] * max(n_days, 0)
        for index in range(n_days):
            start = day0 + index * DAY
            day = IntervalSet.from_spans([(start, start + DAY)])
            expected = self.expected.intersect(day).covered_seconds()
            if expected <= 0:
                continue
            sources = SOURCES if source is None else (source,)
            fractions[index] = min(
                self.observed_for(name).intersect(day).covered_seconds()
                / expected
                for name in sources)
        return fractions

    # -- serialization (journaled ingest output) -----------------------

    def to_json(self) -> Dict[str, object]:
        return {
            "expected": [list(span) for span in self.expected.spans],
            "observed": {
                source: [list(span)
                         for span in self.observed_for(source).spans]
                for source in SOURCES},
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "CoverageReport":
        expected_raw = payload["expected"]
        observed_raw = payload["observed"]
        assert isinstance(expected_raw, list)
        assert isinstance(observed_raw, dict)
        expected = IntervalSet.from_spans(
            (float(span[0]), float(span[1])) for span in expected_raw)
        observed = {
            source: IntervalSet.from_spans(
                (float(span[0]), float(span[1]))
                for span in observed_raw.get(source, []))
            for source in SOURCES}
        return cls(expected, observed)


class CoverageTracker:
    """Mutable per-pipeline coverage accumulator.

    :class:`~repro.pipeline.pipeline.MonitoringPipeline` feeds it one
    call per ingested day.
    """

    def __init__(self) -> None:
        self._expected: List[Span] = []
        self._dropped: Dict[str, List[Span]] = {
            source: [] for source in SOURCES}

    def add_day(self, day_start: float,
                gaps: Sequence[LogGap] = ()) -> None:
        """Record one day and any log gaps observed within it."""
        day_end = day_start + DAY
        self._expected.append((day_start, day_end))
        for gap in gaps:
            start = max(gap.start, day_start)
            end = min(gap.end, day_end)
            if end > start and gap.source in self._dropped:
                self._dropped[gap.source].append((start, end))

    def report(self) -> CoverageReport:
        """Freeze the ledger into a report."""
        expected = IntervalSet.from_spans(self._expected)
        observed = {
            source: expected.subtract(
                IntervalSet.from_spans(self._dropped[source]))
            for source in SOURCES}
        return CoverageReport(expected, observed)
