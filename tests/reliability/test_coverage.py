"""Interval-set and coverage-report unit tests."""

import pytest

from repro.reliability.coverage import (
    SOURCES,
    CoverageReport,
    CoverageTracker,
    IntervalSet,
)
from repro.reliability.faults import LogGap
from repro.util.timeutil import DAY

DAY0 = 1580515200.0  # 2020-02-01 00:00 UTC


class TestIntervalSet:
    def test_normalizes_overlaps_and_order(self):
        spans = IntervalSet.from_spans([(5.0, 9.0), (0.0, 6.0), (20.0, 21.0)])
        assert spans.spans == ((0.0, 9.0), (20.0, 21.0))

    def test_merges_touching_spans(self):
        spans = IntervalSet.from_spans([(0.0, 5.0), (5.0, 10.0)])
        assert spans.spans == ((0.0, 10.0),)

    def test_drops_empty_spans(self):
        assert IntervalSet.from_spans([(3.0, 3.0)]).is_empty
        assert IntervalSet.empty().is_empty

    def test_covered_seconds(self):
        spans = IntervalSet.from_spans([(0.0, 4.0), (10.0, 11.0)])
        assert spans.covered_seconds() == 5.0

    def test_contains_half_open(self):
        spans = IntervalSet.from_spans([(0.0, 10.0)])
        assert spans.contains(0.0)
        assert spans.contains(9.999)
        assert not spans.contains(10.0)

    def test_union(self):
        left = IntervalSet.from_spans([(0.0, 5.0)])
        right = IntervalSet.from_spans([(3.0, 8.0), (20.0, 30.0)])
        assert left.union(right).spans == ((0.0, 8.0), (20.0, 30.0))

    def test_intersect(self):
        left = IntervalSet.from_spans([(0.0, 10.0), (20.0, 30.0)])
        right = IntervalSet.from_spans([(5.0, 25.0)])
        assert left.intersect(right).spans == ((5.0, 10.0), (20.0, 25.0))

    def test_subtract(self):
        base = IntervalSet.from_spans([(0.0, 10.0)])
        hole = IntervalSet.from_spans([(3.0, 4.0), (8.0, 12.0)])
        assert base.subtract(hole).spans == ((0.0, 3.0), (4.0, 8.0))

    def test_subtract_everything(self):
        base = IntervalSet.from_spans([(0.0, 10.0)])
        assert base.subtract(base).is_empty


class TestCoverageReport:
    def _report(self, gaps=()):
        tracker = CoverageTracker()
        tracker.add_day(DAY0, tuple(gaps))
        tracker.add_day(DAY0 + DAY, ())
        return tracker.report()

    def test_clean_run_is_complete(self):
        report = self._report()
        assert report.is_complete()
        for source in SOURCES:
            assert report.fraction(source) == 1.0
            assert report.gaps(source).is_empty

    def test_gap_breaks_completeness_for_its_source_only(self):
        gap = LogGap("dhcp", DAY0 + 100.0, DAY0 + 700.0)
        report = self._report([gap])
        assert not report.is_complete()
        assert report.gaps("dhcp").covered_seconds() == 600.0
        assert report.gaps("dns").is_empty
        assert report.gaps("conn").is_empty

    def test_day_fractions(self):
        gap = LogGap("dhcp", DAY0, DAY0 + 0.25 * DAY)
        report = self._report([gap])
        assert report.day_fractions(DAY0, 2, "dhcp") == [0.75, 1.0]
        assert report.day_fractions(DAY0, 2, "dns") == [1.0, 1.0]
        # source=None takes the worst source per day.
        assert report.day_fractions(DAY0, 2) == [0.75, 1.0]

    def test_day_fractions_outside_window_are_full(self):
        report = self._report()
        # Days the run never observed carry no expectation -> 1.0.
        assert report.day_fractions(DAY0, 4) == [1.0, 1.0, 1.0, 1.0]

    def test_json_round_trip(self):
        gap = LogGap("dns", DAY0 + 5.0, DAY0 + 55.0)
        report = self._report([gap])
        recovered = CoverageReport.from_json(report.to_json())
        assert recovered.to_json() == report.to_json()
        assert recovered.gaps("dns").covered_seconds() == 50.0

    def test_empty_report_is_complete(self):
        assert CoverageReport.empty().is_complete()


class TestCoverageTracker:
    def test_clips_gap_to_day(self):
        tracker = CoverageTracker()
        # Gap starts the previous day and ends mid-day; only the
        # in-day part of the gap is charged against this day.
        gap = LogGap("dhcp", DAY0 - 3600.0, DAY0 + 3600.0)
        tracker.add_day(DAY0, (gap,))
        report = tracker.report()
        assert report.gaps("dhcp").covered_seconds() == 3600.0

    def test_ignores_out_of_day_gaps(self):
        tracker = CoverageTracker()
        gap = LogGap("dns", DAY0 + 2 * DAY, DAY0 + 2 * DAY + 60.0)
        tracker.add_day(DAY0, (gap,))
        assert tracker.report().is_complete()
