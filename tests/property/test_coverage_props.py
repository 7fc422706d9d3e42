"""Property-based tests for interval-set algebra and coverage reports.

The load-bearing invariant: on canonical interval sets, ``union`` is
associative, commutative and idempotent (no float arithmetic -- only
``min``/``max`` of endpoints). Coverage reports round-trip through
JSON and keep every per-day fraction in ``[0, 1]``.
"""

from hypothesis import given, settings, strategies as st

from repro.reliability.coverage import (
    SOURCES,
    CoverageReport,
    CoverageTracker,
    IntervalSet,
)
from repro.reliability.faults import LogGap
from repro.util.timeutil import DAY

# Integer-valued endpoints keep every min/max comparison exact while
# still exercising float code paths.
_endpoint = st.integers(min_value=0, max_value=500).map(float)


@st.composite
def interval_sets(draw):
    raw = draw(st.lists(st.tuples(_endpoint, _endpoint), max_size=8))
    return IntervalSet.from_spans(
        (min(a, b), max(a, b)) for a, b in raw)


def _canonical(spans):
    """Canonical-form predicate: sorted, disjoint, non-touching."""
    for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
        if not (a_start < a_end < b_start < b_end):
            return False
    return all(start < end for start, end in spans)


class TestIntervalSetAlgebra:
    @given(interval_sets())
    @settings(max_examples=200)
    def test_from_spans_is_canonical(self, spans):
        assert _canonical(spans.spans)

    @given(interval_sets(), interval_sets())
    @settings(max_examples=200)
    def test_union_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(interval_sets(), interval_sets(), interval_sets())
    @settings(max_examples=200)
    def test_union_associative(self, a, b, c):
        assert a.union(b).union(c) == a.union(b.union(c))

    @given(interval_sets())
    @settings(max_examples=200)
    def test_union_idempotent(self, a):
        assert a.union(a) == a
        assert a.union(IntervalSet.empty()) == a

    @given(interval_sets(), interval_sets())
    @settings(max_examples=200)
    def test_subtract_then_intersect_partition(self, a, b):
        """subtract and intersect split a into disjoint exact halves."""
        kept = a.subtract(b)
        removed = a.intersect(b)
        assert kept.intersect(removed).is_empty
        assert kept.union(removed) == a

    @given(interval_sets(), interval_sets())
    @settings(max_examples=200)
    def test_covered_seconds_inclusion_exclusion(self, a, b):
        union = a.union(b).covered_seconds()
        inter = a.intersect(b).covered_seconds()
        assert union + inter == a.covered_seconds() + b.covered_seconds()


@st.composite
def coverage_reports(draw):
    """A report over a few ingested days with random gaps."""
    day0 = 0.0
    days = draw(st.lists(st.integers(min_value=0, max_value=5),
                         min_size=1, max_size=4, unique=True))
    tracker = CoverageTracker()
    for day in days:
        start = day0 + day * DAY
        gaps = []
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            gap_start = start + draw(
                st.integers(min_value=0, max_value=80000)).real
            gap_len = draw(st.integers(min_value=1, max_value=20000))
            gaps.append(LogGap(draw(st.sampled_from(("dhcp", "dns"))),
                               gap_start, gap_start + gap_len))
        tracker.add_day(start, tuple(gaps))
    return tracker.report()


class TestCoverageMerge:
    @given(coverage_reports())
    @settings(max_examples=100)
    def test_json_round_trip(self, report):
        assert CoverageReport.from_json(report.to_json()) == report

    @given(coverage_reports())
    @settings(max_examples=100)
    def test_day_fractions_bounded(self, report):
        for source in (None,) + SOURCES:
            for fraction in report.day_fractions(0.0, 6, source):
                assert 0.0 <= fraction <= 1.0
