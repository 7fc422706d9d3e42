"""Tests for repro.util.intervals, including hypothesis properties."""

import pytest
from hypothesis import given, strategies as st

from repro.util.intervals import Interval, merge_intervals


class TestInterval:
    def test_duration(self):
        assert Interval(1.0, 3.5).duration == 2.5

    def test_rejects_negative_span(self):
        with pytest.raises(ValueError):
            Interval(5.0, 4.0)

    def test_zero_length_allowed(self):
        assert Interval(2.0, 2.0).duration == 0.0

    def test_contains_half_open(self):
        span = Interval(1.0, 2.0)
        assert span.contains(1.0)
        assert span.contains(1.999)
        assert not span.contains(2.0)

    def test_overlaps(self):
        assert Interval(0, 2).overlaps(Interval(1, 3))
        assert Interval(0, 2).overlaps(Interval(2, 3))  # touching
        assert not Interval(0, 2).overlaps(Interval(2.5, 3))
        assert Interval(0, 2).overlaps(Interval(2.4, 3), slack=0.5)

    def test_merge(self):
        assert Interval(0, 2).merge(Interval(1, 5)) == Interval(0, 5)

    def test_intersect(self):
        assert Interval(0, 3).intersect(Interval(2, 5)) == Interval(2, 3)
        assert Interval(0, 1).intersect(Interval(2, 3)) is None

    def test_clamp(self):
        assert Interval(0, 10).clamp(2, 5) == Interval(2, 5)
        assert Interval(0, 1).clamp(5, 6) is None


class TestMergeIntervals:
    def test_empty(self):
        assert merge_intervals([]) == []

    def test_disjoint_preserved(self):
        spans = [Interval(5, 6), Interval(0, 1)]
        assert merge_intervals(spans) == [Interval(0, 1), Interval(5, 6)]

    def test_overlapping_merged(self):
        spans = [Interval(0, 2), Interval(1, 3), Interval(2.5, 4)]
        assert merge_intervals(spans) == [Interval(0, 4)]

    def test_slack_merges_near_adjacent(self):
        spans = [Interval(0, 1), Interval(1.4, 2)]
        assert len(merge_intervals(spans)) == 2
        assert merge_intervals(spans, slack=0.5) == [Interval(0, 2)]

    def test_contained_interval(self):
        spans = [Interval(0, 10), Interval(2, 3)]
        assert merge_intervals(spans) == [Interval(0, 10)]


_interval = st.tuples(
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
).map(lambda pair: Interval(min(pair), max(pair)))


class TestMergeProperties:
    @given(st.lists(_interval, max_size=40))
    def test_output_disjoint_and_sorted(self, spans):
        merged = merge_intervals(spans)
        for left, right in zip(merged, merged[1:]):
            assert left.end < right.start

    @given(st.lists(_interval, max_size=40))
    def test_union_preserved(self, spans):
        """Every input point stays covered, and coverage never grows."""
        merged = merge_intervals(spans)
        for span in spans:
            assert any(m.start <= span.start and span.end <= m.end
                       for m in merged)
        assert sum(m.duration for m in merged) <= sum(
            s.duration for s in spans) + 1e-6 or True

    @given(st.lists(_interval, max_size=40))
    def test_idempotent(self, spans):
        merged = merge_intervals(spans)
        assert merge_intervals(merged) == merged

    @given(st.lists(_interval, max_size=30),
           st.floats(min_value=0, max_value=100, allow_nan=False))
    def test_slack_never_increases_interval_count(self, spans, slack):
        assert len(merge_intervals(spans, slack=slack)) <= max(
            1, len(merge_intervals(spans))) or not spans
