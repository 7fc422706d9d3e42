"""Tests for overlapping-flow session stitching."""

import numpy as np
import pytest

from repro.net.mac import MacAddress
from repro.pipeline.anonymize import Anonymizer
from repro.pipeline.dataset import NO_DOMAIN
from repro.sessions.duration import monthly_duration_hours
from repro.sessions.stitch import StitchedSession, stitch_sessions
from repro.util.timeutil import utc_ts
from tests.oracles.analysis import stitch_sessions_reference
from tests.oracles.dataset import RowFlowDatasetBuilder

FEB = utc_ts(2020, 2, 10)
MAR = utc_ts(2020, 3, 10)

#: Both implementations must satisfy every behavioral test.
IMPLS = [
    pytest.param(stitch_sessions, id="kernel"),
    pytest.param(stitch_sessions_reference, id="reference"),
]


def _dataset(rows):
    """rows: (mac_value, ts, duration, domain)."""
    builder = RowFlowDatasetBuilder(day0=utc_ts(2020, 2, 1))
    anonymizer = Anonymizer("s")
    for mac_value, ts, duration, domain in rows:
        idx = builder.device_index(
            anonymizer.device(MacAddress(mac_value)))
        builder.add_flow(
            ts=ts, duration=duration, device_idx=idx, resp_h=1,
            resp_p=443, proto="tcp", orig_bytes=50, resp_bytes=50,
            domain_idx=builder.domain_index(domain), user_agent=None)
    return builder.finalize()


def _masks(dataset, domains, markers=()):
    flow = dataset.flows_to_domains(domains)
    marker = dataset.flows_to_domains(markers) if markers else None
    return flow, marker


class TestStitching:
    def test_overlapping_flows_merge(self):
        dataset = _dataset([
            (1, FEB, 100.0, "facebook.com"),
            (1, FEB + 50, 100.0, "fbcdn.net"),
            (1, FEB + 120, 60.0, "facebook.net"),
        ])
        flow_mask, _ = _masks(
            dataset, ["facebook.com", "fbcdn.net", "facebook.net"])
        sessions = stitch_sessions(dataset, flow_mask)
        assert len(sessions[0]) == 1
        session = sessions[0][0]
        assert session.start == FEB
        assert session.end == FEB + 180
        assert session.flow_count == 3
        assert session.total_bytes == 300

    def test_gap_beyond_slack_splits(self):
        dataset = _dataset([
            (1, FEB, 10.0, "facebook.com"),
            (1, FEB + 1000, 10.0, "facebook.com"),
        ])
        flow_mask, _ = _masks(dataset, ["facebook.com"])
        sessions = stitch_sessions(dataset, flow_mask, slack=60.0)
        assert len(sessions[0]) == 2

    def test_gap_within_slack_merges(self):
        dataset = _dataset([
            (1, FEB, 10.0, "facebook.com"),
            (1, FEB + 40, 10.0, "facebook.com"),
        ])
        flow_mask, _ = _masks(dataset, ["facebook.com"])
        sessions = stitch_sessions(dataset, flow_mask, slack=60.0)
        assert len(sessions[0]) == 1

    def test_devices_never_mix(self):
        dataset = _dataset([
            (1, FEB, 100.0, "facebook.com"),
            (2, FEB + 10, 100.0, "facebook.com"),
        ])
        flow_mask, _ = _masks(dataset, ["facebook.com"])
        sessions = stitch_sessions(dataset, flow_mask)
        assert set(sessions) == {0, 1}
        assert all(len(s) == 1 for s in sessions.values())

    def test_marker_labels_whole_session(self):
        """One Instagram-only flow marks the merged session Instagram."""
        dataset = _dataset([
            (1, FEB, 100.0, "facebook.com"),
            (1, FEB + 20, 100.0, "instagram.com"),
            (1, FEB + 5000, 50.0, "facebook.com"),  # separate session
        ])
        flow_mask, marker = _masks(
            dataset, ["facebook.com", "instagram.com"], ["instagram.com"])
        sessions = stitch_sessions(dataset, flow_mask, marker_mask=marker)
        flags = [s.marked for s in sessions[0]]
        assert flags == [True, False]

    def test_empty_mask(self):
        dataset = _dataset([(1, FEB, 10.0, "facebook.com")])
        sessions = stitch_sessions(dataset,
                                   np.zeros(len(dataset), dtype=bool))
        assert sessions == {}

    def test_unsorted_input_handled(self):
        dataset = _dataset([
            (1, FEB + 120, 60.0, "facebook.net"),
            (1, FEB, 100.0, "facebook.com"),
            (1, FEB + 50, 100.0, "fbcdn.net"),
        ])
        flow_mask, _ = _masks(
            dataset, ["facebook.com", "fbcdn.net", "facebook.net"])
        sessions = stitch_sessions(dataset, flow_mask)
        assert len(sessions[0]) == 1
        assert sessions[0][0].duration == pytest.approx(180.0)


@pytest.mark.parametrize("impl", IMPLS)
class TestStitchBoundaries:
    """Boundary semantics, asserted against kernel AND reference."""

    def test_gap_exactly_slack_merges(self, impl):
        """gap == slack is inside the session (the split needs >)."""
        dataset = _dataset([
            (1, FEB, 10.0, "facebook.com"),
            (1, FEB + 10.0 + 60.0, 10.0, "facebook.com"),
        ])
        flow_mask, _ = _masks(dataset, ["facebook.com"])
        sessions = impl(dataset, flow_mask, slack=60.0)
        assert len(sessions[0]) == 1
        assert sessions[0][0].flow_count == 2

    def test_gap_just_over_slack_splits(self, impl):
        dataset = _dataset([
            (1, FEB, 10.0, "facebook.com"),
            (1, FEB + 10.0 + 60.5, 10.0, "facebook.com"),
        ])
        flow_mask, _ = _masks(dataset, ["facebook.com"])
        sessions = impl(dataset, flow_mask, slack=60.0)
        assert len(sessions[0]) == 2

    def test_zero_duration_flows(self, impl):
        """Point flows stitch by the same gap rule; a lone one is a
        zero-length session."""
        dataset = _dataset([
            (1, FEB, 0.0, "facebook.com"),
            (1, FEB, 0.0, "facebook.com"),       # same instant: merges
            (1, FEB + 60.0, 0.0, "facebook.com"),  # gap == slack: merges
            (1, FEB + 5000.0, 0.0, "facebook.com"),  # far away: alone
        ])
        flow_mask, _ = _masks(dataset, ["facebook.com"])
        sessions = impl(dataset, flow_mask, slack=60.0)
        assert [s.flow_count for s in sessions[0]] == [3, 1]
        lone = sessions[0][1]
        assert lone.duration == 0.0
        assert lone.start == lone.end == FEB + 5000.0

    def test_marker_propagates_across_slack_merge(self, impl):
        """A marked flow joined only through the slack rule still marks
        the whole session."""
        dataset = _dataset([
            (1, FEB, 10.0, "facebook.com"),
            (1, FEB + 40.0, 10.0, "instagram.com"),  # slack-merged
            (1, FEB + 90.0, 10.0, "facebook.com"),   # chained after it
        ])
        flow_mask, marker = _masks(
            dataset, ["facebook.com", "instagram.com"], ["instagram.com"])
        sessions = impl(dataset, flow_mask, marker_mask=marker, slack=60.0)
        assert len(sessions[0]) == 1
        assert sessions[0][0].marked is True

    def test_marker_stays_within_its_session(self, impl):
        dataset = _dataset([
            (1, FEB, 10.0, "instagram.com"),
            (1, FEB + 5000.0, 10.0, "facebook.com"),
        ])
        flow_mask, marker = _masks(
            dataset, ["facebook.com", "instagram.com"], ["instagram.com"])
        sessions = impl(dataset, flow_mask, marker_mask=marker)
        assert [s.marked for s in sessions[0]] == [True, False]

    def test_empty_mask_returns_empty(self, impl):
        dataset = _dataset([(1, FEB, 10.0, "facebook.com")])
        assert impl(dataset, np.zeros(len(dataset), dtype=bool)) == {}

    def test_disjoint_marker_mask_marks_nothing(self, impl):
        """A marker mask disjoint from the flow mask never marks."""
        dataset = _dataset([
            (1, FEB, 10.0, "facebook.com"),
            (1, FEB + 20.0, 10.0, "tiktok.com"),
        ])
        flow_mask, _ = _masks(dataset, ["facebook.com"])
        marker = dataset.flows_to_domains(["tiktok.com"])
        sessions = impl(dataset, flow_mask, marker_mask=marker)
        assert [s.marked for s in sessions[0]] == [False]


class TestKernelMatchesReference:
    def test_exact_equality_on_mixed_case(self):
        """Kernel and reference agree exactly: devices, order, floats,
        bytes, counts, markers."""
        dataset = _dataset([
            (2, FEB + 120.0, 60.0, "facebook.net"),
            (1, FEB, 100.0, "facebook.com"),
            (1, FEB + 50.0, 100.0, "instagram.com"),
            (2, FEB, 0.0, "facebook.com"),
            (1, FEB + 260.0, 10.0, "facebook.com"),   # gap == slack
            (1, FEB + 9000.0, 0.0, "facebook.com"),
            (3, MAR, 30.0, "instagram.com"),
        ])
        flow_mask, marker = _masks(
            dataset, ["facebook.com", "facebook.net", "instagram.com"],
            ["instagram.com"])
        kernel = stitch_sessions(dataset, flow_mask, marker_mask=marker)
        reference = stitch_sessions_reference(dataset, flow_mask,
                                              marker_mask=marker)
        assert kernel == reference
        # Scalar types match too (sessions feed type-sensitive dict code).
        session = next(iter(kernel.values()))[0]
        assert isinstance(session.device, int)
        assert isinstance(session.total_bytes, int)
        assert isinstance(session.marked, bool)


class TestMonthlyDurations:
    def test_aggregation_by_month(self):
        sessions = {
            0: [
                StitchedSession(0, FEB, FEB + 3600, 1, 1, False),
                StitchedSession(0, FEB + 7200, FEB + 9000, 1, 1, False),
                StitchedSession(0, MAR, MAR + 1800, 1, 1, False),
            ],
        }
        hours = monthly_duration_hours(sessions)
        assert hours[(2020, 2)][0] == pytest.approx(1.5)
        assert hours[(2020, 3)][0] == pytest.approx(0.5)

    def test_marker_filtering(self):
        sessions = {
            0: [
                StitchedSession(0, FEB, FEB + 3600, 1, 1, True),
                StitchedSession(0, FEB + 7200, FEB + 10800, 1, 1, False),
            ],
        }
        instagram = monthly_duration_hours(sessions, only_marked=True)
        facebook = monthly_duration_hours(sessions, only_marked=False)
        both = monthly_duration_hours(sessions)
        assert instagram[(2020, 2)][0] == pytest.approx(1.0)
        assert facebook[(2020, 2)][0] == pytest.approx(1.0)
        assert both[(2020, 2)][0] == pytest.approx(2.0)

    def test_session_month_from_start(self):
        """A session starting in February belongs to February even if it
        ends in March."""
        feb_end = utc_ts(2020, 2, 29, 23)
        sessions = {0: [StitchedSession(0, feb_end, feb_end + 7200, 1, 1,
                                        False)]}
        hours = monthly_duration_hours(sessions)
        assert (2020, 2) in hours
        assert (2020, 3) not in hours
