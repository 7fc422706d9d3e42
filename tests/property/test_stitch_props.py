"""Property-based tests for session stitching."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.net.mac import MacAddress
from repro.pipeline.anonymize import Anonymizer
from repro.pipeline.dataset import NO_DOMAIN
from repro.sessions.stitch import stitch_sessions
from tests.oracles.analysis import stitch_sessions_reference
from tests.oracles.dataset import RowFlowDatasetBuilder

_flow = st.tuples(
    st.integers(min_value=0, max_value=3),            # device slot
    st.floats(min_value=0, max_value=50_000),         # start
    st.floats(min_value=0, max_value=3_000),          # duration
    st.integers(min_value=1, max_value=10**6),        # bytes
)

#: A flow plus its mask membership: (flow, selected, marked).
_masked_flow = st.tuples(_flow, st.booleans(), st.booleans())


def _dataset(flows):
    builder = RowFlowDatasetBuilder(day0=0.0)
    anonymizer = Anonymizer("s")
    for device_slot, start, duration, total_bytes in flows:
        idx = builder.device_index(
            anonymizer.device(MacAddress(0x9C1A00000000 + device_slot)))
        builder.add_flow(
            ts=start, duration=duration, device_idx=idx, resp_h=1,
            resp_p=443, proto="tcp", orig_bytes=total_bytes // 2,
            resp_bytes=total_bytes - total_bytes // 2,
            domain_idx=NO_DOMAIN, user_agent=None)
    return builder.finalize()


class TestStitchProperties:
    @given(st.lists(_masked_flow, max_size=60),
           st.floats(min_value=0, max_value=300))
    @settings(max_examples=150)
    def test_kernel_matches_reference(self, masked_flows, slack):
        """The numpy kernel is exactly the per-flow walk: same devices,
        same session boundaries, same floats, bytes, counts and
        markers, under arbitrary flow/marker masks."""
        flows = [flow for flow, _, _ in masked_flows]
        dataset = _dataset(flows)
        flow_mask = np.array([selected for _, selected, _ in masked_flows],
                             dtype=bool)
        marker_mask = np.array(
            [selected and marked for _, selected, marked in masked_flows],
            dtype=bool)
        kernel = stitch_sessions(dataset, flow_mask,
                                 marker_mask=marker_mask, slack=slack)
        reference = stitch_sessions_reference(dataset, flow_mask,
                                              marker_mask=marker_mask,
                                              slack=slack)
        assert kernel == reference

    @given(st.lists(_flow, max_size=50),
           st.floats(min_value=0, max_value=300))
    @settings(max_examples=150)
    def test_partition(self, flows, slack):
        """Every selected flow lands in exactly one session; bytes and
        flow counts are conserved."""
        dataset = _dataset(flows)
        mask = np.ones(len(dataset), dtype=bool)
        sessions = stitch_sessions(dataset, mask, slack=slack)
        total_flows = sum(s.flow_count for per_device in sessions.values()
                          for s in per_device)
        total_bytes = sum(s.total_bytes for per_device in sessions.values()
                          for s in per_device)
        assert total_flows == len(dataset)
        assert total_bytes == int(dataset.total_bytes.sum())

    @given(st.lists(_flow, max_size=50))
    @settings(max_examples=100)
    def test_sessions_disjoint_per_device(self, flows):
        """With zero slack, a device's sessions never overlap."""
        dataset = _dataset(flows)
        sessions = stitch_sessions(
            dataset, np.ones(len(dataset), dtype=bool), slack=0.0)
        for per_device in sessions.values():
            ordered = sorted(per_device, key=lambda s: s.start)
            for left, right in zip(ordered, ordered[1:]):
                assert left.end <= right.start

    @given(st.lists(_flow, max_size=50))
    @settings(max_examples=100)
    def test_union_never_exceeds_flow_sum(self, flows):
        """Zero-slack session time is at most the naive duration sum."""
        dataset = _dataset(flows)
        sessions = stitch_sessions(
            dataset, np.ones(len(dataset), dtype=bool), slack=0.0)
        union = sum(s.duration for per_device in sessions.values()
                    for s in per_device)
        assert union <= float(dataset.duration.sum()) + 1e-6

    @given(st.lists(_flow, max_size=40),
           st.floats(min_value=0, max_value=100),
           st.floats(min_value=0, max_value=100))
    @settings(max_examples=80)
    def test_more_slack_fewer_sessions(self, flows, slack_a, slack_b):
        dataset = _dataset(flows)
        mask = np.ones(len(dataset), dtype=bool)
        lo, hi = sorted((slack_a, slack_b))
        count_lo = sum(len(v) for v in
                       stitch_sessions(dataset, mask, slack=lo).values())
        count_hi = sum(len(v) for v in
                       stitch_sessions(dataset, mask, slack=hi).values())
        assert count_hi <= count_lo

    @given(st.lists(_flow, max_size=40))
    @settings(max_examples=80)
    def test_sessions_cover_their_flows(self, flows):
        dataset = _dataset(flows)
        sessions = stitch_sessions(
            dataset, np.ones(len(dataset), dtype=bool), slack=0.0)
        if len(dataset):
            lo = float(dataset.ts.min())
            hi = float((dataset.ts + dataset.duration).max())
            starts = [s.start for v in sessions.values() for s in v]
            ends = [s.end for v in sessions.values() for s in v]
            assert min(starts) == lo
            assert max(ends) == hi
