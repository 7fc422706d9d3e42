"""Property-based tests for the flow dataset builder."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.net.mac import MacAddress
from repro.pipeline.anonymize import Anonymizer
from repro.pipeline.dataset import NO_DOMAIN
from repro.util.timeutil import DAY
from tests.oracles.dataset import RowFlowDatasetBuilder

_flow = st.tuples(
    st.integers(min_value=0, max_value=5),             # device slot
    st.floats(min_value=0, max_value=100 * 86400.0),   # ts
    st.floats(min_value=0, max_value=7200.0),          # duration
    st.integers(min_value=0, max_value=10**9),         # orig bytes
    st.integers(min_value=0, max_value=10**9),         # resp bytes
    st.integers(min_value=-1, max_value=3),            # domain slot
)

_DOMAINS = ["a.com", "b.com", "c.com", "d.com"]


def _build(flows):
    builder = RowFlowDatasetBuilder(day0=0.0)
    anonymizer = Anonymizer("s")
    for device_slot, ts, duration, orig, resp, domain_slot in flows:
        device_idx = builder.device_index(
            anonymizer.device(MacAddress(0x9C1A00000000 + device_slot)))
        domain_idx = (NO_DOMAIN if domain_slot < 0
                      else builder.domain_index(_DOMAINS[domain_slot]))
        builder.add_flow(
            ts=ts, duration=duration, device_idx=device_idx,
            resp_h=1, resp_p=443, proto="tcp", orig_bytes=orig,
            resp_bytes=resp, domain_idx=domain_idx, user_agent=None)
    return builder.finalize()


class TestBuilderProperties:
    @given(st.lists(_flow, max_size=60))
    @settings(max_examples=120)
    def test_totals_conserved(self, flows):
        dataset = _build(flows)
        assert len(dataset) == len(flows)
        assert dataset.total_bytes.sum() == sum(
            orig + resp for _, _, _, orig, resp, _ in flows)
        # Device-profile totals agree with the flow arrays.
        for profile in dataset.devices:
            flow_mask = dataset.device == profile.index
            assert profile.total_bytes == dataset.total_bytes[flow_mask].sum()
            assert profile.flow_count == int(flow_mask.sum())

    @given(st.lists(_flow, max_size=60))
    @settings(max_examples=120)
    def test_day_binning_consistent(self, flows):
        dataset = _build(flows)
        expected = [int(ts // DAY) for _, ts, *_ in flows]
        assert list(dataset.day) == expected
        for profile in dataset.devices:
            flow_days = {int(day) for day, dev in
                         zip(dataset.day, dataset.device)
                         if dev == profile.index}
            # days_seen is a superset (flows spanning midnight add
            # their end day too).
            assert flow_days <= profile.days_seen

    @given(st.lists(_flow, max_size=40))
    @settings(max_examples=80)
    def test_select_compact_preserves_flows(self, flows):
        dataset = _build(flows)
        if len(dataset) == 0:
            return
        keep = np.arange(len(dataset)) % 2 == 0
        subset = dataset.select(keep).compact()
        assert len(subset) == int(keep.sum())
        assert subset.total_bytes.sum() == dataset.total_bytes[keep].sum()
        assert subset.n_devices == len(np.unique(dataset.device[keep]))
        assert (subset.device < subset.n_devices).all()
