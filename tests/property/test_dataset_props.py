"""Property-based tests for the flow dataset builder and its store."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.net.mac import MacAddress
from repro.pipeline.anonymize import Anonymizer
from repro.pipeline.dataset import NO_DOMAIN, DeviceProfile, FlowDataset
from repro.pipeline.store import save_dataset
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
        # select consumes the dataset's columns: read them first.
        kept_bytes = dataset.total_bytes[keep].sum()
        kept_devices = len(np.unique(dataset.device[keep]))
        subset = dataset.select(keep).compact()
        assert len(subset) == int(keep.sum())
        assert subset.total_bytes.sum() == kept_bytes
        assert subset.n_devices == kept_devices
        assert (subset.device < subset.n_devices).all()


#: Devices whose set-valued fields hold several elements: at the chaos
#: scale the integration tests run, every device has one user agent,
#: so an unsorted set there would never change a byte.
_profile_sets = st.tuples(
    st.lists(st.text(min_size=1, max_size=12), min_size=2, max_size=8,
             unique=True),
    st.lists(st.integers(min_value=0, max_value=120), min_size=2,
             max_size=12, unique=True),
)


def _saved_bytes(directory, name, device_sets):
    """The bytes ``save_dataset`` writes for a flowless dataset whose
    profiles' sets were filled in the given element orders."""
    devices = []
    for index, (agents, days) in enumerate(device_sets):
        profile = DeviceProfile(index=index, token=f"dev{index}",
                                oui=None, is_locally_administered=False)
        for agent in agents:
            profile.user_agents.add(agent)
        for day in days:
            profile.days_seen.add(day)
        devices.append(profile)
    empty = np.zeros(0)
    dataset = FlowDataset(
        ts=empty, duration=empty, device=empty.astype(np.int32),
        resp_h=empty.astype(np.uint32), resp_p=empty.astype(np.uint16),
        proto=empty.astype(np.uint8), orig_bytes=empty.astype(np.int64),
        resp_bytes=empty.astype(np.int64), domain=empty.astype(np.int32),
        day=empty.astype(np.int32), domains=[], devices=devices, day0=0.0)
    path = os.path.join(directory, name + ".npz")
    save_dataset(dataset, path)
    with open(path, "rb") as npz, open(path + ".meta.json", "rb") as meta:
        return npz.read(), meta.read()


class TestStoreProperties:
    @given(st.lists(_profile_sets, min_size=1, max_size=4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_saved_bytes_ignore_set_insertion_order(self, device_sets,
                                                    data):
        shuffled = [(data.draw(st.permutations(agents)),
                     data.draw(st.permutations(days)))
                    for agents, days in device_sets]
        with tempfile.TemporaryDirectory() as directory:
            assert _saved_bytes(directory, "drawn", device_sets) == \
                _saved_bytes(directory, "shuffled", shuffled)
