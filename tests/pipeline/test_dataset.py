"""Tests for the columnar flow dataset."""

import numpy as np
import pytest

from repro.net.mac import MacAddress
from repro.pipeline.anonymize import Anonymizer
from repro.pipeline.dataset import (
    COLUMN_DTYPES,
    NO_DOMAIN,
    FlowDatasetBuilder,
)
from repro.util.timeutil import DAY
from tests.oracles.dataset import RowFlowDatasetBuilder


@pytest.fixture()
def builder():
    return RowFlowDatasetBuilder(day0=0.0)


def _add(builder, device_idx, ts=10.0, duration=5.0, domain_idx=NO_DOMAIN,
         orig=100, resp=200, ua=None, proto="tcp"):
    builder.add_flow(
        ts=ts, duration=duration, device_idx=device_idx,
        resp_h=0x32000001, resp_p=443, proto=proto, orig_bytes=orig,
        resp_bytes=resp, domain_idx=domain_idx, user_agent=ua)


def _device_idx(builder, mac_value=0x9C1A00000001):
    anon = Anonymizer("s").device(MacAddress(mac_value))
    return builder.device_index(anon)


class TestRegistries:
    def test_device_index_stable(self, builder):
        first = _device_idx(builder)
        second = _device_idx(builder)
        assert first == second
        assert _device_idx(builder, 0x9C1A00000002) != first

    def test_domain_index_stable(self, builder):
        a = builder.domain_index("zoom.us")
        assert builder.domain_index("zoom.us") == a
        assert builder.domain_index("tiktok.com") != a
        assert builder.domain_index(None) == NO_DOMAIN


class TestProfiles:
    def test_profile_accumulates(self, builder):
        idx = _device_idx(builder)
        _add(builder, idx, ts=10.0, orig=100, resp=200, ua="UA1")
        _add(builder, idx, ts=DAY + 10.0, orig=1, resp=1, ua="UA2")
        profile = builder._devices[idx]
        assert profile.flow_count == 2
        assert profile.total_bytes == 302
        assert profile.days_seen == {0, 1}
        assert profile.user_agents == {"UA1", "UA2"}

    def test_flow_spanning_midnight_counts_both_days(self, builder):
        idx = _device_idx(builder)
        _add(builder, idx, ts=DAY - 100.0, duration=200.0)
        profile = builder._devices[idx]
        assert profile.days_seen == {0, 1}

    def test_oui_carried_from_anonymizer(self, builder):
        idx = _device_idx(builder, 0x9C1A00AAAAAA)
        assert builder._devices[idx].oui == 0x9C1A00


class TestFinalize:
    def test_arrays_consistent(self, builder):
        idx = _device_idx(builder)
        domain = builder.domain_index("zoom.us")
        for i in range(5):
            _add(builder, idx, ts=float(i) * 1000, domain_idx=domain)
        dataset = builder.finalize()
        assert len(dataset) == 5
        assert dataset.n_devices == 1
        assert np.array_equal(dataset.total_bytes,
                              np.full(5, 300, dtype=np.int64))
        assert list(dataset.day) == [0, 0, 0, 0, 0]
        assert dataset.domains == ["zoom.us"]

    def test_day_binning(self, builder):
        idx = _device_idx(builder)
        _add(builder, idx, ts=0.5 * DAY)
        _add(builder, idx, ts=2.5 * DAY)
        dataset = builder.finalize()
        assert list(dataset.day) == [0, 2]

    def test_flows_to_domains(self, builder):
        idx = _device_idx(builder)
        zoom = builder.domain_index("zoom.us")
        tiktok = builder.domain_index("tiktok.com")
        _add(builder, idx, domain_idx=zoom)
        _add(builder, idx, domain_idx=tiktok)
        _add(builder, idx, domain_idx=NO_DOMAIN)
        dataset = builder.finalize()
        mask = dataset.flows_to_domains(["zoom.us"])
        assert list(mask) == [True, False, False]
        assert not dataset.flows_to_domains(["unknown.example"]).any()

    def test_flows_of_devices(self, builder):
        a = _device_idx(builder, 1)
        b = _device_idx(builder, 2)
        _add(builder, a)
        _add(builder, b)
        _add(builder, a)
        dataset = builder.finalize()
        mask = dataset.flows_of_devices(np.array([True, False]))
        assert list(mask) == [True, False, True]
        with pytest.raises(ValueError):
            dataset.flows_of_devices(np.array([True]))

    def test_select_shares_side_tables(self, builder):
        a = _device_idx(builder, 1)
        b = _device_idx(builder, 2)
        zoom = builder.domain_index("zoom.us")
        _add(builder, a, domain_idx=zoom)
        _add(builder, b)
        dataset = builder.finalize()
        subset = dataset.select(np.array([True, False]))
        assert len(subset) == 1
        assert subset.n_devices == 2  # device table shared
        assert subset.domains is dataset.domains

    def test_select_consumes_its_input(self, builder):
        a = _device_idx(builder, 1)
        _add(builder, a)
        _add(builder, a, ts=20.0)
        dataset = builder.finalize()
        devices = dataset.devices
        subset = dataset.select(np.array([False, True]))
        assert list(subset.ts) == [20.0]
        for name in COLUMN_DTYPES:
            assert not hasattr(dataset, name), name
        assert dataset.devices is devices

    def test_proto_codes(self, builder):
        idx = _device_idx(builder)
        _add(builder, idx, proto="tcp")
        _add(builder, idx, proto="udp")
        dataset = builder.finalize()
        assert dataset.proto_name(int(dataset.proto[0])) == "tcp"
        assert dataset.proto_name(int(dataset.proto[1])) == "udp"

    def test_empty_dataset(self):
        """The production builder finalizes to typed empty columns."""
        dataset = FlowDatasetBuilder(day0=0.0).finalize()
        assert len(dataset) == 0
        assert dataset.n_devices == 0
        for name, dtype in COLUMN_DTYPES.items():
            column = getattr(dataset, name)
            assert column.dtype == dtype and column.shape == (0,), name


def _random_batches(sizes, n_devices=3, seed=5):
    """Column sets of the given lengths, in the loose dtypes ingest may
    pass (``proto`` as int64, ``device`` as int64)."""
    rng = np.random.default_rng(seed)
    batches = []
    for n in sizes:
        batches.append({
            "ts": rng.uniform(0.0, 5 * DAY, n),
            "duration": rng.uniform(0.0, 7200.0, n),
            "device": rng.integers(0, n_devices, n),
            "resp_h": rng.integers(0, 2 ** 32, n),
            "resp_p": rng.integers(0, 65536, n),
            "proto": rng.integers(0, 2, n),
            "orig_bytes": rng.integers(0, 10 ** 9, n),
            "resp_bytes": rng.integers(1, 10 ** 9, n),
            "domain": rng.integers(NO_DOMAIN, 2, n),
            "user_agent": rng.integers(-1, 2, n),
        })
    return batches


def _fill(batches, n_devices=3):
    builder = FlowDatasetBuilder(day0=0.0)
    for value in range(n_devices):
        _device_idx(builder, 0x9C1A00000000 + value)
    builder.domain_index("zoom.us")
    builder.domain_index("tiktok.com")
    for batch in batches:
        builder.add_flow_batch(**batch, ua_table=["UA0", "UA1"])
    return builder


class TestGrowableColumns:
    """Many small batches finalize exactly as one concatenated batch."""

    @pytest.mark.parametrize("sizes", [
        [0, 0],
        [1] * 40,
        [0, 3, 0, 1, 50, 0, 2, 129, 7],
    ])
    def test_small_batches_equal_one_concatenation(self, sizes):
        batches = _random_batches(sizes)
        joined = {name: np.concatenate([batch[name] for batch in batches])
                  for name in batches[0]}
        expected = {name: joined[name].astype(dtype)
                    for name, dtype in COLUMN_DTYPES.items()
                    if name != "day"}
        expected["day"] = (joined["ts"] // DAY).astype(np.int32)

        many = _fill(batches)
        assert len(many) == sum(sizes)
        one = _fill([joined])
        for dataset in (many.finalize(), one.finalize()):
            assert len(dataset) == sum(sizes)
            for name, dtype in COLUMN_DTYPES.items():
                column = getattr(dataset, name)
                assert column.dtype == dtype, name
                assert np.array_equal(column, expected[name]), name
        assert many._devices == one._devices

    def test_proto_cast_to_int8(self):
        (batch,) = _random_batches([6])
        batch["proto"] = np.array([0, 1, 1, 0, 1, 0], dtype=np.int64)
        dataset = _fill([batch]).finalize()
        assert dataset.proto.dtype == np.int8
        assert dataset.proto.tolist() == [0, 1, 1, 0, 1, 0]

    def test_finalize_hands_the_flows_over(self):
        builder = _fill(_random_batches([4, 9]))
        assert len(builder.finalize()) == 13
        assert len(builder) == 0


class TestCompact:
    def test_compact_drops_flowless_devices(self, builder):
        a = _device_idx(builder, 1)
        b = _device_idx(builder, 2)
        c = _device_idx(builder, 3)
        _add(builder, a)
        _add(builder, c)
        _add(builder, a)
        dataset = builder.finalize()
        # Drop device b's (nonexistent) flows, then also drop c's.
        import numpy as np
        subset = dataset.select(np.array([True, False, True])).compact()
        assert subset.n_devices == 1
        assert subset.devices[0].token == dataset.devices[a].token
        assert subset.devices[0].index == 0
        assert list(subset.device) == [0, 0]

    def test_compact_identity_when_all_used(self, builder):
        a = _device_idx(builder, 1)
        b = _device_idx(builder, 2)
        _add(builder, a)
        _add(builder, b)
        dataset = builder.finalize().compact()
        assert dataset.n_devices == 2
        assert [p.index for p in dataset.devices] == [0, 1]
