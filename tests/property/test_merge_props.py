"""Property-based tests for the shard-merge algebra.

Sharded parallel ingest is only sound if merging is a well-behaved
algebra over datasets: merging two shards must equal ingesting
their concatenated flow streams, the empty shard must be an identity,
grouping must not matter (associativity), and shard order must wash out
after canonical ordering. Device profiles must merge as field-wise
unions. Hypothesis drives all of it with small random flow streams.
Per-shard ``PipelineStats`` must merge into the field-wise sum.
"""

import dataclasses
import functools

from hypothesis import given, settings, strategies as st

from repro.net.mac import MacAddress
from repro.pipeline.anonymize import Anonymizer
from repro.pipeline.dataset import NO_DOMAIN, FlowDataset
from repro.pipeline.pipeline import PipelineStats
from tests.oracles.dataset import RowFlowDatasetBuilder

_DOMAINS = ["a.com", "b.com", "c.com", "d.com"]
_USER_AGENTS = ["ua-phone", "ua-laptop"]

_flow = st.tuples(
    st.integers(min_value=0, max_value=4),             # device slot
    st.floats(min_value=0, max_value=100 * 86400.0),   # ts
    st.floats(min_value=0, max_value=7200.0),          # duration
    st.integers(min_value=0, max_value=10**9),         # orig bytes
    st.integers(min_value=0, max_value=10**9),         # resp bytes
    st.integers(min_value=-1, max_value=3),            # domain slot
    st.integers(min_value=-1, max_value=1),            # user-agent slot
)

_flows = st.lists(_flow, max_size=40)

_ANONYMIZER = Anonymizer("s")
_DEVICES = [_ANONYMIZER.device(MacAddress(0x9C1A00000000 + slot))
            for slot in range(5)]


def _build(flows) -> RowFlowDatasetBuilder:
    builder = RowFlowDatasetBuilder(day0=0.0)
    for device_slot, ts, duration, orig, resp, domain_slot, ua_slot in flows:
        device_idx = builder.device_index(_DEVICES[device_slot])
        domain_idx = (NO_DOMAIN if domain_slot < 0
                      else builder.domain_index(_DOMAINS[domain_slot]))
        builder.add_flow(
            ts=ts, duration=duration, device_idx=device_idx,
            resp_h=1 + device_slot, resp_p=443, proto="tcp",
            orig_bytes=orig, resp_bytes=resp, domain_idx=domain_idx,
            user_agent=None if ua_slot < 0 else _USER_AGENTS[ua_slot])
    return builder


def _canonical(builder: RowFlowDatasetBuilder) -> FlowDataset:
    return builder.finalize().canonicalize()


class TestDatasetMerge:
    @given(_flows, _flows)
    @settings(max_examples=80)
    def test_merge_equals_concatenated_ingest(self, a, b):
        merged = FlowDataset.merge([_build(a).finalize(), _build(b).finalize()])
        assert merged.identical(_canonical(_build(a + b)))

    @given(_flows, _flows)
    @settings(max_examples=60)
    def test_shard_order_is_irrelevant(self, a, b):
        da, db = _build(a).finalize(), _build(b).finalize()
        assert FlowDataset.merge([da, db]).identical(
            FlowDataset.merge([db, da]))

    @given(_flows, _flows, _flows)
    @settings(max_examples=40)
    def test_merge_matches_single_shard_ingest(self, a, b, c):
        sharded = FlowDataset.merge(
            [_build(chunk).finalize() for chunk in (a, b, c)])
        assert sharded.identical(_canonical(_build(a + b + c)))

    @given(_flows)
    @settings(max_examples=40)
    def test_single_shard_merge_is_canonicalization(self, flows):
        dataset = _build(flows).finalize()
        assert FlowDataset.merge([dataset]).identical(dataset.canonicalize())

    @given(_flows, _flows, _flows)
    @settings(max_examples=60)
    def test_merge_is_associative(self, a, b, c):
        da, db, dc = (_build(chunk).finalize() for chunk in (a, b, c))
        left = FlowDataset.merge([FlowDataset.merge([da, db]), dc])
        right = FlowDataset.merge([da, FlowDataset.merge([db, dc])])
        assert left.identical(right)
        assert left.identical(FlowDataset.merge([da, db, dc]))

    @given(_flows)
    @settings(max_examples=60)
    def test_empty_dataset_is_identity(self, flows):
        dataset = _build(flows).finalize()
        empty = _build([]).finalize()
        base = dataset.canonicalize()
        assert FlowDataset.merge([dataset, empty]).identical(base)
        assert FlowDataset.merge([empty, dataset]).identical(base)

    @given(_flows, _flows)
    @settings(max_examples=60)
    def test_merge_leaves_inputs_untouched(self, a, b):
        da, db = _build(a).finalize(), _build(b).finalize()
        FlowDataset.merge([da, db])
        assert da.identical(_build(a).finalize())
        assert db.identical(_build(b).finalize())

    def test_empty_input_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            FlowDataset.merge([])

    def test_day0_mismatch_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            FlowDataset.merge([RowFlowDatasetBuilder(day0=0.0).finalize(),
                               RowFlowDatasetBuilder(day0=1.0).finalize()])


class TestDeviceProfileUnion:
    @given(_flows, _flows)
    @settings(max_examples=80)
    def test_profiles_union_field_wise(self, a, b):
        left, right = _build(a).finalize(), _build(b).finalize()
        merged = FlowDataset.merge([left, right])
        by_token = {profile.token: profile for profile in merged.devices}
        for source in (left, right):
            for profile in source.devices:
                assert profile.token in by_token
        for token, profile in by_token.items():
            parts = [p for ds in (left, right) for p in ds.devices
                     if p.token == token]
            assert profile.days_seen == set().union(
                *(p.days_seen for p in parts))
            assert profile.user_agents == set().union(
                *(p.user_agents for p in parts))
            assert profile.flow_count == sum(p.flow_count for p in parts)
            assert profile.total_bytes == sum(p.total_bytes for p in parts)
            assert profile.first_ts == min(p.first_ts for p in parts)
            assert profile.last_ts == max(p.last_ts for p in parts)


_stats = st.builds(PipelineStats, **{
    spec.name: st.integers(min_value=0, max_value=10**6)
    for spec in dataclasses.fields(PipelineStats)})


class TestPipelineStatsMerge:
    @given(st.lists(_stats, max_size=4), st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_merge_is_pure_field_wise_sum(self, shards, rng):
        before = [dataclasses.asdict(item) for item in shards]
        expected = {spec.name: sum(getattr(item, spec.name)
                                   for item in shards)
                    for spec in dataclasses.fields(PipelineStats)}
        shuffled = list(shards)
        rng.shuffle(shuffled)
        # Folding without a fresh accumulator makes a caller-held
        # operand the ``self`` of the first merge.
        folded = (functools.reduce(PipelineStats.merge, shuffled)
                  if shuffled else PipelineStats())
        assert dataclasses.asdict(PipelineStats.merged(shards)) == expected
        assert dataclasses.asdict(PipelineStats.merged(shuffled)) == expected
        assert dataclasses.asdict(folded) == expected
        assert [dataclasses.asdict(item) for item in shards] == before
