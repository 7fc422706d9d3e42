"""Golden serial-vs-parallel equivalence and shard-planning tests.

The parallel ingest's contract is *exact* equivalence: for the same
seed, the merged shards must finalize to byte-identical arrays and side
tables as the serial pipeline (after canonical ordering), for any
worker count. These tests pin that contract.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import StudyConfig
from repro.pipeline.dataset import ARRAY_FIELDS
from repro.pipeline.parallel import (
    ParallelPipeline,
    default_warmup_seconds,
    plan_shards,
)
from repro.pipeline.pipeline import MonitoringPipeline
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import DAY, utc_ts

_CONFIG = StudyConfig(n_students=6, seed=42,
                      start_ts=utc_ts(2020, 2, 1),
                      end_ts=utc_ts(2020, 2, 15),
                      visitor_min_days=3)

#: Stats fields that must match a serial run exactly. The tokenization
#: cache counters are excluded by design: every shard warms its own
#: cache, so per-shard misses sum past the serial run's.
_DETERMINISTIC_STATS = ("days_ingested", "bursts_seen", "flows_closed",
                        "flows_unattributed", "dhcp_records", "dns_records",
                        "http_records", "flows_host_annotated")


@pytest.fixture(scope="module")
def serial_run():
    generator = CampusTraceGenerator(_CONFIG)
    excluded = generator.plan.excluded_blocks(_CONFIG.excluded_operators)
    pipeline = MonitoringPipeline(_CONFIG, excluded)
    for trace in generator.iter_days():
        pipeline.ingest_day(trace)
    dataset = pipeline.finalize()
    return dataset.canonicalize(), pipeline.stats


class TestGoldenEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_identical_to_serial(self, serial_run, workers):
        serial_dataset, serial_stats = serial_run
        result = ParallelPipeline(_CONFIG, workers).run()

        assert len(result.shards) == workers
        assert result.dataset.identical(serial_dataset), (
            f"parallel dataset (workers={workers}) diverged from serial")
        # identical() already covers every array and side table; spell
        # out the per-array check too so a failure names the column.
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(result.dataset, name),
                                  getattr(serial_dataset, name)), name
        assert result.dataset.domains == serial_dataset.domains
        assert result.dataset.devices == serial_dataset.devices
        for field in _DETERMINISTIC_STATS:
            assert getattr(result.stats, field) == \
                getattr(serial_stats, field), field

    def test_merge_independent_of_shard_count(self):
        two = ParallelPipeline(_CONFIG, 2).run().dataset
        three = ParallelPipeline(_CONFIG, 3).run().dataset
        assert two.identical(three)


class TestShardPlanning:
    def test_owned_ranges_partition_the_window(self):
        shards = plan_shards(_CONFIG, 4)
        assert shards[0].owned_start is None
        assert shards[-1].owned_end is None
        for left, right in zip(shards, shards[1:]):
            assert left.owned_end == right.owned_start
        # Interior boundaries are day-aligned and strictly increasing.
        bounds = [shard.owned_end for shard in shards[:-1]]
        assert bounds == sorted(bounds)
        assert all(bound % DAY == 0 for bound in bounds)

    def test_owned_days_sum_to_window(self):
        n_days = int((_CONFIG.end_ts - _CONFIG.start_ts) // DAY)
        for n_shards in (1, 2, 3, 5):
            shards = plan_shards(_CONFIG, n_shards)
            total = 0
            for shard in shards:
                start = _CONFIG.start_ts if shard.owned_start is None \
                    else shard.owned_start
                end = _CONFIG.end_ts if shard.owned_end is None \
                    else shard.owned_end
                total += int((end - start) // DAY)
            assert total == n_days

    def test_generation_ranges_cover_warmup_and_tail(self):
        shards = plan_shards(_CONFIG, 2)
        warmup = default_warmup_seconds(_CONFIG)
        inner = shards[1]
        assert inner.gen_start == inner.owned_start - warmup
        assert shards[0].gen_end == shards[0].owned_end + DAY
        # Clamped to the study window at the edges.
        assert shards[0].gen_start == _CONFIG.start_ts
        assert shards[-1].gen_end == _CONFIG.end_ts

    def test_warmup_covers_every_state_horizon(self):
        from repro.dns.mapping import DEFAULT_FRESHNESS_SECONDS
        warmup = default_warmup_seconds(_CONFIG)
        assert warmup >= DEFAULT_FRESHNESS_SECONDS
        assert warmup >= _CONFIG.dhcp_lease_seconds
        assert warmup >= _CONFIG.flow_idle_timeout
        assert warmup % DAY == 0

    def test_more_shards_than_days_is_capped(self):
        tiny = dataclasses.replace(_CONFIG, end_ts=_CONFIG.start_ts + 3 * DAY)
        shards = plan_shards(tiny, 16)
        assert len(shards) == 3

    def test_describe_names_the_owned_days(self):
        shards = plan_shards(_CONFIG, 2)
        assert shards[0].describe() == "days 2020-02-01..2020-02-07"
        assert shards[1].describe() == "days 2020-02-08..2020-02-14"

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(_CONFIG, 0)
        with pytest.raises(ValueError):
            ParallelPipeline(_CONFIG, 0)
