"""Checkpoint-store tests: keying, round trip, torn-write safety."""

import dataclasses
import os

import pytest

from repro.config import StudyConfig
from repro.pipeline.parallel import plan_shards
from repro.pipeline.pipeline import MonitoringPipeline, PipelineStats
from repro.reliability.checkpoint import CheckpointStore, run_key
from repro.reliability.errors import CheckpointError
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import utc_ts

_CONFIG = StudyConfig(n_students=4, seed=42,
                      start_ts=utc_ts(2020, 2, 1),
                      end_ts=utc_ts(2020, 2, 5),
                      visitor_min_days=2)


@pytest.fixture(scope="module")
def shard_outcome():
    """One tiny real shard result (dataset + stats + coverage)."""
    generator = CampusTraceGenerator(_CONFIG)
    excluded = generator.plan.excluded_blocks(_CONFIG.excluded_operators)
    pipeline = MonitoringPipeline(_CONFIG, excluded)
    for trace in generator.iter_days():
        pipeline.ingest_day(trace)
    return (pipeline.finalize().canonicalize(), pipeline.stats,
            pipeline.coverage_report())


class TestRunKey:
    def test_stable_for_identical_runs(self):
        shards = plan_shards(_CONFIG, 2)
        assert run_key(_CONFIG, shards) == run_key(_CONFIG, shards)

    def test_config_change_changes_key(self):
        shards = plan_shards(_CONFIG, 2)
        other = dataclasses.replace(_CONFIG, seed=_CONFIG.seed + 1)
        assert run_key(_CONFIG, shards) != \
            run_key(other, plan_shards(other, 2))

    def test_shard_plan_change_changes_key(self):
        assert run_key(_CONFIG, plan_shards(_CONFIG, 2)) != \
            run_key(_CONFIG, plan_shards(_CONFIG, 3))


class TestStore:
    def test_round_trip(self, tmp_path, shard_outcome):
        dataset, stats, coverage = shard_outcome
        store = CheckpointStore.for_run(
            str(tmp_path), _CONFIG, plan_shards(_CONFIG, 2))
        assert not store.has_shard(0)
        store.save_shard(0, dataset, stats, coverage)
        assert store.has_shard(0)
        assert store.completed_indices() == [0]
        loaded_dataset, loaded_stats, loaded_coverage = store.load_shard(0)
        assert loaded_dataset.identical(dataset)
        assert loaded_stats == stats
        assert loaded_coverage.to_json() == coverage.to_json()

    def test_missing_shard_raises(self, tmp_path):
        store = CheckpointStore.for_run(
            str(tmp_path), _CONFIG, plan_shards(_CONFIG, 2))
        with pytest.raises(FileNotFoundError):
            store.load_shard(1)

    def test_torn_checkpoint_is_invisible(self, tmp_path, shard_outcome):
        """Data files without the .ok marker read as 'not checkpointed'."""
        dataset, stats, coverage = shard_outcome
        store = CheckpointStore.for_run(
            str(tmp_path), _CONFIG, plan_shards(_CONFIG, 2))
        store.save_shard(0, dataset, stats, coverage)
        os.remove(os.path.join(store.directory, "shard-0000.ok"))
        assert not store.has_shard(0)
        assert store.completed_indices() == []

    def test_corrupt_npz_raises_checkpoint_error(self, tmp_path,
                                                 shard_outcome):
        """A marker over truncated data is corruption, not a crash."""
        dataset, stats, coverage = shard_outcome
        store = CheckpointStore.for_run(
            str(tmp_path), _CONFIG, plan_shards(_CONFIG, 2))
        store.save_shard(0, dataset, stats, coverage)
        with open(os.path.join(store.directory, "shard-0000.npz"),
                  "wb") as fileobj:
            fileobj.write(b"not an npz")
        with pytest.raises(CheckpointError):
            store.load_shard(0)

    def test_corrupt_coverage_raises_checkpoint_error(self, tmp_path,
                                                      shard_outcome):
        dataset, stats, coverage = shard_outcome
        store = CheckpointStore.for_run(
            str(tmp_path), _CONFIG, plan_shards(_CONFIG, 2))
        store.save_shard(0, dataset, stats, coverage)
        with open(os.path.join(store.directory,
                               "shard-0000.coverage.json"), "w") as fileobj:
            fileobj.write("{ truncated")
        with pytest.raises(CheckpointError):
            store.load_shard(0)

    def test_discard_clears_corrupt_shard(self, tmp_path, shard_outcome):
        """discard() after CheckpointError leaves a clean re-ingest slot."""
        dataset, stats, coverage = shard_outcome
        store = CheckpointStore.for_run(
            str(tmp_path), _CONFIG, plan_shards(_CONFIG, 2))
        store.save_shard(0, dataset, stats, coverage)
        os.remove(os.path.join(store.directory, "shard-0000.stats.json"))
        with pytest.raises(CheckpointError):
            store.load_shard(0)
        store.discard(0)
        assert not store.has_shard(0)
        assert store.completed_indices() == []
        store.save_shard(0, dataset, stats, coverage)
        assert store.has_shard(0)

    def test_coverage_survives_round_trip_with_gaps(self, tmp_path,
                                                    shard_outcome):
        """A non-trivial coverage report serializes losslessly."""
        from repro.reliability.coverage import CoverageTracker
        from repro.reliability.faults import LogGap

        dataset, stats, _ = shard_outcome
        tracker = CoverageTracker()
        day0 = _CONFIG.start_ts
        tracker.add_day(day0, (LogGap("dhcp", day0 + 100.0, day0 + 900.0),))
        tracker.add_day(day0 + 86400.0, ())
        coverage = tracker.report()
        assert not coverage.is_complete()

        store = CheckpointStore.for_run(
            str(tmp_path), _CONFIG, plan_shards(_CONFIG, 2))
        store.save_shard(0, dataset, stats, coverage)
        _, _, loaded = store.load_shard(0)
        assert loaded.to_json() == coverage.to_json()
        assert not loaded.is_complete()

    def test_distinct_runs_do_not_collide(self, tmp_path, shard_outcome):
        """Two configs checkpoint side by side under one root."""
        dataset, stats, coverage = shard_outcome
        store_a = CheckpointStore.for_run(
            str(tmp_path), _CONFIG, plan_shards(_CONFIG, 2))
        other = dataclasses.replace(_CONFIG, seed=9)
        store_b = CheckpointStore.for_run(
            str(tmp_path), other, plan_shards(other, 2))
        store_a.save_shard(0, dataset, stats, coverage)
        assert store_a.has_shard(0)
        assert not store_b.has_shard(0)

    def test_plan_manifest_written(self, tmp_path):
        shards = plan_shards(_CONFIG, 3)
        store = CheckpointStore.for_run(str(tmp_path), _CONFIG, shards)
        assert os.path.exists(os.path.join(store.directory, "plan.json"))
