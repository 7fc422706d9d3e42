"""Shard checkpoints: one finished shard's journaled files.

A journaled run checkpoints each finished ingest shard as four files
under ``shards/`` plus a ``shard_end`` record holding their SHA-256
digests. These tests pin that unit on its own: the files round-trip
the shard exactly, files without a record are not a checkpoint, and a
file that no longer matches its digest is refused.
"""

import os

import pytest

from repro.config import StudyConfig
from repro.core.runner import SHARDS_DIR, JournaledRun
from repro.pipeline.pipeline import MonitoringPipeline
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


def _run(tmp_path):
    """A started run whose ingest stage has made its shard directory."""
    run = JournaledRun.start(str(tmp_path), _CONFIG, workers=2)
    os.makedirs(run.path(SHARDS_DIR))
    return run


class TestStore:
    def test_round_trip(self, tmp_path, shard_outcome):
        dataset, stats, coverage = shard_outcome
        run = _run(tmp_path)
        digests = run._save_shard(0, shard_outcome)
        assert sorted(digests) == sorted(run._shard_files(0))
        assert run._files_match(digests)
        loaded_dataset, loaded_stats, loaded_coverage = run._load_shard(0)
        assert loaded_dataset.identical(dataset)
        assert loaded_stats == stats
        assert loaded_coverage.to_json() == coverage.to_json()

    def test_torn_checkpoint_is_invisible(self, tmp_path, shard_outcome):
        """Shard files without a ``shard_end`` record read as 'not
        checkpointed', also after a resume; the record commits them."""
        run = _run(tmp_path)
        digests = run._save_shard(0, shard_outcome)
        assert run.plan().shards == {}
        assert JournaledRun.resume(
            str(tmp_path), run.run_id).plan().shards == {}

        run._append("shard_end", {"shard": 0, "outputs": digests})
        assert JournaledRun.resume(
            str(tmp_path), run.run_id).plan().shards == {0: digests}

    def test_corrupt_npz_raises_checkpoint_error(self, tmp_path,
                                                 shard_outcome):
        """A record over rewritten data is corruption: the digests
        refuse the shard before anything tries to load it."""
        run = _run(tmp_path)
        digests = run._save_shard(0, shard_outcome)
        npz = run._shard_files(0)[0]
        with open(run.path(npz), "wb") as fileobj:
            fileobj.write(b"not an npz")
        assert not run._files_match(digests)
        # Every other file still matches: the refusal is the npz's.
        assert run._files_match(
            {name: digest for name, digest in digests.items()
             if name != npz})

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

        run = _run(tmp_path)
        run._save_shard(0, (dataset, stats, coverage))
        _, _, loaded = run._load_shard(0)
        assert loaded.to_json() == coverage.to_json()
        assert loaded == coverage
        assert not loaded.is_complete()

    def test_corrupt_coverage_raises_checkpoint_error(self, tmp_path,
                                                      shard_outcome):
        run = _run(tmp_path)
        digests = run._save_shard(0, shard_outcome)
        coverage_file = run._shard_files(0)[3]
        with open(run.path(coverage_file), "w") as fileobj:
            fileobj.write("{ truncated")
        assert not run._files_match(digests)
        with pytest.raises(ValueError):
            run._load_shard(0)

    def test_discard_clears_corrupt_shard(self, tmp_path, shard_outcome):
        """Re-saving a shard whose files were torn restores exactly the
        journaled bytes, so the old record matches again."""
        run = _run(tmp_path)
        digests = run._save_shard(0, shard_outcome)
        os.remove(run.path(run._shard_files(0)[2]))
        assert not run._files_match(digests)
        assert run._save_shard(0, shard_outcome) == digests
        assert run._files_match(digests)

    def test_missing_shard_raises(self, tmp_path):
        run = _run(tmp_path)
        assert not run._files_match({})
        with pytest.raises(FileNotFoundError):
            run._load_shard(1)

    def test_distinct_runs_do_not_collide(self, tmp_path, shard_outcome):
        """Two configs checkpoint side by side under one journal root."""
        import dataclasses

        run_a = _run(tmp_path)
        other = dataclasses.replace(_CONFIG, seed=9)
        run_b = JournaledRun.start(str(tmp_path), other, workers=2)
        assert run_a.run_dir != run_b.run_dir
        run_a._save_shard(0, shard_outcome)
        assert not any(os.path.exists(run_b.path(name))
                       for name in run_b._shard_files(0))

    def test_plan_manifest_written(self, tmp_path):
        """The ``run_begin`` record is the plan: the config and the
        worker count a resume rebuilds the same shards from."""
        run = JournaledRun.start(str(tmp_path), _CONFIG, workers=3)
        resumed = JournaledRun.resume(str(tmp_path), run.run_id)
        assert resumed.workers == 3
        assert resumed.config == _CONFIG
        assert resumed.plan().shards == {}
