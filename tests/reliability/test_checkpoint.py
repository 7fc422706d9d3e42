"""Ingest checkpoints: the journaled files of a run's ingest stage.

A journaled run checkpoints its whole-window ingest as four files
(``filtered.npz``, its sidecar, ``merged.stats.json`` and
``merged.coverage.json``) plus a ``stage_end`` record holding their
SHA-256 digests. These tests pin that unit on its own: the files
round-trip the ingest exactly, files without a record are not a
checkpoint, and a file that no longer matches its digest is refused.
"""

import json
import os

import pytest

from repro.config import StudyConfig
from repro.core.runner import (
    FILTERED_DATASET,
    INGEST_FILES,
    MERGED_COVERAGE,
    MERGED_STATS,
    JournaledRun,
)
from repro.pipeline.pipeline import MonitoringPipeline
from repro.pipeline.store import load_dataset, load_stats
from repro.reliability.coverage import CoverageReport
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import utc_ts

_CONFIG = StudyConfig(n_students=4, seed=42,
                      start_ts=utc_ts(2020, 2, 1),
                      end_ts=utc_ts(2020, 2, 5),
                      visitor_min_days=2)


@pytest.fixture(scope="module")
def shard_outcome():
    """One tiny real ingest result (dataset + stats + coverage)."""
    generator = CampusTraceGenerator(_CONFIG)
    excluded = generator.plan.excluded_blocks(_CONFIG.excluded_operators)
    pipeline = MonitoringPipeline(_CONFIG, excluded)
    for trace in generator.iter_days():
        pipeline.ingest_day(trace)
    return (pipeline.finalize(), pipeline.stats,
            pipeline.coverage_report())


def _run(tmp_path):
    """A started run, its journal holding only ``run_begin``."""
    return JournaledRun.start(str(tmp_path), _CONFIG)


def _load_coverage(run):
    with open(run.path(MERGED_COVERAGE)) as fileobj:
        return CoverageReport.from_json(json.load(fileobj))


def _commit(run, digests):
    """Journal the ingest stage as complete with ``digests``."""
    run._append("stage_begin", {"stage": "ingest"})
    run._append("stage_end", {"stage": "ingest", "outputs": digests,
                              "info": {}})


class TestStore:
    def test_round_trip(self, tmp_path, shard_outcome):
        dataset, stats, coverage = shard_outcome
        run = _run(tmp_path)
        digests = run._save_ingest(shard_outcome)
        assert sorted(digests) == sorted(INGEST_FILES)
        assert run._files_match(digests)
        assert load_dataset(run.path(FILTERED_DATASET)).identical(dataset)
        assert load_stats(run.path(MERGED_STATS)) == stats
        assert _load_coverage(run).to_json() == coverage.to_json()

    def test_torn_checkpoint_is_invisible(self, tmp_path, shard_outcome):
        """Ingest files without a ``stage_end`` record read as 'not
        checkpointed', also after a resume; the record commits them."""
        run = _run(tmp_path)
        digests = run._save_ingest(shard_outcome)
        assert run.plan().completed == ()
        assert JournaledRun.resume(
            str(tmp_path), run.run_id).plan().completed == ()

        _commit(run, digests)
        plan = JournaledRun.resume(str(tmp_path), run.run_id).plan()
        assert plan.completed == ("ingest",)
        assert plan.outputs["ingest"] == digests

    def test_corrupt_npz_raises_checkpoint_error(self, tmp_path,
                                                 shard_outcome):
        """A record over rewritten data is corruption: the digests
        refuse the ingest before anything tries to load it."""
        run = _run(tmp_path)
        digests = run._save_ingest(shard_outcome)
        with open(run.path(FILTERED_DATASET), "wb") as fileobj:
            fileobj.write(b"not an npz")
        assert not run._files_match(digests)
        # Every other file still matches: the refusal is the npz's.
        assert run._files_match(
            {name: digest for name, digest in digests.items()
             if name != FILTERED_DATASET})

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
        run._save_ingest((dataset, stats, coverage))
        loaded = _load_coverage(run)
        assert loaded.to_json() == coverage.to_json()
        assert loaded == coverage
        assert not loaded.is_complete()

    def test_corrupt_coverage_raises_checkpoint_error(self, tmp_path,
                                                      shard_outcome):
        run = _run(tmp_path)
        digests = run._save_ingest(shard_outcome)
        with open(run.path(MERGED_COVERAGE), "w") as fileobj:
            fileobj.write("{ truncated")
        assert not run._files_match(digests)
        with pytest.raises(ValueError):
            _load_coverage(run)

    def test_discard_clears_corrupt_shard(self, tmp_path, shard_outcome):
        """Re-saving an ingest whose files were torn restores exactly the
        journaled bytes, so the old record matches again."""
        run = _run(tmp_path)
        digests = run._save_ingest(shard_outcome)
        os.remove(run.path(MERGED_STATS))
        assert not run._files_match(digests)
        assert run._save_ingest(shard_outcome) == digests
        assert run._files_match(digests)

    def test_missing_shard_raises(self, tmp_path):
        run = _run(tmp_path)
        assert not run._files_match({})
        with pytest.raises(FileNotFoundError):
            load_dataset(run.path(FILTERED_DATASET))

    def test_distinct_runs_do_not_collide(self, tmp_path, shard_outcome):
        """Two configs checkpoint side by side under one journal root."""
        import dataclasses

        run_a = _run(tmp_path)
        other = dataclasses.replace(_CONFIG, seed=9)
        run_b = JournaledRun.start(str(tmp_path), other)
        assert run_a.run_dir != run_b.run_dir
        run_a._save_ingest(shard_outcome)
        assert not any(os.path.exists(run_b.path(name))
                       for name in INGEST_FILES)

    def test_plan_manifest_written(self, tmp_path):
        """The ``run_begin`` record is the plan: the config and stage
        list a resume rebuilds the run from."""
        run = JournaledRun.start(str(tmp_path), _CONFIG)
        resumed = JournaledRun.resume(str(tmp_path), run.run_id)
        assert resumed.config == _CONFIG
        assert resumed.plan().stages == JournaledRun.STAGES
        assert resumed.plan().completed == ()
