"""Journaled shard resume: the run journal is the one record of finished work.

Each finished ingest shard is written under ``shards/`` and journaled
as a ``shard_end`` record carrying the digests of its files. These
tests pin what a resume does with those records:

* a first run journals every shard, and the ingest ``stage_end`` lists
  exactly the journaled shard files;
* a run killed after k of n ``shard_end`` records re-runs only the
  n - k others, and a fully journaled ingest runs no shard at all;
* a run that failed mid-ingest resumes from the shards it journaled;
* a shard file torn after ingest is re-run *during the ingest stage*,
  the discard is journaled, and every output -- ``merged.stats.json``
  included -- is byte-identical to a clean run's.

A kill right after journal record k leaves exactly the first k + 1
lines of the append-only journal, so the tests reproduce one by
copying a clean run directory and cutting its journal there.
"""

import os
import shutil

import pytest

from repro.config import StudyConfig
from repro.core.runner import JournaledRun
from repro.pipeline import parallel
from repro.pipeline.parallel import ParallelPipeline
from repro.pipeline.store import load_dataset
from repro.reliability.atomic import disk_faults
from repro.reliability.crashmatrix import compare_outputs, output_digests
from repro.reliability.errors import DiskFullError
from repro.reliability.faults import DiskFault, DiskFaultInjector
from repro.reliability.journal import JOURNAL_FILE, replay
from repro.util.timeutil import utc_ts

_CONFIG = StudyConfig(n_students=4, seed=11,
                      start_ts=utc_ts(2020, 2, 1),
                      end_ts=utc_ts(2020, 2, 7),
                      visitor_min_days=2)


def _records(run_dir):
    return replay(os.path.join(run_dir, JOURNAL_FILE)).records


def _stage_info(run_dir, stage):
    """The ``info`` of the last journaled ``stage_end`` of ``stage``."""
    ends = [record.payload for record in _records(run_dir)
            if record.kind == "stage_end"
            and record.payload["stage"] == stage]
    return ends[-1]["info"]


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """One uninterrupted two-worker journaled run, plus its digests."""
    journal_dir = str(tmp_path_factory.mktemp("clean-journal"))
    result = JournaledRun.start(journal_dir, _CONFIG, workers=2).execute()
    return result, output_digests(result.run_dir)


def _cut(clean, tmp_path, keep, nth=1):
    """Copy the clean run and keep its journal up to the ``nth`` record
    ``keep`` accepts (inclusive); returns ``(journal_dir, run_dir)``."""
    result, _digests = clean
    journal_dir = str(tmp_path / "journal")
    run_dir = os.path.join(journal_dir, result.run_id)
    shutil.copytree(result.run_dir, run_dir)
    path = os.path.join(run_dir, JOURNAL_FILE)
    with open(path) as fileobj:
        lines = fileobj.read().splitlines()
    records = replay(path).records
    stop = [index for index, record in enumerate(records)
            if keep(record)][nth - 1]
    with open(path, "w") as fileobj:
        fileobj.write("\n".join(lines[:stop + 1]) + "\n")
    return journal_dir, run_dir


def _is_stage(kind, stage):
    return lambda record: (record.kind == kind
                           and record.payload.get("stage") == stage)


class TestShardResume:
    def test_first_run_journals_every_shard(self, clean):
        result, _digests = clean
        records = _records(result.run_dir)
        shard_ends = [r.payload for r in records if r.kind == "shard_end"]
        assert sorted(p["shard"] for p in shard_ends) == [0, 1]
        journaled = {}
        for payload in shard_ends:
            journaled.update(payload["outputs"])
        ingest = next(r.payload for r in records
                      if _is_stage("stage_end", "ingest")(r))
        assert ingest["outputs"] == journaled
        assert len(journaled) == 8  # four files per shard
        assert ingest["info"]["resumed_shards"] == []
        assert ingest["info"]["discarded_shards"] == []
        merged = load_dataset(os.path.join(result.run_dir, "merged.npz"))
        assert merged.identical(
            ParallelPipeline(_CONFIG, workers=2).run().dataset)

    def test_resume_reruns_only_missing_shards(self, clean, tmp_path):
        """Killed after the first ``shard_end``: the other shard's files
        may be on disk, but without a record they are not trusted."""
        journal_dir, run_dir = _cut(
            clean, tmp_path, lambda r: r.kind == "shard_end")
        first = _records(run_dir)[-1].payload["shard"]

        outcome = JournaledRun.resume(journal_dir,
                                      clean[0].run_id).execute()
        assert outcome.executed == JournaledRun.STAGES
        info = _stage_info(run_dir, "ingest")
        assert info["resumed_shards"] == [first]
        assert set(info["attempts"]) == {str(1 - first)}
        assert compare_outputs(clean[1], output_digests(run_dir)) == []

    def test_fully_journaled_ingest_runs_nothing(self, clean, tmp_path):
        """Killed at ``post:ingest``: every shard is journaled, so the
        re-executed ingest stage starts no shard."""
        journal_dir, run_dir = _cut(
            clean, tmp_path, lambda r: r.kind == "shard_end", nth=2)

        outcome = JournaledRun.resume(journal_dir,
                                      clean[0].run_id).execute()
        assert outcome.executed == JournaledRun.STAGES
        info = _stage_info(run_dir, "ingest")
        assert info["resumed_shards"] == [0, 1]
        assert info["attempts"] == {}
        assert compare_outputs(clean[1], output_digests(run_dir)) == []

    def test_failed_run_resumes_from_journaled_shards(self, clean,
                                                      tmp_path):
        """A disk that refuses shard 1's files fails the run; the
        resume re-runs only the shards the journal does not hold."""
        journal_dir = str(tmp_path / "journal")
        run = JournaledRun.start(journal_dir, _CONFIG, workers=2)
        fault = DiskFault(kind="enospc", path_contains="shard-0001",
                          hits=None)
        with disk_faults(DiskFaultInjector(faults=(fault,))):
            with pytest.raises(DiskFullError):
                run.execute()
        resumed = JournaledRun.resume(journal_dir, run.run_id)
        journaled = sorted(resumed.plan().shards)
        assert 1 not in journaled  # the refused shard never committed

        resumed.execute()
        info = _stage_info(run.run_dir, "ingest")
        assert info["resumed_shards"] == journaled
        assert set(info["attempts"]) == {
            str(index) for index in {0, 1} - set(journaled)}
        assert compare_outputs(clean[1],
                               output_digests(run.run_dir)) == []

    @pytest.mark.parametrize("suffix", [
        ".npz", ".npz.meta.json", ".stats.json", ".coverage.json"],
        ids=["npz", "sidecar", "stats", "coverage"])
    def test_torn_shard_reruns_in_ingest(self, clean, tmp_path,
                                         monkeypatch, suffix):
        """Killed at ``pre:merge``, then one of shard 0's files is torn
        (disk-full and bit rot look exactly like this)."""
        journal_dir, run_dir = _cut(clean, tmp_path,
                                    _is_stage("stage_begin", "merge"))
        torn = os.path.join(run_dir, "shards", "shard-0000" + suffix)
        with open(torn, "r+b") as fileobj:
            fileobj.truncate(os.path.getsize(torn) // 2)
        built = []

        class Counting(ParallelPipeline):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel, "ParallelPipeline", Counting)

        outcome = JournaledRun.resume(journal_dir,
                                      clean[0].run_id).execute()
        # Ingest failed verification, so it ran again -- and it is the
        # only stage that built a pipeline: merge reads shard files.
        assert outcome.executed == JournaledRun.STAGES
        assert len(built) == 1
        info = _stage_info(run_dir, "ingest")
        assert info["discarded_shards"] == [0]
        assert info["resumed_shards"] == [1]
        assert set(info["attempts"]) == {"0"}
        notes = [r.payload for r in _records(run_dir) if r.kind == "note"]
        assert {"event": "shards_discarded", "shards": [0],
                "orphans_swept": 0} in notes
        digests = output_digests(run_dir)
        assert digests["merged.stats.json"] == clean[1]["merged.stats.json"]
        assert compare_outputs(clean[1], digests) == []
