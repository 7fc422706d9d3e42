"""Journaled ingest resume: the run journal is the one record of finished work.

The ingest stage measures the whole window in one pass, applies the
visitor filter and writes ``filtered.npz`` (+ sidecar),
``merged.stats.json`` and ``merged.coverage.json``; its ``stage_end``
record carries their digests. These tests pin what a resume does with
that record:

* a first run journals exactly the four ingest files, and they hold
  the study's own ingest, visitor-filtered;
* a run killed inside the ingest re-runs it, and a run killed after
  the ingest's ``stage_end`` replays it without measuring anything;
* a run that failed while writing the ingest files resumes from an
  ingest that never committed;
* an ingest file torn after the stage committed fails verification,
  the ingest re-runs, and every output -- ``merged.stats.json``
  included -- is byte-identical to a clean run's.

A kill right after journal record k leaves exactly the first k + 1
lines of the append-only journal, so the tests reproduce one by
copying a clean run directory and cutting its journal there.
"""

import os
import shutil

import pytest

from repro.config import StudyConfig
from repro.core import study
from repro.core.runner import FILTERED_DATASET, INGEST_FILES, JournaledRun
from repro.pipeline.store import load_dataset
from repro.pipeline.visitors import keep_devices, visitor_filter_mask
from repro.reliability.atomic import disk_faults, tmp_path_for
from repro.reliability.crashmatrix import compare_outputs, output_digests
from repro.reliability.errors import DiskFullError
from repro.reliability.faults import DiskFault, DiskFaultInjector
from repro.reliability.journal import JOURNAL_FILE, replay
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import utc_ts

_CONFIG = StudyConfig(n_students=4, seed=11,
                      start_ts=utc_ts(2020, 2, 1),
                      end_ts=utc_ts(2020, 2, 7),
                      visitor_min_days=2)


def _records(run_dir):
    return replay(os.path.join(run_dir, JOURNAL_FILE)).records


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """One uninterrupted journaled run, plus its digests."""
    journal_dir = str(tmp_path_factory.mktemp("clean-journal"))
    result = JournaledRun.start(journal_dir, _CONFIG).execute()
    return result, output_digests(result.run_dir)


@pytest.fixture
def ingests(monkeypatch):
    """Counts the study ingests a journaled run starts."""
    calls = []
    original = study._ingest

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(study, "_ingest", counting)
    return calls


def _cut(clean, tmp_path, keep):
    """Copy the clean run and keep its journal up to the first record
    ``keep`` accepts (inclusive); returns ``(journal_dir, run_dir)``."""
    result, _digests = clean
    journal_dir = str(tmp_path / "journal")
    run_dir = os.path.join(journal_dir, result.run_id)
    shutil.copytree(result.run_dir, run_dir)
    path = os.path.join(run_dir, JOURNAL_FILE)
    with open(path) as fileobj:
        lines = fileobj.read().splitlines()
    stop = next(index for index, record in enumerate(replay(path).records)
                if keep(record))
    with open(path, "w") as fileobj:
        fileobj.write("\n".join(lines[:stop + 1]) + "\n")
    return journal_dir, run_dir


def _is_stage(kind, stage):
    return lambda record: (record.kind == kind
                           and record.payload.get("stage") == stage)


class TestIngestResume:
    def test_first_run_journals_the_ingest(self, clean):
        result, _digests = clean
        records = _records(result.run_dir)
        assert not any(r.kind == "shard_end" for r in records)
        ingest = next(r.payload for r in records
                      if _is_stage("stage_end", "ingest")(r))
        assert sorted(ingest["outputs"]) == sorted(INGEST_FILES)
        saved = load_dataset(os.path.join(result.run_dir,
                                          FILTERED_DATASET))
        dataset, _stats, _coverage = study._ingest(
            _CONFIG, CampusTraceGenerator(_CONFIG), lambda message: None)
        retained = visitor_filter_mask(dataset, _CONFIG.visitor_min_days)
        assert ingest["info"] == {"flows": len(dataset),
                                  "devices": dataset.n_devices,
                                  "devices_kept": int(retained.sum()),
                                  "orphans_swept": 0}
        assert saved.identical(keep_devices(dataset, retained))

    def test_kill_inside_the_ingest_reruns_it(self, clean, tmp_path,
                                              ingests):
        """Killed mid-ingest: files a dying ingest may have written are
        not trusted without the stage's record, and the staged write it
        left half done is swept."""
        journal_dir, run_dir = _cut(clean, tmp_path,
                                    _is_stage("stage_begin", "ingest"))
        debris = os.path.join(run_dir, os.path.basename(
            tmp_path_for(os.path.join(run_dir, FILTERED_DATASET))))
        with open(debris, "wb") as fileobj:
            fileobj.write(b"half a dataset")

        outcome = JournaledRun.resume(journal_dir,
                                      clean[0].run_id).execute()
        assert outcome.executed == JournaledRun.STAGES
        assert len(ingests) == 1
        assert not os.path.exists(debris)
        ingest_ends = [r.payload for r in _records(run_dir)
                       if _is_stage("stage_end", "ingest")(r)]
        assert ingest_ends[-1]["info"]["orphans_swept"] == 1
        assert compare_outputs(clean[1], output_digests(run_dir)) == []

    def test_journaled_ingest_is_replayed(self, clean, tmp_path,
                                          ingests):
        """Killed right after the ingest's ``stage_end``: the ingest is
        journaled, so the resume measures nothing."""
        journal_dir, run_dir = _cut(clean, tmp_path,
                                    _is_stage("stage_end", "ingest"))

        outcome = JournaledRun.resume(journal_dir,
                                      clean[0].run_id).execute()
        assert outcome.replayed == ("ingest",)
        assert outcome.executed == JournaledRun.STAGES[1:]
        assert ingests == []
        assert compare_outputs(clean[1], output_digests(run_dir)) == []

    def test_failed_run_resumes_before_the_ingest(self, clean, tmp_path):
        """A disk that refuses the coverage file fails the run before
        the ingest commits; the resume measures the window again."""
        journal_dir = str(tmp_path / "journal")
        run = JournaledRun.start(journal_dir, _CONFIG)
        fault = DiskFault(kind="enospc", path_contains="merged.coverage",
                          hits=None)
        with disk_faults(DiskFaultInjector(faults=(fault,))):
            with pytest.raises(DiskFullError):
                run.execute()
        resumed = JournaledRun.resume(journal_dir, run.run_id)
        assert resumed.plan().completed == ()

        outcome = resumed.execute()
        assert outcome.executed == JournaledRun.STAGES
        assert compare_outputs(clean[1],
                               output_digests(run.run_dir)) == []

    @pytest.mark.parametrize("name", INGEST_FILES,
                             ids=["npz", "sidecar", "stats", "coverage"])
    def test_torn_ingest_file_reruns_the_ingest(self, clean, tmp_path,
                                                ingests, name):
        """Killed at ``pre:analyze``, then one ingest file is torn
        (disk-full and bit rot look exactly like this)."""
        journal_dir, run_dir = _cut(clean, tmp_path,
                                    _is_stage("stage_begin", "analyze"))
        torn = os.path.join(run_dir, name)
        with open(torn, "r+b") as fileobj:
            fileobj.truncate(os.path.getsize(torn) // 2)

        outcome = JournaledRun.resume(journal_dir,
                                      clean[0].run_id).execute()
        assert outcome.executed == JournaledRun.STAGES
        assert len(ingests) == 1
        notes = [r.payload for r in _records(run_dir) if r.kind == "note"]
        assert notes == [{"event": "stage_outputs_invalid",
                          "stage": "ingest"}]
        digests = output_digests(run_dir)
        assert digests["merged.stats.json"] == clean[1]["merged.stats.json"]
        assert compare_outputs(clean[1], digests) == []
