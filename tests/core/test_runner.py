"""JournaledRun: stage execution, verification, and crash-free resume.

The subprocess SIGKILL matrix lives in
``tests/integration/test_crash_chaos.py``; this module pins the
in-process contracts it builds on: deterministic run ids, journal
sealing, resume-as-replay, downstream re-execution after output
tampering, and convergence after an injected disk fault.
"""

import os
import shutil

import pytest

from repro.config import StudyConfig
from repro.core.runner import (
    STAGES,
    JournaledRun,
    allocate_run_id,
)
from repro.reliability.atomic import disk_faults
from repro.reliability.crashmatrix import compare_outputs, output_digests
from repro.reliability.errors import DiskFullError, JournalError
from repro.reliability.faults import DiskFault, DiskFaultInjector
from repro.reliability.journal import JOURNAL_FILE, JournalRecord, replay
from repro.serve.fingerprint import study_fingerprint


@pytest.fixture(scope="module")
def chaos_config():
    return StudyConfig.chaos_scale()


@pytest.fixture(scope="module")
def golden(tmp_path_factory, chaos_config):
    """One clean journaled run; the baseline every test diffs against."""
    journal_dir = str(tmp_path_factory.mktemp("golden-journal"))
    run = JournaledRun.start(journal_dir, chaos_config)
    result = run.execute()
    return journal_dir, result, output_digests(result.run_dir)


class TestCleanRun:
    def test_executes_every_stage_and_seals_the_journal(self, golden):
        _journal_dir, result, digests = golden
        assert result.executed == STAGES
        assert result.replayed == ()
        records = replay(os.path.join(result.run_dir,
                                      JOURNAL_FILE)).records
        assert records[0].kind == "run_begin"
        assert records[-1].kind == "run_end"
        assert [r.payload["stage"] for r in records
                if r.kind == "stage_end"] == list(STAGES)
        assert result.journal_counters["records_appended"] == len(records)
        assert result.journal_counters["append_retries"] == 0

    def test_outputs_cover_every_layer(self, golden, chaos_config):
        _journal_dir, result, digests = golden
        assert "filtered.npz" in digests
        assert "merged.stats.json" in digests
        assert "report.txt" in digests
        assert any(name.startswith("artifacts" + os.sep)
                   for name in digests)
        fingerprint = study_fingerprint(chaos_config)
        assert any(fingerprint[:2] in name for name in digests
                   if name.startswith(os.path.join("store", "objects")))
        assert "Figure 1" in result.report_text

    def test_run_id_is_deterministic(self, golden, chaos_config):
        _journal_dir, result, _digests = golden
        assert result.run_id == (study_fingerprint(chaos_config)[:12]
                                 + "-001")


class TestRunIds:
    def test_first_free_ordinal(self, tmp_path):
        fingerprint = "ab" * 32
        assert allocate_run_id(str(tmp_path), fingerprint) == (
            "abababababab-001")
        os.makedirs(tmp_path / "abababababab-001")
        os.makedirs(tmp_path / "abababababab-003")
        assert allocate_run_id(str(tmp_path), fingerprint) == (
            "abababababab-002")

    def test_other_fingerprints_do_not_collide(self, tmp_path):
        os.makedirs(tmp_path / "cdcdcdcdcdcd-001")
        os.makedirs(tmp_path / "not-a-run-dir")
        assert allocate_run_id(str(tmp_path), "ab" * 32) == (
            "abababababab-001")

    def test_start_refuses_a_journaled_run_id(self, golden,
                                              chaos_config):
        journal_dir, result, _digests = golden
        with pytest.raises(JournalError, match="resume it instead"):
            JournaledRun.start(journal_dir, chaos_config,
                               run_id=result.run_id)


class TestResume:
    def test_completed_run_resumes_as_pure_replay(self, golden):
        journal_dir, result, digests = golden
        resumed = JournaledRun.resume(journal_dir, result.run_id)
        outcome = resumed.execute()
        assert outcome.executed == ()
        assert outcome.replayed == STAGES
        assert compare_outputs(digests,
                               output_digests(result.run_dir)) == []

    def test_resume_recovers_config_and_store_from_the_journal(
            self, golden, chaos_config):
        journal_dir, result, _digests = golden
        resumed = JournaledRun.resume(journal_dir, result.run_id)
        assert resumed.config == chaos_config
        assert resumed.store_root == result.store_root
        assert resumed.fingerprint == result.fingerprint

    def test_resume_ignores_a_removed_config_key(self, golden, tmp_path,
                                                 chaos_config):
        """A journal written while ``use_columnar`` was a StudyConfig
        field resumes to the same config, fingerprint and outputs."""
        journal_dir, result, digests = golden
        clone_dir = str(tmp_path / "journal")
        os.makedirs(clone_dir)
        clone_run = os.path.join(clone_dir, result.run_id)
        shutil.copytree(result.run_dir, clone_run)
        journal_path = os.path.join(clone_run, JOURNAL_FILE)
        with open(journal_path) as fileobj:
            lines = fileobj.read().splitlines()
        begin = JournalRecord.parse(lines[0])
        assert begin is not None and begin.kind == "run_begin"
        begin.payload["config"]["use_columnar"] = False
        lines[0] = begin.to_line()
        with open(journal_path, "w") as fileobj:
            fileobj.write("\n".join(lines) + "\n")

        resumed = JournaledRun.resume(clone_dir, result.run_id,
                                      config=chaos_config)
        assert resumed.config == chaos_config
        assert resumed.fingerprint == result.fingerprint
        outcome = resumed.execute()
        assert outcome.replayed == STAGES
        assert compare_outputs(digests, output_digests(clone_run)) == []

    def test_mismatched_config_is_rejected(self, golden):
        journal_dir, result, _digests = golden
        with pytest.raises(JournalError, match="fingerprints to"):
            JournaledRun.resume(journal_dir, result.run_id,
                                config=StudyConfig.chaos_scale(seed=12))

    def test_missing_journal_is_rejected(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            JournaledRun.resume(str(tmp_path), "abababababab-001")

    def test_empty_journal_restarts_with_supplied_config(
            self, tmp_path, chaos_config):
        # The process died before run_begin was fsync'd: the journal
        # file exists but holds nothing. A resume with the config in
        # hand begins fresh in the same directory.
        run_id = "abababababab-001"
        run_dir = tmp_path / run_id
        run_dir.mkdir()
        (run_dir / JOURNAL_FILE).touch()
        resumed = JournaledRun.resume(str(tmp_path), run_id,
                                      config=chaos_config)
        plan = resumed.plan()
        assert plan.completed == ()
        assert not plan.complete
        records = replay(str(run_dir / JOURNAL_FILE)).records
        assert [record.kind for record in records] == ["run_begin"]

    def test_empty_journal_without_config_is_rejected(self, tmp_path):
        run_id = "abababababab-001"
        run_dir = tmp_path / run_id
        run_dir.mkdir()
        (run_dir / JOURNAL_FILE).touch()
        with pytest.raises(JournalError, match="no config"):
            JournaledRun.resume(str(tmp_path), run_id)


class TestRecovery:
    def test_tampered_intermediate_reruns_downstream_stages(
            self, golden, tmp_path):
        journal_dir, result, digests = golden
        clone_dir = str(tmp_path / "journal")
        os.makedirs(clone_dir)
        clone_run = os.path.join(clone_dir, result.run_id)
        shutil.copytree(result.run_dir, clone_run)
        # Corrupt the analyze stage's report; its journaled digest no
        # longer matches, so resume must re-execute analyze onward.
        with open(os.path.join(clone_run, "report.txt"), "wb") as fp:
            fp.write(b"not a report")

        resumed = JournaledRun.resume(clone_dir, result.run_id)
        outcome = resumed.execute()
        assert outcome.replayed == ("ingest",)
        assert outcome.executed == ("analyze", "publish")
        assert compare_outputs(digests, output_digests(clone_run)) == []
        records = replay(os.path.join(clone_run, JOURNAL_FILE)).records
        notes = [r for r in records if r.kind == "note"]
        assert notes and notes[0].payload["stage"] == "analyze"

    def test_disk_fault_surfaces_then_clean_resume_converges(
            self, golden, tmp_path, chaos_config):
        _journal_dir, _result, digests = golden
        journal_dir = str(tmp_path / "journal")
        run = JournaledRun.start(journal_dir, chaos_config)
        fault = DiskFault(kind="enospc", path_contains="merged.coverage",
                          hits=None)
        with disk_faults(DiskFaultInjector(faults=(fault,))):
            with pytest.raises(DiskFullError):
                run.execute()

        # No silent loss: ingest never journaled completion...
        resumed = JournaledRun.resume(journal_dir, run.run_id)
        assert resumed.plan().completed == ()
        # ...and a fault-free resume converges to the golden bytes.
        outcome = resumed.execute()
        assert outcome.executed == STAGES
        assert compare_outputs(digests,
                               output_digests(run.run_dir)) == []
