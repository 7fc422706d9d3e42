"""Crash chaos: SIGKILL at every barrier, disk faults, no silent loss.

Run against real processes via the
:mod:`repro.reliability.crashmatrix` harness: a ``repro run`` SIGKILLed
at every journal barrier and mid-ingest must resume to outputs
byte-identical to an uninterrupted run and leave no process behind,
and an injected disk fault must surface as a nonzero exit -- never as
silently missing data.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.core.runner import STAGES
from repro.reliability.crashmatrix import (
    CRASH_POINTS,
    SIGKILL_RETURNCODE,
    compare_outputs,
    expected_run_id,
    output_digests,
    run_matrix,
)
from repro.reliability.faults import DISK_FAULT_ENV


@pytest.fixture(scope="module")
def matrix_report(tmp_path_factory):
    """Run the full kill-resume-diff matrix once; tests assert on it."""
    base_dir = str(tmp_path_factory.mktemp("crash-matrix"))
    return run_matrix(base_dir, preset="chaos", points=CRASH_POINTS)


def _pooled_generation():
    """Whether a chaos-preset run generates its days in a pool."""
    from repro.synth.generator import _pool_workers

    return _pool_workers(7) > 0


class TestSigkillMatrix:
    def test_every_point_resumes_byte_identical(self, matrix_report):
        failures = {
            outcome["point"]: outcome["differences"]
            for outcome in matrix_report["points"]
            if not (outcome["crashed"]
                    and outcome["resume_returncode"] == 0
                    and not outcome["differences"])
        }
        assert failures == {}
        assert matrix_report["passed"] is True

    def test_every_armed_kill_actually_fired(self, matrix_report):
        returncodes = {outcome["point"]: outcome["kill_returncode"]
                       for outcome in matrix_report["points"]}
        assert returncodes == {point: SIGKILL_RETURNCODE
                               for point in CRASH_POINTS}

    def test_matrix_covers_every_barrier_and_mid_stage(
            self, matrix_report):
        points = [outcome["point"]
                  for outcome in matrix_report["points"]]
        assert points == list(CRASH_POINTS)
        # Both sides of each stage, mid-ingest, before run_begin and
        # before run_end.
        assert len(points) == 2 * len(STAGES) + 3
        for stage in STAGES:
            assert f"pre:{stage}" in points
            assert f"post:{stage}" in points
        assert "mid:ingest" in points

    def test_no_process_outlives_a_kill(self, matrix_report):
        """Every kill and resume left its process group empty once the
        harness reaped it -- including the day-pool workers a
        mid-ingest kill orphans."""
        left = [outcome["point"] for outcome in matrix_report["points"]
                if outcome["leftover"]]
        assert left == []
        orphaned = {outcome["point"] for outcome in matrix_report["points"]
                    if outcome["orphaned"]}
        if _pooled_generation():
            assert "mid:ingest" in orphaned
        # Only the kill inside the day walk has day-pool workers alive.
        assert orphaned <= {"mid:ingest"}

    def test_golden_outputs_are_nonempty(self, matrix_report):
        digests = matrix_report["golden_digests"]
        assert "report.txt" in digests
        assert "filtered.npz" in digests
        assert any(name.startswith(os.path.join("store", "objects"))
                   for name in digests)


class TestDiskFaultEndToEnd:
    def _run(self, journal_dir, *, resume=None, faults=None,
             timeout=600.0):
        env = dict(os.environ)
        env.pop(DISK_FAULT_ENV, None)
        env.pop("REPRO_CRASH_AT", None)
        if faults is not None:
            env[DISK_FAULT_ENV] = json.dumps(faults)
        command = [sys.executable, "-m", "repro", "run",
                   "--preset", "chaos", "--journal-dir", journal_dir]
        if resume is not None:
            command += ["--resume-run", resume]
        return subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=timeout)

    def test_enospc_surfaces_then_clean_resume_converges(self, tmp_path):
        golden_dir = str(tmp_path / "golden")
        faulty_dir = str(tmp_path / "faulty")
        run_id = expected_run_id("chaos")

        clean = self._run(golden_dir)
        assert clean.returncode == 0, clean.stderr[-2000:]
        golden = output_digests(os.path.join(golden_dir, run_id))

        # Persistent ENOSPC on the ingest coverage sidecar: the run must
        # exit nonzero with the disk fault named -- not exit 0 with the
        # sidecar quietly absent.
        faulty = self._run(faulty_dir, faults=[
            {"kind": "enospc", "path": "merged.coverage",
             "hits": "all"}])
        assert faulty.returncode != 0
        assert faulty.returncode != SIGKILL_RETURNCODE
        assert "ENOSPC" in faulty.stderr

        resumed = self._run(faulty_dir, resume=run_id)
        assert resumed.returncode == 0, resumed.stderr[-2000:]
        candidate = output_digests(os.path.join(faulty_dir, run_id))
        assert compare_outputs(golden, candidate) == []

    def test_torn_journal_append_is_not_silent(self, tmp_path):
        # Tearing the journal's own stage_end append kills the write
        # mid-line; the run fails loudly and the resume both reruns the
        # torn stage and reports the dropped record.
        journal_dir = str(tmp_path / "journal")
        run_id = expected_run_id("chaos")
        torn = self._run(journal_dir, faults=[
            {"kind": "torn", "path": "journal.jsonl", "hits": [3]}])
        assert torn.returncode != 0
        resumed = self._run(journal_dir, resume=run_id)
        assert resumed.returncode == 0, resumed.stderr[-2000:]

    def test_kill_returncode_matches_sigkill_convention(self):
        assert SIGKILL_RETURNCODE == -int(signal.SIGKILL)
