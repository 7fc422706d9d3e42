"""Crash-chaos matrix: SIGKILL a run at every barrier, resume, diff.

The acceptance contract of the run journal (ISSUE 7) is behavioral,
not structural: *a process killed at any journal barrier or mid-stage
must leave a run directory from which ``repro run --resume-run``
converges to outputs byte-identical to an uninterrupted run.* This
module is the harness that proves it with real processes:

1. run one clean ("golden") journaled run in a subprocess;
2. for every crash point in :data:`CRASH_POINTS`: start a fresh run
   with ``REPRO_CRASH_AT=<point>`` armed, assert the process actually
   died by SIGKILL, resume it with the same CLI invocation a human
   operator would use, and assert the resume exits 0;
3. byte-compare every output file (the filtered dataset + sidecars,
   artifact payloads, report, published store envelopes) of the
   resumed run against the golden run;
4. after every run, killed or not, kill its whole process group and
   require that no process of it is left -- a SIGKILL mid-ingest
   orphans the generator's day-pool workers, and the check covers
   them.

It doubles as the CI crash-chaos job's entry point::

    python -m repro.reliability.crashmatrix --out chaos-report.json

The JSON report carries per-point verdicts plus the golden/candidate
digests, so a CI failure shows *which* file diverged at *which* kill
point without rerunning anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import StudyConfig
from repro.core.runner import (
    ARTIFACTS_DIR,
    DEFAULT_STORE_DIR,
    INGEST_FILES,
    REPORT_FILE,
    STAGES,
)
from repro.reliability.atomic import write_text
from repro.reliability.faults import CRASH_ENV
from repro.serve.fingerprint import DEFAULT_SCENARIO, study_fingerprint

ProgressFn = Callable[[str], None]

#: Every SIGKILL point the journaled runner exposes, in pipeline order:
#: the moment after the journal file exists but before ``run_begin``,
#: both sides of every stage's journal barrier, a point inside the
#: ingest's day walk (after its first weekly progress report, with the
#: day-pool workers alive), and the instant before ``run_end`` seals
#: the run.
CRASH_POINTS: Tuple[str, ...] = (
    "pre:run_begin",
    *(point for stage in STAGES
      for point in (f"pre:{stage}",
                    *(("mid:ingest",) if stage == "ingest" else ()),
                    f"post:{stage}")),
    "pre:run_end",
)

#: Exit status of a process that died by SIGKILL (POSIX convention as
#: reported by ``subprocess``).
SIGKILL_RETURNCODE = -int(signal.SIGKILL)

#: Seconds to wait, after killing a run's process group, for every
#: process in it to be gone.
REAP_SECONDS = 10.0

#: Run-directory entries whose bytes define the run's *outputs* (the
#: journal is mechanism, not product: it legitimately differs between
#: a clean and a resumed run).
_OUTPUT_FILES = (*INGEST_FILES, REPORT_FILE)
_OUTPUT_DIRS = (ARTIFACTS_DIR, os.path.join(DEFAULT_STORE_DIR, "objects"))


@dataclass
class PointOutcome:
    """Verdict for one kill-point: did the crash fire, did resume heal."""

    point: str
    run_dir: str
    kill_returncode: int
    resume_returncode: int
    #: True when the armed SIGKILL actually fired (a point that never
    #: fires would make the matrix vacuous, so it is a failure).
    crashed: bool
    #: True when a process of the killed run outlived it (the day-pool
    #: workers of a mid-ingest kill); the harness then reaps them.
    orphaned: bool = False
    #: True when a process of the killed or the resumed run was still
    #: alive after the harness killed its group.
    leftover: bool = False
    #: Relative paths whose bytes differ from the golden run.
    differences: List[str] = field(default_factory=list)
    resume_stderr_tail: str = ""

    @property
    def passed(self) -> bool:
        return (self.crashed and self.resume_returncode == 0
                and not self.differences and not self.leftover)


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fileobj:
        for chunk in iter(lambda: fileobj.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def output_digests(run_dir: str) -> Dict[str, str]:
    """SHA-256 of every output file under one run directory."""
    digests: Dict[str, str] = {}
    for name in _OUTPUT_FILES:
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            digests[name] = _sha256_file(path)
    for sub in _OUTPUT_DIRS:
        base = os.path.join(run_dir, sub)
        for dirpath, _dirnames, filenames in os.walk(base):
            for filename in sorted(filenames):
                path = os.path.join(dirpath, filename)
                digests[os.path.relpath(path, run_dir)] = (
                    _sha256_file(path))
    return digests


def compare_outputs(golden: Dict[str, str],
                    candidate: Dict[str, str]) -> List[str]:
    """Relative paths missing, extra, or differing vs. the golden run."""
    problems = []
    for name in sorted(set(golden) | set(candidate)):
        if name not in candidate:
            problems.append(f"missing: {name}")
        elif name not in golden:
            problems.append(f"unexpected: {name}")
        elif golden[name] != candidate[name]:
            problems.append(f"differs: {name}")
    return problems


@dataclass(frozen=True)
class CliResult:
    """Exit status and captured stderr of one CLI subprocess."""

    returncode: int
    stderr: str
    #: A process of the run's group outlived the CLI process itself.
    orphaned: bool = False
    #: A process of the run's group survived the harness's kill.
    leftover: bool = False


def _group_alive(pgid: int) -> bool:
    """Whether any process of process group ``pgid`` still exists."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # a process exists, but not ours to signal
        return True
    return True


def _reap_group(pgid: int) -> bool:
    """SIGKILL process group ``pgid``; True if it outlives the wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    waited = 0.0
    while _group_alive(pgid) and waited < REAP_SECONDS:
        # A killed orphan is reparented and reaped by the system, not
        # by this process, so its disappearance is polled for.
        time.sleep(0.05)
        waited += 0.05
    return _group_alive(pgid)


def _run_cli(extra_args: Sequence[str], *, log_path: str,
             crash_at: Optional[str] = None,
             timeout: float = 600.0) -> CliResult:
    """Run ``repro run`` in its own session; reap the whole group.

    Output goes to ``log_path`` files rather than pipes: when the armed
    SIGKILL fires, orphaned day-pool workers inherit the parent's
    streams, and a pipe-reading wait would block on them until they
    exit. With file redirection we wait only on the CLI process
    itself, then SIGKILL its process group and wait until no process
    of it is left, so no orphaned worker outlives the matrix step.
    """
    env = dict(os.environ)
    env.pop(CRASH_ENV, None)
    if crash_at is not None:
        env[CRASH_ENV] = crash_at
    command = [sys.executable, "-m", "repro", "run", *extra_args]
    # Live log capture, not staged: staging would lose crash-time output.
    with open(log_path + ".out", "wb") as out, \
            open(log_path + ".err", "wb") as err:
        proc = subprocess.Popen(command, env=env, stdout=out,
                                stderr=err, start_new_session=True)
        orphaned = False
        try:
            returncode = proc.wait(timeout=timeout)
            orphaned = _group_alive(proc.pid)
        finally:
            # With start_new_session the child's pid is its process
            # group; this reaps pool workers the SIGKILL orphaned.
            leftover = _reap_group(proc.pid)
    with open(log_path + ".err", "r", errors="replace") as fileobj:
        stderr = fileobj.read()
    return CliResult(returncode=returncode, stderr=stderr,
                     orphaned=orphaned, leftover=leftover)


def _run_args(journal_dir: str, *, preset: str,
              resume_run: Optional[str] = None) -> List[str]:
    args = ["--preset", preset, "--journal-dir", journal_dir]
    if resume_run is not None:
        args += ["--resume-run", resume_run]
    return args


def expected_run_id(preset: str) -> str:
    """The deterministic id the first run under a fresh dir receives."""
    from repro.cli import _PRESETS

    config: StudyConfig = _PRESETS[preset]()
    return study_fingerprint(config, DEFAULT_SCENARIO)[:12] + "-001"


def run_matrix(base_dir: str, *,
               preset: str = "chaos",
               points: Sequence[str] = CRASH_POINTS,
               progress: Optional[ProgressFn] = None,
               ) -> Dict[str, object]:
    """Execute the full kill-resume-diff matrix; returns the report.

    ``base_dir`` receives one ``golden/`` journal dir plus one journal
    dir per crash point. The returned report is JSON-serializable.
    """
    report = progress or (lambda message: None)
    run_id = expected_run_id(preset)

    golden_dir = os.path.join(base_dir, "golden")
    os.makedirs(golden_dir, exist_ok=True)
    report(f"golden: clean {preset} run under {golden_dir}")
    clean = _run_cli(_run_args(golden_dir, preset=preset),
                     log_path=os.path.join(golden_dir, "cli"))
    if clean.returncode != 0 or clean.leftover:
        raise RuntimeError(
            f"golden run failed with exit {clean.returncode}"
            f"{' and left a process behind' if clean.leftover else ''}:"
            f"\n{clean.stderr[-2000:]}")
    golden = output_digests(os.path.join(golden_dir, run_id))

    outcomes: List[PointOutcome] = []
    for point in points:
        slug = point.replace(":", "_")
        journal_dir = os.path.join(base_dir, f"kill-{slug}")
        os.makedirs(journal_dir, exist_ok=True)
        killed = _run_cli(_run_args(journal_dir, preset=preset),
                          crash_at=point,
                          log_path=os.path.join(journal_dir, "kill"))
        crashed = killed.returncode == SIGKILL_RETURNCODE
        resumed = _run_cli(_run_args(journal_dir, preset=preset,
                                     resume_run=run_id),
                           log_path=os.path.join(journal_dir, "resume"))
        run_dir = os.path.join(journal_dir, run_id)
        differences = (compare_outputs(golden, output_digests(run_dir))
                       if resumed.returncode == 0 else
                       [f"resume exited {resumed.returncode}"])
        outcome = PointOutcome(
            point=point, run_dir=run_dir,
            kill_returncode=killed.returncode,
            resume_returncode=resumed.returncode,
            crashed=crashed, orphaned=killed.orphaned,
            leftover=killed.leftover or resumed.leftover,
            differences=differences,
            resume_stderr_tail=("" if resumed.returncode == 0
                                else resumed.stderr[-2000:]))
        outcomes.append(outcome)
        report(f"{point}: kill={killed.returncode} "
               f"resume={resumed.returncode} "
               f"{'OK' if outcome.passed else 'FAIL'}"
               + (" (orphaned workers)" if outcome.orphaned else "")
               + (" (process left behind)" if outcome.leftover else "")
               + (f" ({len(outcome.differences)} difference(s))"
                  if outcome.differences else ""))

    return {
        "preset": preset,
        "run_id": run_id,
        "golden_dir": golden_dir,
        "golden_digests": golden,
        "points": [asdict(outcome) for outcome in outcomes],
        "passed": all(outcome.passed for outcome in outcomes),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.reliability.crashmatrix",
        description="SIGKILL-at-every-barrier resume matrix for the "
                    "journaled runner")
    parser.add_argument("--base-dir", default=".chaos-matrix",
                        help="directory receiving the golden and "
                             "per-point run directories")
    parser.add_argument("--preset", default="chaos",
                        help="study preset to run (default: chaos)")
    parser.add_argument("--points", nargs="*", default=None,
                        help="subset of crash points (default: all)")
    parser.add_argument("--out", default=None,
                        help="write the JSON verdict report here")
    args = parser.parse_args(argv)

    points = tuple(args.points) if args.points else CRASH_POINTS
    unknown = [point for point in points if point not in CRASH_POINTS]
    if unknown:
        parser.error(f"unknown crash point(s): {unknown}; "
                     f"known: {list(CRASH_POINTS)}")

    result = run_matrix(args.base_dir, preset=args.preset, points=points,
                        progress=lambda m: print(f"  [{m}]",
                                                 file=sys.stderr))
    if args.out:
        write_text(args.out,
                   json.dumps(result, indent=2, sort_keys=True) + "\n")
    verdict = "PASS" if result["passed"] else "FAIL"
    print(f"crash matrix: {verdict} "
          f"({len(points)} point(s), preset={args.preset})")
    return 0 if result["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
