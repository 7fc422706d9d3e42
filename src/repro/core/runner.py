"""Journaled study runs: crash-safe orchestration of the full pipeline.

:class:`JournaledRun` decomposes ``repro run`` into three durable
stages and brackets each with write-ahead records in a
:class:`~repro.reliability.journal.RunJournal`:

========  ==========================================================
stage     work (inputs -> durable outputs)
========  ==========================================================
ingest    generate and measure the whole window, then apply the
          visitor filter -> ``filtered.npz`` (+ stats, coverage
          sidecars)
analyze   figures/summary/outcomes -> ``artifacts/*.json`` +
          ``report.txt``
publish   artifact payloads -> the results store
          (:class:`~repro.serve.store.ArtifactStore`)
========  ==========================================================

The ingest stage is the study's own in-process ingest
(:func:`repro.core.study._ingest`) followed by the study's visitor
filter, so it saves only the dataset the study analyses, in the order
the ingest registered its flows: the plain run's dataset, byte for
byte. Every later stage reads only the previous stage's *files*
(never in-memory state). Each stage writes
its outputs through the atomic-write chokepoint
(:mod:`repro.reliability.atomic`) and journals a ``stage_end`` record
carrying the SHA-256 of every output file, so the journal is the run's
only record of finished work. A process killed at any point --
including via the :func:`~repro.reliability.faults.maybe_crash`
SIGKILL hooks placed at every journal barrier and inside the ingest's
day walk -- leaves a run directory from which ``repro run --resume-run
<id>`` continues: completed stages are *verified* against their
journaled digests and replayed from disk, and only the in-flight stage
re-executes; an interrupted ingest re-runs the whole window. Because
every stage is a deterministic function of its inputs, the resumed
run's outputs are byte-identical to an uninterrupted run's -- the
contract pinned by ``tests/integration/test_crash_chaos.py``.

Run directories live under a *journal dir*::

    <journal_dir>/<fingerprint[:12]>-NNN/
        journal.jsonl            # write-ahead run journal
        filtered.npz[.meta.json] # ingest stage: the analysed dataset
        merged.stats.json        # ingest stage: pipeline counters
        merged.coverage.json     # ingest stage: telemetry coverage
        artifacts/<name>.json    # analyze stage (canonical JSON)
        report.txt               # analyze stage
        store/                   # publish stage (default store root)

Run ids are deterministic (no clocks, no entropy -- RL001): the config
fingerprint's first 12 hex digits plus the first free 3-digit ordinal
under the journal dir.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import StudyConfig
from repro.pipeline.dataset import FlowDataset
from repro.pipeline.pipeline import PipelineStats
from repro.pipeline.store import load_dataset, load_stats, save_dataset, save_stats
from repro.reliability.atomic import sweep_orphans, write_text
from repro.reliability.coverage import CoverageReport
from repro.reliability.errors import JournalError
from repro.reliability.faults import maybe_crash
from repro.reliability.journal import (
    JOURNAL_FILE,
    JOURNAL_VERSION,
    JournalRecord,
    ResumePlan,
    RunJournal,
    resume_plan,
)
from repro.reliability.retry import RetryPolicy
from repro.serve.fingerprint import (
    DEFAULT_SCENARIO,
    canonical_json,
    fingerprint_payload,
    study_fingerprint,
)

ProgressFn = Callable[[str], None]

#: The stage sequence every journaled run executes, in order.
STAGES: Tuple[str, ...] = ("ingest", "analyze", "publish")

#: File names inside a run directory.
FILTERED_DATASET = "filtered.npz"
MERGED_STATS = "merged.stats.json"
MERGED_COVERAGE = "merged.coverage.json"
ARTIFACTS_DIR = "artifacts"
REPORT_FILE = "report.txt"
DEFAULT_STORE_DIR = "store"

_RUN_ID_RE = re.compile(r"^[0-9a-f]{12}-(\d{3,})$")

_SIDECAR = ".meta.json"

#: The ingest stage's output files.
INGEST_FILES = (FILTERED_DATASET, FILTERED_DATASET + _SIDECAR,
                MERGED_STATS, MERGED_COVERAGE)


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fileobj:
        for chunk in iter(lambda: fileobj.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def allocate_run_id(journal_dir: str, fingerprint: str) -> str:
    """First free ``<fp[:12]>-NNN`` ordinal under ``journal_dir``.

    Purely a function of the directory listing -- two clean starts of
    the same config get ``-001`` then ``-002``, and a resumed run keeps
    its id because its directory already exists.
    """
    prefix = fingerprint[:12]
    taken = set()
    if os.path.isdir(journal_dir):
        for name in sorted(os.listdir(journal_dir)):
            match = _RUN_ID_RE.match(name)
            if match and name.startswith(prefix + "-"):
                taken.add(int(match.group(1)))
    ordinal = 1
    while ordinal in taken:
        ordinal += 1
    return f"{prefix}-{ordinal:03d}"


@dataclass
class RunResult:
    """What a journaled run produced, and how it got there."""

    run_id: str
    run_dir: str
    fingerprint: str
    scenario: str
    report_path: str
    store_root: str
    #: Stage names re-executed by this invocation, in order.
    executed: Tuple[str, ...]
    #: Stage names replayed from verified prior outputs.
    replayed: Tuple[str, ...]
    #: Journal durability counters at run end.
    journal_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def report_text(self) -> str:
        with open(self.report_path) as fileobj:
            return fileobj.read()


class JournaledRun:
    """One crash-safe study run bound to a journaled run directory."""

    STAGES = STAGES

    def __init__(self, journal_dir: str, run_id: str, *,
                 config: StudyConfig,
                 scenario: str = DEFAULT_SCENARIO,
                 store_root: Optional[str] = None,
                 journal: Optional[RunJournal] = None,
                 records: Optional[List[JournalRecord]] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        if scenario != DEFAULT_SCENARIO:
            raise ValueError(
                f"journaled runs support only the {DEFAULT_SCENARIO!r} "
                f"scenario, got {scenario!r}")
        self.journal_dir = journal_dir
        self.run_id = run_id
        self.run_dir = os.path.join(journal_dir, run_id)
        self.config = config
        self.scenario = scenario
        self.fingerprint = study_fingerprint(config, scenario)
        self.store_root = store_root or os.path.join(self.run_dir,
                                                     DEFAULT_STORE_DIR)
        self.retry_policy = retry_policy or RetryPolicy(
            seed=config.seed, total_deadline=120.0)
        self._journal = journal
        self._records: List[JournalRecord] = list(records or [])

    # -- construction ---------------------------------------------------

    @classmethod
    def start(cls, journal_dir: str, config: StudyConfig, *,
              scenario: str = DEFAULT_SCENARIO,
              run_id: Optional[str] = None,
              store_root: Optional[str] = None,
              retry_policy: Optional[RetryPolicy] = None) -> "JournaledRun":
        """Begin a fresh journaled run (journal intent before any work)."""
        fingerprint = study_fingerprint(config, scenario)
        if run_id is None:
            run_id = allocate_run_id(journal_dir, fingerprint)
        run = cls(journal_dir, run_id, config=config,
                  scenario=scenario, store_root=store_root,
                  retry_policy=retry_policy)
        journal_path = os.path.join(run.run_dir, JOURNAL_FILE)
        if os.path.exists(journal_path):
            raise JournalError(
                f"run {run_id} already has a journal; resume it instead")
        os.makedirs(run.run_dir, exist_ok=True)
        run._journal = RunJournal.create(
            journal_path, retry_policy=run.retry_policy)
        run._begin()
        return run

    @classmethod
    def resume(cls, journal_dir: str, run_id: str, *,
               config: Optional[StudyConfig] = None,
               store_root: Optional[str] = None,
               retry_policy: Optional[RetryPolicy] = None) -> "JournaledRun":
        """Reattach to a journaled run directory after a crash.

        The journal's ``run_begin`` record is the source of truth for
        the config and store root. A journal that exists but holds no
        intact record -- the process died at the very first barrier --
        falls back to the caller-provided ``config`` and begins fresh
        in the same directory.
        """
        journal_path = os.path.join(journal_dir, run_id, JOURNAL_FILE)
        journal, records = RunJournal.open(
            journal_path, retry_policy=retry_policy)
        if not records:
            if config is None:
                raise JournalError(
                    f"run {run_id}: journal holds no intact records and "
                    f"no config was provided to restart it")
            run = cls(journal_dir, run_id, config=config,
                      store_root=store_root,
                      retry_policy=retry_policy)
            run._journal = journal
            run._journal.retry_policy = run.retry_policy
            run._begin()
            return run
        plan = resume_plan(records)
        resumed_config = StudyConfig.from_payload(plan.config_payload)
        if config is not None:
            supplied = study_fingerprint(config, plan.scenario
                                         or DEFAULT_SCENARIO)
            if supplied != plan.fingerprint:
                raise JournalError(
                    f"run {run_id} was journaled for fingerprint "
                    f"{plan.fingerprint[:12]}, but the supplied config "
                    f"fingerprints to {supplied[:12]}")
        begin = records[0].payload
        recorded_store = begin.get("store_root")
        run = cls(journal_dir, run_id, config=resumed_config,
                  scenario=plan.scenario,
                  store_root=(str(recorded_store)
                              if recorded_store else None),
                  journal=journal, records=records,
                  retry_policy=retry_policy)
        run._journal.retry_policy = run.retry_policy
        return run

    def _begin(self) -> None:
        """Journal the run's intent (the write-ahead part of WAL)."""
        # Crash debris from a previous life of this directory must not
        # be mistaken for stage outputs.
        sweep_orphans(self.run_dir)
        maybe_crash("pre:run_begin")
        self._records = []
        self._append("run_begin", {
            "journal_version": JOURNAL_VERSION,
            "run_id": self.run_id,
            "fingerprint": self.fingerprint,
            "scenario": self.scenario,
            "config": self.config.to_payload(),
            "fingerprinted": fingerprint_payload(self.config,
                                                 self.scenario),
            "stages": list(self.STAGES),
            "store_root": self.store_root,
        })

    def _append(self, kind: str, payload: Dict[str, Any]) -> None:
        """Durably journal one record and keep it for :meth:`plan`."""
        assert self._journal is not None
        self._records.append(self._journal.append(kind, payload))

    # -- paths ----------------------------------------------------------

    def path(self, name: str) -> str:
        return os.path.join(self.run_dir, name)

    @property
    def artifacts_dir(self) -> str:
        return self.path(ARTIFACTS_DIR)

    # -- plan / verification --------------------------------------------

    def plan(self) -> ResumePlan:
        return resume_plan(self._records)

    def _files_match(self, outputs: Dict[str, str]) -> bool:
        """Whether every journaled file still has its recorded digest."""
        if not outputs:
            return False
        for name, digest in outputs.items():
            target = self.path(name)
            if not os.path.exists(target):
                return False
            if _sha256_file(target) != digest:
                return False
        return True

    def _verify_stage(self, stage: str,
                      outputs: Dict[str, str]) -> bool:
        """Whether a journaled-complete stage's outputs are still good."""
        if stage == "publish":
            from repro.serve.store import ArtifactStore, StoreIntegrityError

            store = ArtifactStore(self.store_root)
            for name in outputs:
                try:
                    store.get(self.fingerprint, name)
                except (FileNotFoundError, StoreIntegrityError):
                    return False
            return bool(outputs)
        return self._files_match(outputs)

    # -- stages ---------------------------------------------------------

    def _save_ingest(self, outcome: Tuple[FlowDataset, PipelineStats,
                                          CoverageReport]
                     ) -> Dict[str, str]:
        """Write the ingest stage's files; returns their digests."""
        dataset, stats, coverage = outcome
        save_dataset(dataset, self.path(FILTERED_DATASET))
        save_stats(stats, self.path(MERGED_STATS))
        write_text(self.path(MERGED_COVERAGE),
                   json.dumps(coverage.to_json()) + "\n")
        return {name: _sha256_file(self.path(name))
                for name in INGEST_FILES}

    def _stage_ingest(
            self, progress: ProgressFn,
    ) -> Tuple[Dict[str, str], Dict[str, Any]]:
        from repro.core.study import _ingest
        from repro.pipeline.visitors import keep_devices, visitor_filter_mask
        from repro.synth.generator import CampusTraceGenerator

        def report(message: str) -> None:
            progress(message)
            # Mid-stage SIGKILL point for the crash-chaos harness:
            # inside the day walk (the ingest reports once per simulated
            # week), while the generator's day-pool workers are alive.
            maybe_crash("mid:ingest")

        # Debris of an ingest a crash cut short mid-write.
        swept = sweep_orphans(self.run_dir)
        dataset_all, stats, coverage = _ingest(
            self.config, CampusTraceGenerator(self.config), report)
        flows, devices = len(dataset_all), dataset_all.n_devices
        progress(f"ingest: {flows} flows, {devices} devices")
        retained = visitor_filter_mask(dataset_all,
                                       self.config.visitor_min_days)
        # Consumes the unfiltered table, as the plain run's filter does.
        dataset = keep_devices(dataset_all, retained)
        kept = int(retained.sum())
        progress(f"visitor filter: kept {kept} of {devices} devices")
        info = {"flows": flows, "devices": devices, "devices_kept": kept,
                "orphans_swept": swept}
        return self._save_ingest((dataset, stats, coverage)), info

    def _stage_analyze(
            self, progress: ProgressFn,
    ) -> Tuple[Dict[str, str], Dict[str, Any]]:
        from repro.core.report import render_full_report
        from repro.core.study import LockdownStudy
        from repro.serve.service import artifact_json, artifact_names

        dataset = load_dataset(self.path(FILTERED_DATASET))
        stats = load_stats(self.path(MERGED_STATS))
        with open(self.path(MERGED_COVERAGE)) as fileobj:
            coverage = CoverageReport.from_json(json.load(fileobj))
        artifacts = LockdownStudy.artifacts_from_dataset(
            self.config, dataset, coverage=coverage,
            pipeline_stats=stats)
        artifacts.compute_all()

        os.makedirs(self.artifacts_dir, exist_ok=True)
        outputs: Dict[str, str] = {}
        for name in artifact_names():
            relative = os.path.join(ARTIFACTS_DIR, name + ".json")
            write_text(self.path(relative),
                       canonical_json(artifact_json(artifacts, name))
                       + "\n")
            outputs[relative] = _sha256_file(self.path(relative))
        write_text(self.path(REPORT_FILE),
                   render_full_report(artifacts) + "\n")
        outputs[REPORT_FILE] = _sha256_file(self.path(REPORT_FILE))
        progress(f"analyze: {len(outputs) - 1} artifact payload(s) + "
                 f"report written")
        return outputs, {"artifacts": len(outputs) - 1}

    def _stage_publish(
            self, progress: ProgressFn,
    ) -> Tuple[Dict[str, str], Dict[str, Any]]:
        from repro.serve.service import artifact_names, store_meta
        from repro.serve.store import ArtifactStore

        store = ArtifactStore(self.store_root,
                              retry_policy=self.retry_policy)
        store.put_meta(self.fingerprint,
                       store_meta(self.config, self.scenario,
                                  run_id=self.run_id))
        outputs: Dict[str, str] = {}
        for name in artifact_names():
            with open(self.path(
                    os.path.join(ARTIFACTS_DIR, name + ".json"))) as fp:
                payload = json.load(fp)
            outputs[name] = store.put(self.fingerprint, name, payload)
        progress(f"published {len(outputs)} artifact(s) to "
                 f"{self.store_root}")
        return outputs, {"store_counters": dict(store.counters)}

    _STAGE_FNS = {
        "ingest": _stage_ingest,
        "analyze": _stage_analyze,
        "publish": _stage_publish,
    }

    # -- execution ------------------------------------------------------

    def execute(self, progress: Optional[ProgressFn] = None) -> RunResult:
        """Run (or finish) every stage; returns the run's outcome.

        Completed stages are verified against their journaled output
        digests and replayed; execution restarts at the first stage
        whose outputs are missing, torn, or were never journaled. Every
        journal barrier and each stage body is bracketed by
        :func:`maybe_crash` points for the subprocess chaos harness.
        """
        report = progress or (lambda message: None)
        assert self._journal is not None
        plan = self.plan()

        verified = 0
        while verified < len(plan.completed):
            stage = plan.completed[verified]
            if self._verify_stage(stage, plan.outputs.get(stage, {})):
                verified += 1
                continue
            report(f"stage {stage}: journaled outputs failed "
                   f"verification; re-executing from there")
            self._append("note", {"event": "stage_outputs_invalid",
                                  "stage": stage})
            break
        replayed = list(plan.stages[:verified])
        to_run = list(plan.stages[verified:])
        if plan.complete and not to_run:
            report(f"run {self.run_id} already complete; replaying "
                   f"outputs")
            return self._result(executed=(), replayed=tuple(replayed))

        for stage in to_run:
            report(f"stage {stage}: starting")
            self._append("stage_begin", {"stage": stage})
            maybe_crash(f"pre:{stage}")
            runner = self._STAGE_FNS[stage]
            outputs, info = runner(self, report)
            maybe_crash(f"post:{stage}")
            self._append("stage_end", {
                "stage": stage, "outputs": outputs, "info": info})
            report(f"stage {stage}: complete "
                   f"({len(outputs)} output(s))")

        maybe_crash("pre:run_end")
        self._append("run_end", {
            "run_id": self.run_id,
            "journal_counters": dict(self._journal.counters),
        })
        return self._result(executed=tuple(to_run),
                            replayed=tuple(replayed))

    def _result(self, executed: Tuple[str, ...],
                replayed: Tuple[str, ...]) -> RunResult:
        assert self._journal is not None
        return RunResult(
            run_id=self.run_id,
            run_dir=self.run_dir,
            fingerprint=self.fingerprint,
            scenario=self.scenario,
            report_path=self.path(REPORT_FILE),
            store_root=self.store_root,
            executed=executed,
            replayed=replayed,
            journal_counters=dict(self._journal.counters),
        )
