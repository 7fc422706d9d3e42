"""Write-ahead run journal: durable intent + per-stage completion.

A study run is a pipeline of stages (ingest, analyze, publish). The
journal is the run's only record of finished work:
before anything executes, the run's intent (config payload, scenario,
fingerprint, stage list) is appended as a ``run_begin`` record; each
stage appends ``stage_begin`` before and ``stage_end`` (with output
digests) after its work, so a kill mid-stage repeats only that stage;
``run_end`` seals the run. Every record is:

* **append-only** -- the journal file is never rewritten in place;
* **checksummed** -- each line embeds the SHA-256 of its own canonical
  encoding, so any flipped or missing byte is detected on replay;
* **fsync'd** -- appended through
  :func:`repro.reliability.atomic.append_line`, so an acknowledged
  record survives a SIGKILL the next instruction.

Replay (:func:`replay`) reconstructs the record sequence with two
deliberate tolerances, both property-tested in
``tests/property/test_journal_props.py``:

* a corrupt **tail** (torn final append) is dropped as absent -- that
  is normal crash debris, not corruption;
* a **duplicated** record (an append retried after the ack was lost)
  is skipped idempotently.

Anything else -- a mangled record *followed by* intact ones, a sequence
gap -- raises :class:`~repro.reliability.errors.JournalError`: that is
bit rot or a concurrent writer, and no resume should trust it.

:func:`resume_plan` turns a replayed record list into the decision the
CLI acts on: which stages are already complete (replay their outputs
from disk), which stage was in flight (re-execute it), and whether the
run already finished.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.reliability.atomic import append_line, fsync_dir
from repro.reliability.errors import JournalError
from repro.reliability.retry import RetryPolicy, SleepFn, run_with_retries

#: Bump when the record layout changes; recorded in ``run_begin`` so a
#: resume can refuse a journal written by an incompatible layout.
#: v2: per-shard ingest records replace the separate per-shard
#: checkpoint store, and the ingest stage's outputs are its shard files.
#: v3: one whole-window ingest stage writes the ``merged.*`` files; the
#: ``merge`` stage, the per-shard records and ``workers`` are gone.
#: v4: the ingest stage also applies the visitor filter and saves only
#: the filtered dataset the study analyses; the unfiltered dataset file
#: and the separate filter stage are gone.
JOURNAL_VERSION = 4

#: Canonical journal file name inside a run directory.
JOURNAL_FILE = "journal.jsonl"

#: The record kinds a journal may contain.
RECORD_KINDS = ("run_begin", "stage_begin", "stage_end", "note",
                "run_end")


def _canonical(payload: Any) -> str:
    """Canonical JSON: sorted keys, compact, no NaN (checksum input)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


@dataclass(frozen=True)
class JournalRecord:
    """One checksummed journal line."""

    seq: int
    kind: str
    payload: Dict[str, Any]

    def body(self) -> Dict[str, Any]:
        return {"seq": self.seq, "kind": self.kind,
                "payload": self.payload}

    def checksum(self) -> str:
        return hashlib.sha256(
            _canonical(self.body()).encode("utf-8")).hexdigest()

    def to_line(self) -> str:
        body = self.body()
        body["sha256"] = self.checksum()
        return _canonical(body)

    @classmethod
    def parse(cls, line: str) -> Optional["JournalRecord"]:
        """Decode one line; ``None`` for anything torn or mangled."""
        try:
            raw = json.loads(line)
        except ValueError:
            return None
        if not isinstance(raw, dict):
            return None
        seq, kind, payload = (raw.get("seq"), raw.get("kind"),
                              raw.get("payload"))
        if (not isinstance(seq, int) or kind not in RECORD_KINDS
                or not isinstance(payload, dict)):
            return None
        record = cls(seq=seq, kind=str(kind), payload=payload)
        if raw.get("sha256") != record.checksum():
            return None
        return record


@dataclass(frozen=True)
class ReplayResult:
    """A journal's valid record sequence plus recovery accounting."""

    records: Tuple[JournalRecord, ...]
    #: Torn/mangled trailing lines dropped as absent.
    torn_dropped: int
    #: Duplicate appends skipped idempotently.
    duplicates_skipped: int


def replay_lines(lines: List[str]) -> ReplayResult:
    """Reconstruct the record sequence from raw journal lines.

    Accepts records in strict ``seq`` order. An invalid line is
    tolerated only as a torn append: either the valid record with the
    same expected ``seq`` follows it (a retried append whose first try
    tore), or nothing valid follows at all (a torn tail). An invalid
    line followed by a record of any *later* sequence number is
    mid-journal corruption and raises :class:`JournalError` -- as does
    a duplicated record whose bytes disagree with the original.
    """
    records: List[JournalRecord] = []
    torn = 0
    duplicates = 0
    pending_bad = 0
    for index, line in enumerate(lines):
        record = JournalRecord.parse(line)
        if record is None:
            pending_bad += 1
            continue
        expected = len(records)
        if record.seq == expected:
            # A valid continuation absolves any bad lines before it
            # only if they were torn tries of *this* record; a later
            # valid record after garbage is treated the same way (the
            # garbage was a torn append of this seq that never got
            # retried bytes down -- still a contiguous recovery).
            torn += pending_bad
            pending_bad = 0
            records.append(record)
            continue
        if record.seq == expected - 1 and records:
            previous = records[-1]
            if record == previous:
                torn += pending_bad
                pending_bad = 0
                duplicates += 1
                continue
            raise JournalError(
                f"journal record {record.seq} appears twice with "
                f"different content")
        raise JournalError(
            f"journal line {index} has sequence {record.seq}, "
            f"expected {expected}: mid-journal corruption")
    torn += pending_bad
    return ReplayResult(records=tuple(records), torn_dropped=torn,
                        duplicates_skipped=duplicates)


def replay(path: str) -> ReplayResult:
    """Replay the journal file at ``path`` (empty result if absent)."""
    if not os.path.exists(path):
        return ReplayResult(records=(), torn_dropped=0,
                            duplicates_skipped=0)
    with open(path, "rb") as fileobj:
        text = fileobj.read().decode("utf-8", errors="replace")
    lines = [line for line in text.split("\n") if line]
    return replay_lines(lines)


class RunJournal:
    """Appends checksummed, fsync'd records for one run.

    Appends are retried under the shared
    :class:`~repro.reliability.retry.RetryPolicy` (transient disk
    faults only); every retry is counted. The journal never rewrites:
    a retried append whose first try tore simply leaves a torn line
    that replay skips.
    """

    def __init__(self, path: str, *,
                 next_seq: int = 0,
                 retry_policy: Optional[RetryPolicy] = None,
                 sleep: SleepFn = time.sleep) -> None:
        self.path = path
        self._seq = next_seq
        self.retry_policy = retry_policy
        self._sleep = sleep
        #: Durability accounting, surfaced into ``run_end`` payloads
        #: and operator reports -- no silent recovery.
        self.counters: Dict[str, int] = {
            "records_appended": 0,
            "append_retries": 0,
            "torn_records_dropped": 0,
            "duplicate_records_skipped": 0,
        }

    @classmethod
    def create(cls, path: str, *,
               retry_policy: Optional[RetryPolicy] = None,
               sleep: SleepFn = time.sleep) -> "RunJournal":
        """Start a new journal; refuses to reuse an existing file."""
        if os.path.exists(path):
            raise JournalError(f"journal already exists at {path}")
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        journal = cls(path, retry_policy=retry_policy, sleep=sleep)
        # Touch the file durably so the run directory is recognizable
        # as journaled even if the process dies before the first record.
        # Not staged: an empty file is the valid initial state, and
        # fsync_dir makes it durable (see WRITE_ALLOW_LIST in
        # tests/integration/test_runtime_invariants.py).
        with open(path, "ab"):
            pass
        fsync_dir(directory or ".")
        return journal

    @classmethod
    def open(cls, path: str, *,
             retry_policy: Optional[RetryPolicy] = None,
             sleep: SleepFn = time.sleep
             ) -> Tuple["RunJournal", List[JournalRecord]]:
        """Replay an existing journal; returns it ready for appends."""
        if not os.path.exists(path):
            raise JournalError(f"no journal at {path}")
        result = replay(path)
        journal = cls(path, next_seq=len(result.records),
                      retry_policy=retry_policy, sleep=sleep)
        journal.counters["torn_records_dropped"] = result.torn_dropped
        journal.counters["duplicate_records_skipped"] = (
            result.duplicates_skipped)
        return journal, list(result.records)

    def append(self, kind: str, payload: Dict[str, Any]) -> JournalRecord:
        """Durably append one record; returns it after the fsync."""
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown journal record kind {kind!r}")
        record = JournalRecord(seq=self._seq, kind=kind,
                               payload=dict(payload))
        line = record.to_line() + "\n"

        def write() -> None:
            append_line(self.path, line)

        def count_retry(attempt: int, exc: BaseException,
                        delay: float) -> None:
            self.counters["append_retries"] += 1

        if self.retry_policy is None:
            write()
        else:
            run_with_retries(self.retry_policy, write,
                             scope_index=self._seq,
                             sleep=self._sleep, on_retry=count_retry)
        self._seq += 1
        self.counters["records_appended"] += 1
        return record


@dataclass(frozen=True)
class ResumePlan:
    """What a resume should do, derived purely from journal records."""

    run_id: str
    fingerprint: str
    scenario: str
    config_payload: Dict[str, Any]
    stages: Tuple[str, ...]
    #: Stage names whose ``stage_end`` was journaled, in order.
    completed: Tuple[str, ...]
    #: Output digests recorded per completed stage.
    outputs: Dict[str, Dict[str, str]]
    #: ``True`` once ``run_end`` was journaled.
    complete: bool

    @property
    def next_stage(self) -> Optional[str]:
        """First stage needing execution (``None`` when all are done)."""
        if len(self.completed) >= len(self.stages):
            return None
        return self.stages[len(self.completed)]


def resume_plan(records: List[JournalRecord]) -> ResumePlan:
    """Derive the resume decision from a replayed record sequence.

    Pure and idempotent: the same records always yield the same plan,
    and a plan derived from any prefix is exactly what the run knew at
    that point -- the property the Hypothesis suite pins.
    """
    if not records or records[0].kind != "run_begin":
        raise JournalError("journal does not start with run_begin")
    begin = records[0].payload
    version = begin.get("journal_version")
    if version != JOURNAL_VERSION:
        raise JournalError(
            f"journal version {version!r} is not supported "
            f"(expected {JOURNAL_VERSION})")
    stages = tuple(str(stage) for stage in begin.get("stages", ()))
    #: How many leading stages are complete. A ``stage_end`` may point
    #: *backwards* (a resume re-executed an earlier stage after its
    #: outputs failed verification) but never skip ahead.
    done = 0
    outputs: Dict[str, Dict[str, str]] = {}
    complete = False
    for record in records[1:]:
        if record.kind == "run_begin":
            raise JournalError("journal contains a second run_begin")
        if record.kind == "stage_end":
            stage = str(record.payload.get("stage"))
            if stage not in stages:
                raise JournalError(
                    f"stage_end for unknown stage {stage!r} "
                    f"(stages: {list(stages)})")
            position = stages.index(stage)
            if position > done:
                raise JournalError(
                    f"stage_end for {stage!r} skips ahead "
                    f"({done} stage(s) completed so far)")
            done = position + 1
            complete = False
            outputs[stage] = _digests(record.payload)
        elif record.kind == "run_end":
            if done < len(stages):
                raise JournalError(
                    "journal records run_end before every stage "
                    "completed")
            complete = True
    completed = list(stages[:done])
    return ResumePlan(
        run_id=str(begin.get("run_id", "")),
        fingerprint=str(begin.get("fingerprint", "")),
        scenario=str(begin.get("scenario", "")),
        config_payload=dict(begin.get("config", {})),
        stages=stages,
        completed=tuple(completed),
        outputs=outputs,
        complete=complete,
    )


def _digests(payload: Dict[str, Any]) -> Dict[str, str]:
    """A record's ``outputs`` mapping of file name to digest."""
    return {str(name): str(digest)
            for name, digest in dict(payload.get("outputs", {})).items()}
