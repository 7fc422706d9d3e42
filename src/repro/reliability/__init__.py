"""Reliability layer: the ingest stack's answer to real-world failure.

A four-month continuous measurement run meets process kills, full
disks, truncated log files, malformed records and collector outages as
a matter of course. This package gives the pipeline one vocabulary and
the mechanisms for surviving them:

* :mod:`~repro.reliability.errors` -- structured error taxonomy
  (:class:`RecordError`, transient vs. fatal);
* :mod:`~repro.reliability.retry` -- deterministic exponential backoff,
  the one retry budget for journal appends and store writes;
* :mod:`~repro.reliability.quarantine` -- per-category accounting of
  malformed records in lenient ingest mode;
* :mod:`~repro.reliability.faults` -- deterministic fault injection
  (log corruption, collector outages, SIGKILL crash points, disk
  faults) driving the chaos test suite;
* :mod:`~repro.reliability.coverage` -- interval-set telemetry
  coverage tracking (which seconds of which log source actually
  arrived);
* :mod:`~repro.reliability.atomic` -- the single atomic-write
  chokepoint (stage, fsync, rename) every durable writer goes through,
  plus the disk-fault injection seam;
* :mod:`~repro.reliability.journal` -- the write-ahead run journal
  behind crash-safe ``repro run --journal-dir`` orchestration, and the
  one record of finished work a resume trusts: a stage is done only
  once the journal says so and its files still match the journaled
  digests.
"""

from repro.reliability.atomic import (
    append_line,
    disk_faults,
    fsync_dir,
    is_orphan,
    replacing,
    sweep_orphans,
    write_bytes,
    write_text,
)
from repro.reliability.coverage import (
    CoverageReport,
    CoverageTracker,
    IntervalSet,
)
from repro.reliability.errors import (
    CATEGORY_BLANK,
    CATEGORY_FIELD,
    CATEGORY_JSON,
    CATEGORY_ORDER,
    CATEGORY_VALUE,
    CoverageError,
    DeadlineExpired,
    DiskFullError,
    JournalError,
    RecordError,
    ReliabilityError,
    TornWriteError,
    TransientIOError,
    is_transient,
)
from repro.reliability.faults import (
    DiskFault,
    DiskFaultInjector,
    FaultPlan,
    GappedDayTrace,
    LogGap,
    corrupt_log_lines,
    maybe_crash,
)
from repro.reliability.journal import (
    JournalRecord,
    ResumePlan,
    RunJournal,
    replay,
    resume_plan,
)
from repro.reliability.quarantine import QuarantinedRecord, QuarantineSink
from repro.reliability.retry import RetryPolicy, run_with_retries

__all__ = [
    "CATEGORY_BLANK",
    "CATEGORY_FIELD",
    "CATEGORY_JSON",
    "CATEGORY_ORDER",
    "CATEGORY_VALUE",
    "CoverageError",
    "CoverageReport",
    "CoverageTracker",
    "DeadlineExpired",
    "DiskFault",
    "DiskFaultInjector",
    "DiskFullError",
    "FaultPlan",
    "GappedDayTrace",
    "IntervalSet",
    "JournalError",
    "JournalRecord",
    "LogGap",
    "QuarantineSink",
    "QuarantinedRecord",
    "RecordError",
    "ReliabilityError",
    "ResumePlan",
    "RetryPolicy",
    "RunJournal",
    "TornWriteError",
    "TransientIOError",
    "append_line",
    "corrupt_log_lines",
    "disk_faults",
    "fsync_dir",
    "is_orphan",
    "maybe_crash",
    "replacing",
    "replay",
    "resume_plan",
    "run_with_retries",
    "sweep_orphans",
    "write_bytes",
    "write_text",
]
