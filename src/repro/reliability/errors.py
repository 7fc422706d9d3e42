"""Structured error taxonomy for the ingest stack.

Bare ``ValueError``/``KeyError``/``OSError`` tell an operator nothing
about *what* failed (a log line? a disk write? a journal record?) or whether
retrying could help. Every failure the pipeline can surface is therefore
classified along two axes:

* **scope** -- :class:`RecordError` (one malformed log record) or a
  plain :class:`ReliabilityError` (anything else);
* **disposition** -- *transient* failures (I/O hiccups, a full disk)
  are worth retrying; *fatal* ones (malformed data in strict mode,
  logic errors) are not.

:func:`is_transient` is the single classification point used by
:func:`~repro.reliability.retry.run_with_retries`.
"""

from __future__ import annotations

import errno
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

#: Quarantine categories a malformed record can fall into.
CATEGORY_JSON = "json"          # not parseable as a JSON object
CATEGORY_FIELD = "field"        # a required field is missing
CATEGORY_VALUE = "value"        # a field holds an uncoercible value
CATEGORY_ORDER = "order"        # record violates stream ordering
CATEGORY_BLANK = "blank"        # blank/whitespace-only line


class ReliabilityError(Exception):
    """Base of the taxonomy; ``transient`` drives retry decisions."""

    transient: bool = False


class RecordError(ReliabilityError, ValueError):
    """One log record could not be parsed or accepted.

    Subclasses ``ValueError`` so call sites predating the taxonomy
    (and tests pinning ``pytest.raises(ValueError)``) keep working.
    Always fatal: bad bytes do not improve on retry -- in lenient mode
    the record is quarantined instead (:mod:`repro.reliability.quarantine`).
    """

    def __init__(self, message: str, *, source: str, category: str,
                 line_no: Optional[int] = None,
                 line: Optional[str] = None) -> None:
        super().__init__(message)
        #: Which log stream the record came from ("conn", "dhcp", ...).
        self.source = source
        #: One of the CATEGORY_* constants.
        self.category = category
        #: 1-based line number within the stream, when known.
        self.line_no = line_no
        #: The offending raw line (possibly truncated), when known.
        self.line = line


class TransientIOError(ReliabilityError, OSError):
    """An I/O failure worth retrying (also raised by fault injection)."""

    transient = True


class DiskFullError(TransientIOError):
    """The device ran out of space mid-write (``ENOSPC``).

    Transient: a bounded retry under the shared
    :class:`~repro.reliability.retry.RetryPolicy` gives a cleaner a
    chance to free space; exhausted retries surface the error instead
    of silently dropping the write.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.errno = errno.ENOSPC


class TornWriteError(ReliabilityError, OSError):
    """A write was cut short mid-payload (simulated crash/power loss).

    Deliberately *not* transient: a torn write models the process dying
    with partial bytes on disk, so retrying inside the same process
    would defeat the simulation. Recovery happens on the next run --
    atomic replace means the destination never saw the torn bytes, and
    journal replay drops a torn trailing record as absent.
    """


class JournalError(ReliabilityError):
    """The run journal violates its integrity contract.

    Raised only for *mid-journal* corruption (a mangled record followed
    by intact ones) or a malformed record sequence -- evidence of bit
    rot or a concurrent writer, which no resume should trust. A torn
    *tail* is normal crash debris and is treated as absent instead.
    """


class CoverageError(ReliabilityError):
    """Telemetry coverage is incomplete where completeness was required.

    Raised by strict-coverage analysis; not transient -- missing log
    spans do not come back on retry.
    """


class DeadlineExpired(ReliabilityError):
    """A request's deadline ran out before the work finished.

    Not transient *within the request*: the budget is spent, so the
    serving layer answers ``504`` instead of retrying. The client owns
    the decision to try again with a fresh deadline.
    """

    def __init__(self, message: str, *,
                 deadline_seconds: Optional[float] = None) -> None:
        super().__init__(message)
        #: The original budget in seconds, when known (for the 504 body).
        self.deadline_seconds = deadline_seconds


def is_transient(exc: BaseException) -> bool:
    """Whether retrying the failed operation could plausibly succeed.

    Taxonomy members carry their own flag; outside it, a dead worker
    process (``BrokenProcessPool``) and OS-level I/O errors are the
    retryable failures a long-running ingest actually sees. Everything
    else -- parse errors, assertion failures, logic bugs -- is fatal.
    """
    if isinstance(exc, ReliabilityError):
        return exc.transient
    if isinstance(exc, BrokenProcessPool):
        return True
    if isinstance(exc, OSError):
        return True
    return False
