"""Shard supervision: heartbeats and a progress deadline.

A worker process can fail in two ways. It can *die* -- the pool raises
``BrokenProcessPool`` and the retry machinery recovers -- or it can
*wedge*: alive, consuming a pool slot, making no progress. Nothing in
``concurrent.futures`` ever times out a running task, so a single
wedged worker stalls ``ParallelPipeline.run()`` forever.

The watchdog closes that hole with two pieces:

* **Heartbeats.** Each worker rewrites a per-shard heartbeat file
  (:func:`write_heartbeat`) once per ingested day. The parent never
  compares wall-clock times across processes -- it fingerprints the
  file *content* and only asks "has this changed since I last
  looked?", which is immune to clock skew between parent and worker.
* **Deadline.** :class:`ShardWatchdog` (driven by an injectable
  monotonic clock, so tests never sleep) marks a shard *stalled* when
  its fingerprint has not changed for ``deadline_seconds``. The
  pipeline then terminates the pool's workers and classifies the stall
  as a :class:`WatchdogTimeout` -- a transient error under the
  existing taxonomy -- charged to the shard's ``RetryPolicy``. That
  policy is the only budget: a shard that wedges on every attempt
  fails the run once its retries are spent, like any other transient
  failure.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.reliability.errors import TransientIOError

#: Circuit-breaker states (:class:`CircuitBreaker`).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: How often the parent polls heartbeats while supervised shards are in
#: flight.
POLL_SECONDS = 0.25


class WatchdogTimeout(TransientIOError):
    """A shard exceeded its progress deadline and was killed.

    Subclasses :class:`TransientIOError` so ``is_transient`` (and hence
    the retry machinery) treats a watchdog kill exactly like any other
    recoverable infrastructure fault.
    """


@dataclass
class ShardWatchdog:
    """Tracks per-shard progress fingerprints against a deadline.

    Purely in-memory state driven by an injectable clock; the pipeline
    owns the side effects (killing workers, re-queuing shards).
    """

    #: Max seconds a shard may go without visible progress before it is
    #: killed. ``None`` disables supervision: nothing ever stalls.
    deadline_seconds: Optional[float]
    #: Monotonic time source; injectable so tests advance a fake clock.
    clock: Callable[[], float] = time.monotonic
    _last_progress: Dict[int, float] = field(default_factory=dict)
    _fingerprints: Dict[int, Optional[bytes]] = field(default_factory=dict)

    def start(self, index: int) -> None:
        """Arm the deadline for a (re)submitted shard."""
        self._last_progress[index] = self.clock()
        self._fingerprints[index] = None

    def forget(self, index: int) -> None:
        """Stop tracking a shard (completed or permanently failed)."""
        self._last_progress.pop(index, None)
        self._fingerprints.pop(index, None)

    def beat(self, index: int, fingerprint: Optional[bytes]) -> bool:
        """Feed the latest heartbeat fingerprint; True if it advanced.

        A ``None`` fingerprint (heartbeat file not written yet) never
        counts as progress -- the submission itself armed the deadline,
        and a worker that cannot even write its first heartbeat is as
        wedged as one that stopped.
        """
        if index not in self._last_progress:
            return False
        if fingerprint is None or fingerprint == self._fingerprints[index]:
            return False
        self._fingerprints[index] = fingerprint
        self._last_progress[index] = self.clock()
        return True

    def stalled(self, index: int) -> bool:
        """True when the shard's deadline has expired without progress."""
        deadline = self.deadline_seconds
        if deadline is None or index not in self._last_progress:
            return False
        return self.clock() - self._last_progress[index] > deadline


class CircuitBreaker:
    """A stateful closed/open/half-open breaker over one failure domain.

    A guard for a repeatedly-failing dependency: the serving layer
    wraps study computes in one so a storm of failing computes degrades
    to store-only serving instead of erroring every request. Shard
    ingest has no breaker; a wedged shard is bounded by its
    ``RetryPolicy`` alone.

    Semantics:

    * **closed** -- operations are allowed; ``failure_limit``
      *consecutive* failures open the breaker (any success resets the
      streak).
    * **open** -- operations are refused for ``reset_seconds``.
    * **half-open** -- after the cool-down, exactly one probe operation
      is allowed through; its success closes the breaker, its failure
      re-opens it for another full cool-down.

    Thread-safe; time comes from an injectable monotonic clock so tests
    drive state transitions without sleeping.
    """

    def __init__(self, failure_limit: int = 3,
                 reset_seconds: float = 30.0, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_limit < 1:
            raise ValueError("failure_limit must be >= 1")
        if reset_seconds < 0:
            raise ValueError("reset_seconds must be non-negative")
        self.failure_limit = failure_limit
        self.reset_seconds = reset_seconds
        self.clock = clock
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        #: Times the breaker transitioned closed/half-open -> open.
        self.opens = 0

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return BREAKER_CLOSED
        if self.clock() - self._opened_at >= self.reset_seconds:
            return BREAKER_HALF_OPEN
        return BREAKER_OPEN

    @property
    def state(self) -> str:
        """One of ``closed`` / ``open`` / ``half-open``."""
        with self._lock:
            return self._state_locked()

    def allow(self) -> bool:
        """Whether an operation may proceed right now.

        In the half-open window only the *first* caller gets ``True``
        (the probe); everyone else keeps being refused until the probe
        reports success or failure.
        """
        with self._lock:
            state = self._state_locked()
            if state == BREAKER_CLOSED:
                return True
            if state == BREAKER_HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        """The guarded operation succeeded: close and reset."""
        with self._lock:
            self._consecutive_failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        """The guarded operation failed: count, maybe (re-)open."""
        with self._lock:
            state = self._state_locked()
            if state == BREAKER_HALF_OPEN:
                # The probe failed: re-open for a fresh cool-down.
                self._opened_at = self.clock()
                self._probing = False
                self.opens += 1
                return
            self._consecutive_failures += 1
            if (state == BREAKER_CLOSED
                    and self._consecutive_failures >= self.failure_limit):
                self._opened_at = self.clock()
                self.opens += 1


def write_heartbeat(path: Union[str, Path], attempt: int,
                    progress: int) -> None:
    """Worker-side: record progress in the shard's heartbeat file.

    The content only has to *change* when progress happens -- the parent
    fingerprints bytes, it never parses or compares timestamps.
    """
    # Not staged: the heartbeat is a change detector, and its reader
    # treats torn bytes as "no progress yet".
    Path(path).write_text(f"{attempt}:{progress}\n", encoding="utf-8")


def read_heartbeat(path: Union[str, Path]) -> Optional[bytes]:
    """Parent-side: the heartbeat fingerprint, or None if unreadable.

    A missing or half-written file is indistinguishable from "no
    progress yet", which is exactly how the watchdog treats ``None``.
    """
    try:
        return Path(path).read_bytes()
    except OSError:
        return None
