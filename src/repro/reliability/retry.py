"""Deterministic retry policy with exponential backoff and jitter.

The backoff schedule is a pure function of ``(seed, scope_index,
attempt)`` -- the same derivation idiom as the simulation's RNG
substreams (:mod:`repro.util.rng`) -- so a retried run sleeps the same
intervals every time and tests can assert exact schedules. Jitter keeps
simultaneous retries of sibling scopes from stampeding at the same
instant, without sacrificing reproducibility.

One policy serves every retry in the system: journal appends and
artifact-store writes, both through :func:`run_with_retries` -- no
ad-hoc sleeps anywhere. The
``total_deadline`` cap bounds *cumulative* backoff per scope, so a
store that keeps returning ``ENOSPC`` surfaces the error after a known
worst-case delay instead of backing off forever. Elapsed time is
tracked as the sum of the delays actually requested -- never read from
a wall clock -- which keeps the schedule bit-reproducible (RL001).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from repro.reliability.errors import is_transient
from repro.util.rng import substream

T = TypeVar("T")

SleepFn = Callable[[float], None]
ClassifyFn = Callable[[BaseException], bool]
OnRetryFn = Callable[[int, BaseException, float], None]
StopFn = Callable[[], bool]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a transient failure, and how fast.

    ``max_attempts`` counts *total* tries: 1 means no retries. Delays
    follow ``base_delay * 2**retry`` capped at ``max_delay``, scaled by
    a seeded jitter factor in ``[1 - jitter, 1 + jitter]``. With a
    ``total_deadline``, cumulative backoff within one scope (one
    journal record, one store write) never exceeds it: the last delay is clipped
    to the remaining budget and further retries are refused once the
    budget is spent.
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    max_delay: float = 30.0
    jitter: float = 0.5
    seed: int = 0
    #: Cap on *cumulative* backoff seconds per scope; ``None`` = only
    #: ``max_attempts`` bounds the loop.
    total_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        if self.total_deadline is not None and self.total_deadline <= 0:
            raise ValueError("total_deadline must be positive (or None)")

    def delay(self, scope_index: int, attempt: int,
              elapsed: float = 0.0) -> float:
        """Seconds to sleep before retrying ``attempt`` (0-based) + 1.

        Deterministic: the same ``(seed, scope_index, attempt)`` always
        yields the same delay. ``elapsed`` is the backoff already spent
        in this scope; with a ``total_deadline`` the delay is clipped
        so the cumulative schedule never exceeds the budget.
        """
        base = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        if base > 0.0 and self.jitter > 0.0:
            rng = substream(self.seed, "retry", scope_index, attempt)
            scale = 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
            base = base * scale
        if self.total_deadline is not None:
            base = min(base, max(0.0, self.total_deadline - elapsed))
        return base

    def allows_retry(self, attempt: int, elapsed: float = 0.0) -> bool:
        """Whether another try is permitted after failing ``attempt``.

        ``elapsed`` is the cumulative backoff this scope has already
        slept; once it reaches ``total_deadline`` the answer is ``False``
        regardless of the attempt budget.
        """
        if attempt + 1 >= self.max_attempts:
            return False
        if (self.total_deadline is not None
                and elapsed >= self.total_deadline):
            return False
        return True

    @classmethod
    def no_delay(cls, max_attempts: int = 3, seed: int = 0) -> "RetryPolicy":
        """A policy that retries immediately (tests, benchmarks)."""
        return cls(max_attempts=max_attempts, base_delay=0.0,
                   max_delay=0.0, jitter=0.0, seed=seed)


def run_with_retries(policy: RetryPolicy,
                     operation: Callable[[], T], *,
                     scope_index: int = 0,
                     classify: ClassifyFn = is_transient,
                     sleep: SleepFn = time.sleep,
                     on_retry: Optional[OnRetryFn] = None,
                     stop: Optional[StopFn] = None) -> T:
    """Run ``operation`` under ``policy``, retrying transient failures.

    The single retry loop shared by journal appends and artifact-store
    writes: failures classified transient by ``classify`` are retried
    on the policy's seeded backoff schedule until the attempt budget or
    the total deadline runs out, then the last failure propagates
    unchanged. ``on_retry(attempt, exc, delay)`` fires before each
    sleep so callers can count retries exactly.

    ``stop`` is an external veto polled after each failure: when it
    returns ``True`` (e.g. a serving request's deadline has expired, or
    the server is draining) the loop gives up immediately and the last
    failure propagates, regardless of remaining attempt budget.
    """
    attempt = 0
    elapsed = 0.0
    while True:
        try:
            return operation()
        # Broad on purpose (RL004-compliant): ``classify`` routes the
        # failure through the taxonomy -- transient ones retry, the
        # rest re-raise unchanged.
        except Exception as exc:
            if not classify(exc) or not policy.allows_retry(attempt,
                                                            elapsed):
                raise
            if stop is not None and stop():
                raise
            delay = policy.delay(scope_index, attempt, elapsed)
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            if delay > 0:
                sleep(delay)
            elapsed += delay
            attempt += 1
