"""Serving resilience primitives: deadlines, admission, singleflight.

``repro.serve`` started life (PR 6) as a bare cache-or-compute layer on
an unbounded ``ThreadingHTTPServer``: every request got a thread, every
cold cache-miss got its own full study run, and a slow client could pin
a handler forever. This module is the load-shaped counterpart of what
:mod:`repro.reliability` did for ingest -- the mechanisms that let the
serving layer *degrade* under overload instead of falling over, the way
the Lockdown Effect's 15-20%-in-a-week demand shifts demand:

* :class:`Deadline` -- a per-request time budget carried from the HTTP
  handler through :class:`~repro.serve.service.StudyService` into the
  compute path; expiry raises
  :class:`~repro.reliability.errors.DeadlineExpired` (HTTP ``504``).
* :class:`AdmissionGate` -- a bounded concurrency + bounded queue gate.
  Requests beyond the concurrency limit wait in a bounded queue;
  requests beyond the queue are *shed* immediately with a
  ``Retry-After`` hint (HTTP ``429``). Draining refuses all new
  admissions (HTTP ``503``) while in-flight requests finish.
* :class:`Singleflight` -- keyed compute coalescing: under a
  thundering herd of cache-misses on one fingerprint, one leader runs
  the study and every follower waits for (and shares) its result, so
  "N concurrent misses" costs exactly one compute.
* :class:`CircuitBreaker` -- a closed/open/half-open breaker over
  study computes: consecutive failures open it, and the service then
  serves degraded from the store.
* :class:`ResiliencePolicy` -- the knob bundle (concurrency, queue
  depth, deadlines, drain budget, breaker settings) the CLI exposes.

Everything here is wall-clock-adjacent by nature, so every clock is an
*injected* monotonic callable: tests drive expiry with a fake clock, and none of it ever feeds measurement
output (RL001 -- artifacts stay bit-identical).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.reliability.errors import DeadlineExpired

MonotonicFn = Callable[[], float]

#: Admission decisions (:meth:`AdmissionGate.admit`).
ADMITTED = "admitted"
SHED = "shed"
DRAINING = "draining"

#: Circuit-breaker states (:class:`CircuitBreaker`).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class Deadline:
    """A monotonic expiry point a request carries through the stack.

    Constructed once at the edge (HTTP handler / CLI) and passed down;
    every layer that might block or loop calls :meth:`check` (raise on
    expiry) or budgets waits with :meth:`remaining`.
    """

    __slots__ = ("_expires_at", "_budget", "_clock")

    def __init__(self, expires_at: float, *,
                 clock: MonotonicFn = time.monotonic,
                 budget: Optional[float] = None) -> None:
        self._expires_at = expires_at
        self._budget = budget
        self._clock = clock

    @classmethod
    def after(cls, seconds: float, *,
              clock: MonotonicFn = time.monotonic) -> "Deadline":
        """A deadline ``seconds`` from now on ``clock``.

        ``seconds`` must be finite and positive: a NaN budget would
        never expire (``clock() >= nan`` is always false) and an
        infinite one never cuts compute off.
        """
        if not (math.isfinite(seconds) and seconds > 0):
            raise ValueError(
                f"deadline must be finite positive seconds, got {seconds!r}")
        return cls(clock() + seconds, clock=clock, budget=seconds)

    @property
    def budget(self) -> Optional[float]:
        """The original allowance in seconds, when known."""
        return self._budget

    def remaining(self) -> float:
        """Seconds left, clipped at zero."""
        return max(0.0, self._expires_at - self._clock())

    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExpired` if the budget is spent."""
        if self.expired():
            raise DeadlineExpired(
                f"{what} exceeded its deadline"
                + (f" of {self._budget:g}s" if self._budget else ""),
                deadline_seconds=self._budget)


class CircuitBreaker:
    """A stateful closed/open/half-open breaker over one failure domain.

    A guard for a repeatedly-failing dependency: the serving layer
    wraps study computes in one so a storm of failing computes degrades
    to store-only serving instead of erroring every request.

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


@dataclass(frozen=True)
class ResiliencePolicy:
    """Every serving-resilience knob in one bundle (see docs/SERVING.md).

    The defaults are deliberately permissive -- a laptop `repro serve`
    behaves exactly as before -- and the overload chaos suite pins the
    behavior at tight settings.
    """

    #: Requests doing work concurrently; beyond this they queue.
    max_concurrent: int = 8
    #: Requests allowed to wait for a slot; beyond this they are shed.
    queue_depth: int = 16
    #: Longest a queued request waits for a slot before being shed
    #: (further capped by the request's own deadline).
    queue_wait_seconds: float = 5.0
    #: Default per-request time budget; ``None`` disables deadlines
    #: for requests that do not ask for one.
    default_deadline_seconds: Optional[float] = 30.0
    #: Socket/header timeout: a client that trickles bytes (slowloris)
    #: loses its connection after this long without a complete request.
    header_timeout_seconds: float = 10.0
    #: How long a SIGTERM drain waits for in-flight requests.
    drain_deadline_seconds: float = 10.0
    #: ``Retry-After`` hint attached to 429/503 responses.
    retry_after_seconds: float = 1.0
    #: Consecutive compute failures that open the compute breaker.
    breaker_failure_limit: int = 3
    #: Breaker cool-down before a half-open probe is allowed.
    breaker_reset_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.queue_wait_seconds < 0:
            raise ValueError("queue_wait_seconds must be >= 0")
        if (self.default_deadline_seconds is not None
                and self.default_deadline_seconds <= 0):
            raise ValueError("default_deadline_seconds must be positive "
                             "(or None)")
        if self.header_timeout_seconds <= 0:
            raise ValueError("header_timeout_seconds must be positive")
        if self.drain_deadline_seconds <= 0:
            raise ValueError("drain_deadline_seconds must be positive")
        if self.retry_after_seconds <= 0:
            raise ValueError("retry_after_seconds must be positive")
        if self.breaker_failure_limit < 1:
            raise ValueError("breaker_failure_limit must be >= 1")
        if self.breaker_reset_seconds < 0:
            raise ValueError("breaker_reset_seconds must be >= 0")


class AdmissionGate:
    """Bounded concurrency + bounded queue with explicit shedding.

    The gate never blocks unboundedly: a request either gets a slot,
    waits in the bounded queue (up to its timeout), or is told *now*
    that it was shed/refused -- so every caller can send a structured
    response instead of hanging. ``Condition.wait`` handles the actual
    blocking; all bookkeeping is under one lock.
    """

    def __init__(self, max_concurrent: int, queue_depth: int) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.max_concurrent = max_concurrent
        self.queue_depth = queue_depth
        self._cond = threading.Condition()
        self._active = 0
        self._waiting = 0
        self._draining = False
        #: Admission accounting; ``requests_shed`` is the 429 counter
        #: the chaos suite and ``/health`` watch.
        self.counters: Dict[str, int] = {
            "requests_admitted": 0,
            "requests_queued": 0,
            "requests_shed": 0,
            "requests_refused_draining": 0,
            "queue_high_water": 0,
            "active_high_water": 0,
        }

    # -- admission ------------------------------------------------------

    def admit(self, timeout: Optional[float] = None) -> str:
        """One admission attempt: ``admitted`` / ``shed`` / ``draining``.

        ``timeout`` bounds the in-queue wait (``None`` means "wait as
        long as the queue allows nothing" -- callers should pass the
        request deadline's remaining budget). Every ``admitted`` must
        be paired with exactly one :meth:`release`.
        """
        with self._cond:
            if self._draining:
                self.counters["requests_refused_draining"] += 1
                return DRAINING
            if self._active < self.max_concurrent:
                self._admit_locked()
                return ADMITTED
            if self._waiting >= self.queue_depth:
                self.counters["requests_shed"] += 1
                return SHED
            self._waiting += 1
            self.counters["requests_queued"] += 1
            self.counters["queue_high_water"] = max(
                self.counters["queue_high_water"], self._waiting)
            try:
                grabbed = self._cond.wait_for(
                    lambda: (self._draining
                             or self._active < self.max_concurrent),
                    timeout=timeout)
            finally:
                self._waiting -= 1
            if self._draining:
                self.counters["requests_refused_draining"] += 1
                return DRAINING
            if not grabbed or self._active >= self.max_concurrent:
                # Queue wait timed out: shed with a structured answer
                # rather than letting the client hang.
                self.counters["requests_shed"] += 1
                return SHED
            self._admit_locked()
            return ADMITTED

    def _admit_locked(self) -> None:
        self._active += 1
        self.counters["requests_admitted"] += 1
        self.counters["active_high_water"] = max(
            self.counters["active_high_water"], self._active)

    def release(self) -> None:
        """Return an admitted request's slot."""
        with self._cond:
            assert self._active > 0, "release() without admit()"
            self._active -= 1
            self._cond.notify_all()

    # -- introspection --------------------------------------------------

    @property
    def in_flight(self) -> int:
        with self._cond:
            return self._active

    @property
    def queued(self) -> int:
        with self._cond:
            return self._waiting

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    def saturated(self) -> bool:
        """Queue at high-water: the readiness probe's "back off" signal."""
        with self._cond:
            return (self._active >= self.max_concurrent
                    and self._waiting >= self.queue_depth)

    def counters_snapshot(self) -> Dict[str, int]:
        with self._cond:
            return dict(self.counters)

    # -- drain ----------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting; queued waiters are woken and told to go."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def drained(self, timeout: Optional[float] = None) -> bool:
        """Wait for in-flight requests to finish; True when none remain."""
        with self._cond:
            return self._cond.wait_for(lambda: self._active == 0,
                                       timeout=timeout)


class _Flight:
    """One in-progress keyed computation and its waiters."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


class Singleflight:
    """Coalesce concurrent calls per key into one execution.

    The first caller for a key becomes the *leader* and runs the
    function; callers arriving while the flight is in progress become
    *followers*: they block (bounded by their deadline) and then share
    the leader's result -- or its exception, re-raised in each
    follower. Flights are forgotten on completion, so a later call
    starts fresh (the store, not the flight table, is the cache).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[str, _Flight] = {}
        #: ``requests_coalesced`` counts followers -- the thundering
        #: herd proof is ``flights_led == 1`` and ``coalesced == N-1``.
        self.counters: Dict[str, int] = {
            "flights_led": 0,
            "requests_coalesced": 0,
        }

    def run(self, key: str, fn: Callable[[], Any], *,
            deadline: Optional[Deadline] = None) -> Tuple[Any, bool]:
        """Run (or join) the flight for ``key``; returns (result, led).

        ``led`` is True for the leader that actually executed ``fn``.
        A follower whose deadline expires while waiting raises
        :class:`DeadlineExpired` without disturbing the flight.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight()
                self._flights[key] = flight
                lead = True
                self.counters["flights_led"] += 1
            else:
                lead = False
                self.counters["requests_coalesced"] += 1

        if lead:
            try:
                flight.result = fn()
            # Broad on purpose (RL004-compliant): the leader's failure
            # is not swallowed -- it is re-raised here *and* in every
            # follower below.
            except BaseException as exc:
                flight.error = exc
                raise
            finally:
                with self._lock:
                    self._flights.pop(key, None)
                flight.done.set()
            return flight.result, True

        timeout = deadline.remaining() if deadline is not None else None
        if not flight.done.wait(timeout=timeout):
            raise DeadlineExpired(
                f"coalesced request for {key[:12]} timed out waiting "
                f"for the in-flight compute",
                deadline_seconds=(deadline.budget
                                  if deadline is not None else None))
        if flight.error is not None:
            raise flight.error
        return flight.result, False

    def in_flight(self) -> int:
        with self._lock:
            return len(self._flights)

    def counters_snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.counters)
