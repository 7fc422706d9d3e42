"""Unit tests for the serving-resilience primitives.

Deadlines and the circuit breaker run on a fake clock (no sleeping);
gate and singleflight concurrency uses real threads synchronized with
barriers/events so the tests are deterministic, not timing-lucky.
"""

import threading

import pytest

from repro.reliability.errors import DeadlineExpired
from repro.serve.resilience import (
    ADMITTED,
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DRAINING,
    SHED,
    AdmissionGate,
    CircuitBreaker,
    Deadline,
    ResiliencePolicy,
    Singleflight,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_remaining_counts_down_on_the_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(10.0, clock=clock)
        assert deadline.budget == 10.0
        assert deadline.remaining() == 10.0
        clock.advance(4.0)
        assert deadline.remaining() == 6.0
        assert not deadline.expired()

    def test_expiry_is_exact_and_remaining_clips_at_zero(self):
        clock = FakeClock()
        deadline = Deadline.after(5.0, clock=clock)
        clock.advance(5.0)
        assert deadline.expired()
        clock.advance(100.0)
        assert deadline.remaining() == 0.0

    def test_check_raises_deadline_expired_with_context(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        deadline.check("warm-up")  # not expired: no raise
        clock.advance(3.0)
        with pytest.raises(DeadlineExpired, match="study compute"):
            deadline.check("study compute")
        try:
            deadline.check()
        except DeadlineExpired as exc:
            assert exc.deadline_seconds == 2.0

    def test_non_positive_budget_rejected(self):
        for seconds in (0, -1.5):
            with pytest.raises(ValueError, match="positive"):
                Deadline.after(seconds, clock=FakeClock())


class TestStatefulCircuitBreaker:
    """The closed/open/half-open breaker guarding study computes."""

    def _breaker(self, limit=2, reset=10.0):
        clock = FakeClock()
        return CircuitBreaker(limit, reset, clock=clock), clock

    def test_starts_closed_and_allows(self):
        breaker, _ = self._breaker()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_consecutive_failures_open(self):
        breaker, _ = self._breaker(limit=2)
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_the_streak(self):
        breaker, _ = self._breaker(limit=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_allows_exactly_one_probe(self):
        breaker, clock = self._breaker(limit=1, reset=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # everyone else keeps waiting
        assert breaker.state == BREAKER_HALF_OPEN

    def test_probe_success_closes(self):
        breaker, clock = self._breaker(limit=1, reset=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_for_a_full_cooldown(self):
        breaker, clock = self._breaker(limit=1, reset=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.opens == 2
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(0)
        with pytest.raises(ValueError):
            CircuitBreaker(1, -1.0)

    def test_thread_safety_smoke(self):
        import threading

        breaker, _ = self._breaker(limit=1000000)
        threads = [threading.Thread(target=lambda: [
            breaker.record_failure() for _ in range(1000)])
            for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert breaker._consecutive_failures == 4000


class TestResiliencePolicy:
    def test_defaults_are_valid(self):
        policy = ResiliencePolicy()
        assert policy.max_concurrent == 8
        assert policy.queue_depth == 16
        assert policy.default_deadline_seconds == 30.0

    def test_none_deadline_disables_the_default(self):
        policy = ResiliencePolicy(default_deadline_seconds=None)
        assert policy.default_deadline_seconds is None

    @pytest.mark.parametrize("kwargs", [
        {"max_concurrent": 0},
        {"queue_depth": -1},
        {"queue_wait_seconds": -0.1},
        {"default_deadline_seconds": 0.0},
        {"header_timeout_seconds": 0.0},
        {"drain_deadline_seconds": 0.0},
        {"retry_after_seconds": 0.0},
        {"breaker_failure_limit": 0},
        {"breaker_reset_seconds": -1.0},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ResiliencePolicy(**kwargs)


class TestAdmissionGate:
    def test_admits_up_to_the_concurrency_limit(self):
        gate = AdmissionGate(max_concurrent=2, queue_depth=0)
        assert gate.admit(timeout=0) == ADMITTED
        assert gate.admit(timeout=0) == ADMITTED
        assert gate.in_flight == 2
        # Slots full, queue depth zero: immediate shed.
        assert gate.admit(timeout=0) == SHED
        assert gate.counters["requests_shed"] == 1
        gate.release()
        assert gate.admit(timeout=0) == ADMITTED

    def test_queued_request_gets_the_released_slot(self):
        gate = AdmissionGate(max_concurrent=1, queue_depth=1)
        assert gate.admit(timeout=0) == ADMITTED
        decisions = []
        entered = threading.Event()

        def queued_admit():
            entered.set()
            decisions.append(gate.admit(timeout=10.0))

        waiter = threading.Thread(target=queued_admit)
        waiter.start()
        entered.wait(timeout=5.0)
        # Spin briefly until the waiter is actually parked in the queue.
        for _ in range(1000):
            if gate.queued == 1:
                break
            threading.Event().wait(0.001)
        assert gate.queued == 1
        gate.release()
        waiter.join(timeout=5.0)
        assert decisions == [ADMITTED]
        assert gate.counters["requests_queued"] == 1
        assert gate.counters["queue_high_water"] == 1

    def test_queue_overflow_sheds_immediately(self):
        gate = AdmissionGate(max_concurrent=1, queue_depth=1)
        assert gate.admit(timeout=0) == ADMITTED
        parked = threading.Event()
        results = []

        def park():
            parked.set()
            results.append(gate.admit(timeout=10.0))

        waiter = threading.Thread(target=park)
        waiter.start()
        parked.wait(timeout=5.0)
        for _ in range(1000):
            if gate.queued == 1:
                break
            threading.Event().wait(0.001)
        # Queue is at depth: the next arrival is shed with no waiting.
        assert gate.admit(timeout=10.0) == SHED
        gate.release()
        waiter.join(timeout=5.0)
        assert results == [ADMITTED]
        gate.release()

    def test_queue_wait_timeout_sheds(self):
        gate = AdmissionGate(max_concurrent=1, queue_depth=4)
        assert gate.admit(timeout=0) == ADMITTED
        assert gate.admit(timeout=0.05) == SHED
        assert gate.counters["requests_shed"] == 1
        gate.release()

    def test_draining_refuses_new_and_wakes_queued(self):
        gate = AdmissionGate(max_concurrent=1, queue_depth=4)
        assert gate.admit(timeout=0) == ADMITTED
        results = []

        def park():
            results.append(gate.admit(timeout=30.0))

        waiter = threading.Thread(target=park)
        waiter.start()
        for _ in range(1000):
            if gate.queued == 1:
                break
            threading.Event().wait(0.001)
        gate.begin_drain()
        waiter.join(timeout=5.0)
        # The queued waiter was woken and told "draining", not left
        # blocked until its timeout.
        assert results == [DRAINING]
        assert gate.admit(timeout=0) == DRAINING
        assert gate.counters["requests_refused_draining"] == 2
        assert not gate.drained(timeout=0.05)  # one still in flight
        gate.release()
        assert gate.drained(timeout=5.0)

    def test_saturated_reflects_full_slots_and_full_queue(self):
        gate = AdmissionGate(max_concurrent=1, queue_depth=0)
        assert not gate.saturated()
        assert gate.admit(timeout=0) == ADMITTED
        assert gate.saturated()
        gate.release()
        assert not gate.saturated()

    def test_release_without_admit_asserts(self):
        gate = AdmissionGate(max_concurrent=1, queue_depth=0)
        with pytest.raises(AssertionError):
            gate.release()

    def test_counters_snapshot_is_a_copy(self):
        gate = AdmissionGate(max_concurrent=1, queue_depth=0)
        snap = gate.counters_snapshot()
        snap["requests_admitted"] = 99
        assert gate.counters["requests_admitted"] == 0

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            AdmissionGate(max_concurrent=0, queue_depth=1)
        with pytest.raises(ValueError):
            AdmissionGate(max_concurrent=1, queue_depth=-1)


class TestSingleflight:
    def test_single_caller_leads_and_flight_is_forgotten(self):
        flight = Singleflight()
        result, led = flight.run("key", lambda: 41 + 1)
        assert (result, led) == (42, True)
        assert flight.in_flight() == 0
        # A later call starts a fresh flight (the store is the cache).
        result, led = flight.run("key", lambda: "again")
        assert (result, led) == ("again", True)
        assert flight.counters_snapshot() == {
            "flights_led": 2, "requests_coalesced": 0}

    def test_thundering_herd_coalesces_to_one_execution(self):
        flight = Singleflight()
        herd = 8
        calls = []
        release_leader = threading.Event()
        leader_running = threading.Event()

        def compute():
            calls.append(1)
            leader_running.set()
            release_leader.wait(timeout=10.0)
            return "shared"

        results = []
        lock = threading.Lock()

        def worker():
            outcome = flight.run("fp", compute)
            with lock:
                results.append(outcome)

        leader = threading.Thread(target=worker)
        leader.start()
        leader_running.wait(timeout=5.0)
        # Every follower arrives while the leader is mid-compute.
        followers = [threading.Thread(target=worker)
                     for _ in range(herd - 1)]
        for thread in followers:
            thread.start()
        for _ in range(1000):
            if flight.counters["requests_coalesced"] == herd - 1:
                break
            threading.Event().wait(0.001)
        release_leader.set()
        leader.join(timeout=10.0)
        for thread in followers:
            thread.join(timeout=10.0)

        assert len(calls) == 1  # exactly one compute
        assert [value for value, _ in results] == ["shared"] * herd
        assert sum(led for _, led in results) == 1
        assert flight.counters_snapshot() == {
            "flights_led": 1, "requests_coalesced": herd - 1}

    def test_leader_error_propagates_to_every_follower(self):
        flight = Singleflight()
        release = threading.Event()
        running = threading.Event()

        def explode():
            running.set()
            release.wait(timeout=10.0)
            raise RuntimeError("compute broke")

        errors = []

        def worker():
            try:
                flight.run("fp", explode)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=worker) for _ in range(3)]
        threads[0].start()
        running.wait(timeout=5.0)
        for thread in threads[1:]:
            thread.start()
        for _ in range(1000):
            if flight.counters["requests_coalesced"] == 2:
                break
            threading.Event().wait(0.001)
        release.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert errors == ["compute broke"] * 3
        assert flight.in_flight() == 0

    def test_follower_deadline_expires_without_disturbing_the_flight(self):
        flight = Singleflight()
        clock = FakeClock()
        release = threading.Event()
        running = threading.Event()

        def slow():
            running.set()
            release.wait(timeout=10.0)
            return "late but fine"

        leader_result = []
        leader = threading.Thread(
            target=lambda: leader_result.append(flight.run("fp", slow)))
        leader.start()
        running.wait(timeout=5.0)

        expired = Deadline.after(1.0, clock=clock)
        clock.advance(2.0)  # the follower's budget is already gone
        with pytest.raises(DeadlineExpired, match="coalesced"):
            flight.run("fp", slow, deadline=expired)

        release.set()
        leader.join(timeout=10.0)
        # The leader still finished normally.
        assert leader_result == [("late but fine", True)]
