"""Watchdog unit tests: deadlines, fingerprints, the serve breaker.

All timing runs on a fake clock -- no test here ever sleeps.
"""

import pytest

from repro.config import StudyConfig
from repro.pipeline.parallel import ParallelPipeline
from repro.reliability.errors import TransientIOError, is_transient
from repro.reliability.watchdog import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    ShardWatchdog,
    WatchdogTimeout,
    read_heartbeat,
    write_heartbeat,
)
from repro.util.timeutil import utc_ts


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _watchdog(deadline=10.0, clock=None):
    return ShardWatchdog(deadline, clock=clock or FakeClock())


_CONFIG = StudyConfig(n_students=4, seed=11,
                      start_ts=utc_ts(2020, 2, 1),
                      end_ts=utc_ts(2020, 2, 7))


class TestPolicy:
    """``shard_deadline`` is the one supervision setting; it is checked
    once, when the pipeline is built."""

    def test_disabled_by_default(self):
        assert ParallelPipeline(_CONFIG, workers=2).shard_deadline is None

    def test_enabled_with_deadline(self):
        pipeline = ParallelPipeline(_CONFIG, workers=2, shard_deadline=5.0)
        assert pipeline.shard_deadline == 5.0

    @pytest.mark.parametrize("kwargs", [
        {"shard_deadline": float("nan")},
        {"shard_deadline": float("inf")},
        {"shard_deadline": 0.0},
        {"shard_deadline": -1.0},
        {"shard_deadline": 5.0, "workers": 1},
    ])
    def test_rejects_bad_settings(self, kwargs):
        """A non-finite deadline would never fire and a non-positive one
        would kill every shard at once; one worker has no watchdog."""
        with pytest.raises(ValueError, match="shard deadline"):
            ParallelPipeline(_CONFIG, **{"workers": 2, **kwargs})


class TestDeadline:
    def test_fresh_shard_is_not_stalled(self):
        clock = FakeClock()
        dog = _watchdog(clock=clock)
        dog.start(0)
        clock.advance(9.0)
        assert not dog.stalled(0)

    def test_stalls_past_deadline_without_progress(self):
        clock = FakeClock()
        dog = _watchdog(clock=clock)
        dog.start(0)
        clock.advance(10.5)
        assert dog.stalled(0)

    def test_progress_resets_deadline(self):
        clock = FakeClock()
        dog = _watchdog(clock=clock)
        dog.start(0)
        clock.advance(9.0)
        assert dog.beat(0, b"1 day done")
        clock.advance(9.0)
        assert not dog.stalled(0)
        clock.advance(2.0)
        assert dog.stalled(0)

    def test_unchanged_fingerprint_is_not_progress(self):
        clock = FakeClock()
        dog = _watchdog(clock=clock)
        dog.start(0)
        assert dog.beat(0, b"stuck")
        clock.advance(6.0)
        assert not dog.beat(0, b"stuck")
        clock.advance(6.0)
        assert dog.stalled(0)

    def test_missing_heartbeat_is_not_progress(self):
        clock = FakeClock()
        dog = _watchdog(clock=clock)
        dog.start(0)
        assert not dog.beat(0, None)
        clock.advance(11.0)
        assert dog.stalled(0)

    def test_untracked_and_forgotten_shards_never_stall(self):
        clock = FakeClock()
        dog = _watchdog(clock=clock)
        assert not dog.stalled(7)
        dog.start(7)
        dog.forget(7)
        clock.advance(100.0)
        assert not dog.stalled(7)

    def test_disabled_policy_never_stalls(self):
        clock = FakeClock()
        dog = ShardWatchdog(None, clock=clock)
        dog.start(0)
        clock.advance(1e9)
        assert not dog.stalled(0)

    def test_resubmission_rearms_deadline(self):
        clock = FakeClock()
        dog = _watchdog(clock=clock)
        dog.start(0)
        clock.advance(11.0)
        assert dog.stalled(0)
        dog.start(0)
        assert not dog.stalled(0)


class TestTaxonomy:
    def test_watchdog_timeout_is_transient(self):
        error = WatchdogTimeout("no progress for 30s")
        assert isinstance(error, TransientIOError)
        assert is_transient(error)


class TestHeartbeatFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "shard-0.hb"
        write_heartbeat(path, attempt=0, progress=3)
        assert read_heartbeat(path) == b"0:3\n"

    def test_content_changes_with_progress_and_attempt(self, tmp_path):
        path = tmp_path / "shard-0.hb"
        write_heartbeat(path, attempt=0, progress=0)
        first = read_heartbeat(path)
        write_heartbeat(path, attempt=0, progress=1)
        second = read_heartbeat(path)
        write_heartbeat(path, attempt=1, progress=0)
        third = read_heartbeat(path)
        assert len({first, second, third}) == 3

    def test_missing_file_reads_none(self, tmp_path):
        assert read_heartbeat(tmp_path / "never-written") is None


class TestStatefulCircuitBreaker:
    """The reusable closed/open/half-open breaker (ISSUE 10)."""

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
