"""Concurrent StudyService queries: coalescing, isolation, breaker.

These tests replace the real study with an instrumented stub (the real
ci-scale study takes seconds; concurrency invariants need dozens of
runs), keeping the *entire* service path real: fingerprinting, store
reads/writes, singleflight, breaker, counters. Threads synchronize on
barriers/events so the herds are genuinely concurrent, and stub
payloads are tagged with the config seed so any cross-served artifact
would be caught by content, not just by counters.
"""

import gc
import threading
import weakref

import pytest

from repro.config import StudyConfig
from repro.reliability.errors import DeadlineExpired
from repro.serve.fingerprint import study_fingerprint
from repro.serve.resilience import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    Deadline,
    ResiliencePolicy,
)
from repro.serve.service import artifact_names
from repro.serve.store import ArtifactStore
from tests.serve._stub import FakeClock, StubService


def _herd(count, target):
    """Run ``target(i)`` on ``count`` barrier-aligned threads."""
    barrier = threading.Barrier(count)
    outcomes = [None] * count

    def runner(index):
        barrier.wait(timeout=30.0)
        try:
            outcomes[index] = ("ok", target(index))
        except BaseException as exc:  # noqa: BLE001 - test harness
            outcomes[index] = ("error", exc)

    threads = [threading.Thread(target=runner, args=(index,))
               for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert all(outcome is not None for outcome in outcomes), \
        "a herd thread never finished"
    return outcomes


def test_thundering_herd_runs_exactly_one_study(tmp_path):
    """N concurrent cold misses on one fingerprint -> one study run."""
    herd = 16
    service = StubService(ArtifactStore(str(tmp_path)))
    service.run_gate = threading.Event()
    config = StudyConfig.ci_scale()

    results = []
    lock = threading.Lock()
    barrier = threading.Barrier(herd + 1)

    def query(index):
        barrier.wait(timeout=30.0)
        result = service.query(config, names=("summary",))
        with lock:
            results.append(result)

    threads = [threading.Thread(target=query, args=(index,))
               for index in range(herd)]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=30.0)      # all queriers released together
    service.run_started.wait(timeout=30.0)
    service.run_gate.set()          # leader (and only leader) proceeds
    for thread in threads:
        thread.join(timeout=60.0)

    assert len(results) == herd
    assert service.run_calls == 1
    assert service.counters["studies_run"] == 1
    leaders = [r for r in results if r.computed]
    followers = [r for r in results if r.coalesced]
    store_hits = herd - len(leaders) - len(followers)
    assert len(leaders) == 1
    # Everyone else either joined the flight or raced in after the
    # backfill landed in the store; both are compute-free paths.
    assert (service.counters["requests_coalesced"]
            == len(followers)) and store_hits >= 0
    for result in results:
        assert result.payloads["summary"] == {
            "artifact": "summary", "seed": config.seed}
        assert result.degraded is False


def test_mixed_fingerprint_storm_never_cross_serves(tmp_path):
    """Concurrent queries across distinct configs stay isolated."""
    seeds = (101, 202, 303, 404)
    herd_per_seed = 4
    service = StubService(ArtifactStore(str(tmp_path)))
    configs = {seed: StudyConfig.ci_scale(seed=seed) for seed in seeds}

    def query(index):
        seed = seeds[index % len(seeds)]
        return seed, service.query(configs[seed], names=("fig1",))

    outcomes = _herd(len(seeds) * herd_per_seed, query)
    assert all(status == "ok" for status, _ in outcomes)
    for status, (seed, result) in outcomes:
        # The payload a request got back belongs to *its* config.
        assert result.payloads["fig1"] == {"artifact": "fig1",
                                           "seed": seed}
        assert result.fingerprint == study_fingerprint(configs[seed])
    # One study per distinct fingerprint, never more.
    assert service.counters["studies_run"] == len(seeds)
    # And the store holds each seed's artifacts under its own key.
    for seed, config in configs.items():
        stored = service.store.get(study_fingerprint(config), "fig1")
        assert stored == {"artifact": "fig1", "seed": seed}


def test_service_keeps_no_study_after_materializing(tmp_path):
    """The store is the cache: no computed study outlives its query,
    so serving many fingerprints does not grow the process."""
    service = StubService(ArtifactStore(str(tmp_path)))
    run_study = service._run_study
    refs = []

    def tracked_run(config, scenario, progress):
        artifacts = run_study(config, scenario, progress)
        refs.append(weakref.ref(artifacts))
        return artifacts

    service._run_study = tracked_run
    for seed in (101, 202):
        service.query(StudyConfig.ci_scale(seed=seed), names=("summary",))
    gc.collect()
    assert len(refs) == 2
    assert [ref() for ref in refs] == [None, None]


def test_warm_store_concurrency_is_pure_serving(tmp_path):
    """After one materialize, a herd is all store hits: zero runs."""
    service = StubService(ArtifactStore(str(tmp_path)))
    config = StudyConfig.ci_scale()
    service.query(config)  # warm every artifact
    runs_before = service.run_calls

    outcomes = _herd(12, lambda index: service.query(config))
    assert all(status == "ok" for status, _ in outcomes)
    for _, result in outcomes:
        assert result.computed == ()
        assert set(result.payloads) == set(artifact_names())
    assert service.run_calls == runs_before
    assert service.counters["requests_coalesced"] == 0


def test_expired_deadline_never_starts_a_study(tmp_path):
    clock = FakeClock()
    service = StubService(ArtifactStore(str(tmp_path)), clock=clock)
    deadline = Deadline.after(1.0, clock=clock)
    clock.advance(2.0)
    with pytest.raises(DeadlineExpired):
        service.query(StudyConfig.ci_scale(), deadline=deadline)
    assert service.run_calls == 0
    assert service.counters["deadline_expired"] == 1
    assert service.counters["studies_run"] == 0


def test_deadline_expiry_mid_compute_aborts_via_progress(tmp_path):
    """The deadline propagates *into* the study run: the progress hook
    raises at the first stage boundary after expiry."""
    clock = FakeClock()
    service = StubService(ArtifactStore(str(tmp_path)), clock=clock)
    original = service._run_study

    def slow_run(config, scenario, progress):
        clock.advance(10.0)  # compute outlives the budget...
        return original(config, scenario, progress)  # ...hook raises

    service._run_study = slow_run
    deadline = Deadline.after(5.0, clock=clock)
    with pytest.raises(DeadlineExpired, match="study compute"):
        service.query(StudyConfig.ci_scale(), deadline=deadline)
    assert service.counters["deadline_expired"] == 1
    # Deadline expiry says nothing about compute health: breaker closed.
    assert service.breaker.state == BREAKER_CLOSED


def test_breaker_opens_after_consecutive_failures_then_degrades(tmp_path):
    clock = FakeClock()
    policy = ResiliencePolicy(breaker_failure_limit=2,
                              breaker_reset_seconds=60.0)
    store = ArtifactStore(str(tmp_path))
    service = StubService(store, policy=policy, clock=clock)
    config = StudyConfig.ci_scale()
    fingerprint = study_fingerprint(config)
    # A stale artifact from a previous (healthy) era sits in the store.
    store.put(fingerprint, "summary", {"artifact": "summary",
                                       "seed": "stale"})

    service.fail_with = RuntimeError("dataset offline")
    for _ in range(policy.breaker_failure_limit):
        with pytest.raises(RuntimeError, match="dataset offline"):
            service.query(config, names=("fig1",))
    assert service.breaker.state == BREAKER_OPEN
    assert service.counters["computes_failed"] == 2

    # Breaker open: the compute path is never touched; the request is
    # answered from whatever the store has, flagged degraded.
    runs_before = service.run_calls
    result = service.query(config, names=("summary", "fig1"))
    assert result.degraded is True
    assert result.payloads == {"summary": {"artifact": "summary",
                                           "seed": "stale"}}
    assert "fig1" not in result.payloads  # missing, not invented
    assert service.run_calls == runs_before
    assert service.counters["requests_degraded"] == 1


def test_breaker_half_open_probe_recovers_service(tmp_path):
    clock = FakeClock()
    policy = ResiliencePolicy(breaker_failure_limit=1,
                              breaker_reset_seconds=30.0)
    service = StubService(ArtifactStore(str(tmp_path)), policy=policy,
                          clock=clock)
    config = StudyConfig.ci_scale()

    service.fail_with = RuntimeError("flaky")
    with pytest.raises(RuntimeError):
        service.query(config, names=("summary",))
    assert service.breaker.state == BREAKER_OPEN
    assert service.query(config, names=("summary",)).degraded is True

    # Cool-down elapses and the compute path heals: the next request is
    # the half-open probe, it succeeds, and the breaker closes.
    clock.advance(policy.breaker_reset_seconds + 1.0)
    service.fail_with = None
    result = service.query(config, names=("summary",))
    assert result.degraded is False
    assert result.payloads["summary"] == {"artifact": "summary",
                                          "seed": config.seed}
    assert service.breaker.state == BREAKER_CLOSED
    # Healthy again: subsequent queries are plain store hits.
    assert service.query(config, names=("summary",)).computed == ()


def test_coalesced_failure_counts_one_compute_failure(tmp_path):
    """A failing flight fails every waiter but charges the breaker
    exactly once -- followers share the outcome, not the blame."""
    herd = 6
    policy = ResiliencePolicy(breaker_failure_limit=100)
    service = StubService(ArtifactStore(str(tmp_path)), policy=policy)
    service.run_gate = threading.Event()
    service.fail_with = RuntimeError("shared failure")
    config = StudyConfig.ci_scale()

    errors = []
    lock = threading.Lock()
    barrier = threading.Barrier(herd + 1)

    def query(index):
        barrier.wait(timeout=30.0)
        try:
            service.query(config, names=("summary",))
        except RuntimeError as exc:
            with lock:
                errors.append(str(exc))

    threads = [threading.Thread(target=query, args=(index,))
               for index in range(herd)]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=30.0)
    service.run_started.wait(timeout=30.0)
    # Hold the leader until at least one follower has joined its
    # flight, so the coalesced-failure path is actually exercised.
    for _ in range(5000):
        if service._singleflight.counters["requests_coalesced"] >= 1:
            break
        threading.Event().wait(0.001)
    service.run_gate.set()
    for thread in threads:
        thread.join(timeout=60.0)

    # Everyone saw the failure; some as flight followers, the rest as
    # fresh leaders after the flight dissolved -- but the breaker saw
    # exactly one failure per *run*, not per request.
    assert len(errors) == herd
    assert set(errors) == {"shared failure"}
    assert service.counters["computes_failed"] == service.run_calls
    assert service.run_calls < herd
