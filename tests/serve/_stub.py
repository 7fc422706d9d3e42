"""Shared test doubles for the serve concurrency/chaos suites.

The real ci-scale study takes seconds per run; concurrency and
overload invariants need dozens of herd members, so these suites swap
the study for an instrumented stub while keeping the *entire* service
path real: fingerprinting, store reads/writes, singleflight, breaker,
admission, counters. Payloads embed the config seed so cross-served
artifacts would be caught by content, not just by counters.
"""

from __future__ import annotations

import threading

from repro.serve.service import StudyService


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeArtifacts:
    """Stands in for StudyArtifacts: compute_all is a counted no-op."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.compute_all_calls = 0

    def compute_all(self) -> None:
        self.compute_all_calls += 1


class StubService(StudyService):
    """StudyService with the study swapped for an instrumented stub.

    ``run_gate`` (when set) blocks inside the stubbed study run so a
    herd can pile up on a genuinely in-flight compute; ``fail_with``
    makes every run raise, driving the breaker.
    """

    def __init__(self, store, **kwargs):
        super().__init__(store, **kwargs)
        self.run_gate = None
        self.run_started = threading.Event()
        self.fail_with = None
        self.run_calls = 0
        self._stub_lock = threading.Lock()

    def _run_study(self, config, scenario, progress):
        with self._stub_lock:
            self.run_calls += 1
        self.run_started.set()
        if self.run_gate is not None:
            assert self.run_gate.wait(timeout=30.0), "run gate stuck"
        progress(f"[stub] ran seed={config.seed}")
        if self.fail_with is not None:
            raise self.fail_with
        return FakeArtifacts(config.seed)

    def _compute_payload(self, artifacts, name):
        return {"artifact": name, "seed": artifacts.seed}
