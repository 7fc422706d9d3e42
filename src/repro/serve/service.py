"""Cache-or-compute: serve stored artifacts, compute only the missing.

:class:`StudyService` is the layer between the artifact store and
:class:`~repro.core.study.LockdownStudy`. A query names a config (or a
fingerprint already in the store) and a set of artifact names; the
service serves every artifact the store already has and computes the
rest by running the study once and computing every analysis through
``StudyArtifacts.compute_all``.

Since ISSUE 10 the compute path is *resilient*:

* **Singleflight.** Concurrent cache-misses on one fingerprint share a
  single study run: one leader materializes, every follower waits for
  (and shares) the result. A thundering herd of N requests costs
  exactly one compute -- ``studies_run == 1`` and
  ``requests_coalesced == N - 1`` are asserted by the chaos suite.
* **Deadlines.** A :class:`~repro.serve.resilience.Deadline` passed
  into :meth:`StudyService.query` is checked at every boundary (entry,
  compute admission, each progress report inside the study, each
  backfilled artifact, follower waits) and raises
  :class:`~repro.reliability.errors.DeadlineExpired` -- the HTTP
  layer's ``504``.
* **Circuit breaker + degraded serving.** Consecutive compute failures
  open a :class:`~repro.serve.resilience.CircuitBreaker`; while it
  is open the service answers from whatever the store already has and
  flags the result ``degraded=True`` instead of erroring. After the
  cool-down a single half-open probe compute decides whether to close.

Every serve, compute, coalesce, expiry and degradation increments a
counter, so the resilience guarantees are *testable*, not aspirational
(see ``tests/serve/test_service_concurrency.py`` and
``tests/serve/test_overload_chaos.py``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import StudyConfig
from repro.reliability.errors import DeadlineExpired
from repro.serve.fingerprint import (
    DEFAULT_SCENARIO,
    fingerprint_payload,
    study_fingerprint,
)
from repro.serve.resilience import (
    CircuitBreaker,
    Deadline,
    MonotonicFn,
    ResiliencePolicy,
    Singleflight,
)
from repro.serve.serialize import artifact_payload
from repro.serve.store import ArtifactStore, StoreIntegrityError

ProgressFn = Callable[[str], None]

#: Scenario name -> the LockdownStudy entry point that runs it.
SCENARIOS: Tuple[str, ...] = (DEFAULT_SCENARIO, "counterfactual")

#: Derived artifacts the service adds on top of the figure/summary
#: enumeration of ``StudyArtifacts.ANALYSES``.
DERIVED_ARTIFACTS: Tuple[str, ...] = ("outcomes",)


def artifact_names() -> Tuple[str, ...]:
    """Every artifact the service stores per study, in serving order.

    The figure/summary names come straight from
    ``StudyArtifacts.ANALYSES`` (the store enumerates what the study
    exposes -- a new analysis joins the store by joining that tuple),
    followed by the derived expectation ``outcomes``.
    """
    from repro.core.study import StudyArtifacts

    return tuple(StudyArtifacts.ANALYSES) + DERIVED_ARTIFACTS


def artifact_json(artifacts: Any, name: str) -> Any:
    """The JSON payload stored for one named artifact of a study.

    Served queries and journaled runs both store exactly this, so a
    fingerprint's entries are the same bytes whichever path wrote them.
    """
    if name == "outcomes":
        from repro.analysis.expectations import evaluate_all, outcomes_payload

        return outcomes_payload(evaluate_all(artifacts))
    return artifact_payload(getattr(artifacts, name)())


def store_meta(config: StudyConfig, scenario: str,
               **extra: Any) -> Dict[str, Any]:
    """The metadata recorded beside a study's stored artifacts."""
    return {
        "fingerprint": study_fingerprint(config, scenario),
        "scenario": scenario,
        "config": config.to_payload(),
        "fingerprinted": fingerprint_payload(config, scenario),
        **extra,
    }


@dataclass(frozen=True)
class QueryResult:
    """One query's artifacts plus where each came from."""

    fingerprint: str
    scenario: str
    payloads: Dict[str, Any]
    #: Artifact names served without a compute of our own -- from the
    #: store, or shared from a coalesced in-flight compute.
    served: Tuple[str, ...]
    #: Artifact names computed (and stored) by this query.
    computed: Tuple[str, ...]
    #: True when the compute breaker was open and the result is
    #: whatever the store could offer (possibly stale or partial).
    degraded: bool = False
    #: True when this query joined another request's in-flight compute
    #: instead of running its own.
    coalesced: bool = False


class StudyService:
    """Store-backed study serving with explicit compute accounting."""

    def __init__(self, store: ArtifactStore, *,
                 progress: Optional[ProgressFn] = None,
                 policy: Optional[ResiliencePolicy] = None,
                 clock: MonotonicFn = time.monotonic) -> None:
        self.store = store
        self.progress = progress or (lambda message: None)
        self.policy = policy or ResiliencePolicy()
        self.clock = clock
        #: Compute-path breaker: consecutive study failures open it;
        #: while open the service serves degraded instead of erroring.
        self.breaker = CircuitBreaker(
            self.policy.breaker_failure_limit,
            self.policy.breaker_reset_seconds, clock=clock)
        self._singleflight = Singleflight()
        #: Monotonic counters. The first four are the PR 6 cache
        #: accounting; the rest are the ISSUE 10 resilience accounting
        #: surfaced by ``/health`` and ``repro eval``.
        self.counters: Dict[str, int] = {
            "artifacts_served": 0,
            "artifacts_computed": 0,
            "artifacts_recovered": 0,
            "studies_run": 0,
            "requests_coalesced": 0,
            "deadline_expired": 0,
            "requests_degraded": 0,
            "computes_failed": 0,
        }
        self._lock = threading.Lock()

    # -- study execution ------------------------------------------------

    def _run_study(self, config: StudyConfig, scenario: str,
                   progress: ProgressFn) -> Any:
        from repro.core.study import LockdownStudy

        study = LockdownStudy(config)
        if scenario == DEFAULT_SCENARIO:
            return study.run(progress=progress)
        if scenario == "counterfactual":
            return study.run_counterfactual(progress=progress)
        raise ValueError(f"unknown scenario {scenario!r}; "
                         f"known: {SCENARIOS}")

    def _deadline_progress(self,
                           deadline: Optional[Deadline]) -> ProgressFn:
        """Progress hook that doubles as the in-compute deadline check.

        The study reports progress at every stage boundary and once per
        simulated week of ingest, so raising from the hook aborts a compute whose
        request has already timed out instead of finishing work nobody
        is waiting for.
        """
        if deadline is None:
            return self.progress

        def report(message: str) -> None:
            deadline.check("study compute")
            self.progress(message)

        return report

    def _compute_payload(self, artifacts: Any, name: str) -> Any:
        return artifact_json(artifacts, name)

    def _materialize(self, fingerprint: str, config: StudyConfig,
                     scenario: str, deadline: Optional[Deadline],
                     ) -> Tuple[Dict[str, Any], Tuple[str, ...]]:
        """Leader path: run the study once and backfill every artifact.

        Returns ``(payloads stored by this call, their names)``. Only
        ever executed by a singleflight leader, so the whole
        run-compute-backfill sequence happens at most once per
        fingerprint no matter how many requests miss concurrently.
        """
        if deadline is not None:
            deadline.check("compute admission")
        # No in-memory copy of the study outlives this call: the store
        # is the cache, so a process serving many fingerprints holds
        # only the studies in flight.
        artifacts = self._run_study(
            config, scenario, self._deadline_progress(deadline))
        with self._lock:
            self.counters["studies_run"] += 1
        # Warm every analysis once; per-name serialization below then
        # never triggers a figure computation of its own.
        artifacts.compute_all()
        self.store.put_meta(fingerprint, store_meta(config, scenario))
        # The study ran; backfill *every* known artifact (not just the
        # requested ones) so any later query -- even from a fresh
        # process -- is a pure store hit.
        payloads: Dict[str, Any] = {}
        stored: List[str] = []
        for name in artifact_names():
            if deadline is not None:
                deadline.check("artifact backfill")
            if self.store.has(fingerprint, name):
                continue
            payload = self._compute_payload(artifacts, name)
            self.store.put(fingerprint, name, payload)
            payloads[name] = payload
            stored.append(name)
        return payloads, tuple(stored)

    def _materialize_coalesced(
            self, fingerprint: str, config: StudyConfig, scenario: str,
            deadline: Optional[Deadline],
    ) -> Tuple[Dict[str, Any], Tuple[str, ...], bool]:
        """Materialize under singleflight + the compute breaker.

        Returns ``(payloads, stored names, led)``. Breaker accounting
        belongs to the leader: its success closes the breaker, its
        failure (other than a deadline expiry, which says nothing about
        the dependency's health) counts toward opening it. Followers
        share the leader's outcome, exception included.
        """
        def lead() -> Tuple[Dict[str, Any], Tuple[str, ...]]:
            try:
                result = self._materialize(fingerprint, config,
                                           scenario, deadline)
            except DeadlineExpired:
                raise
            # Broad on purpose (RL004-compliant): any compute failure
            # is recorded against the breaker and re-raised unchanged.
            except Exception:
                self.breaker.record_failure()
                with self._lock:
                    self.counters["computes_failed"] += 1
                raise
            self.breaker.record_success()
            return result

        outcome, led = self._singleflight.run(fingerprint, lead,
                                              deadline=deadline)
        payloads, stored = outcome
        if not led:
            with self._lock:
                self.counters["requests_coalesced"] += 1
        return payloads, stored, led

    # -- queries --------------------------------------------------------

    def query(self, config: StudyConfig,
              names: Optional[Sequence[str]] = None,
              scenario: str = DEFAULT_SCENARIO,
              compute: bool = True,
              deadline: Optional[Deadline] = None) -> QueryResult:
        """Serve the named artifacts (all known ones by default).

        Cached entries come from the store; with ``compute=True`` the
        missing ones are computed by running the study at most once
        globally (singleflight) and fanning the analyses out via
        ``StudyArtifacts.compute_all``. With ``compute=False`` missing
        artifacts are simply absent from the result (read-only mode,
        used by the HTTP server's default path). ``deadline`` bounds
        the whole query; expiry raises :class:`DeadlineExpired`.
        """
        try:
            return self._query(config, names=names, scenario=scenario,
                               compute=compute, deadline=deadline)
        except DeadlineExpired:
            with self._lock:
                self.counters["deadline_expired"] += 1
            raise

    def _query(self, config: StudyConfig,
               names: Optional[Sequence[str]],
               scenario: str, compute: bool,
               deadline: Optional[Deadline]) -> QueryResult:
        fingerprint = study_fingerprint(config, scenario)
        known = artifact_names()
        requested = tuple(names) if names else known
        for name in requested:
            if name not in known:
                raise ValueError(f"unknown artifact {name!r}; "
                                 f"known: {known}")
        if deadline is not None:
            deadline.check("query admission")

        payloads: Dict[str, Any] = {}
        served, missing, corrupt = [], [], []
        for name in requested:
            try:
                payloads[name] = self.store.get(fingerprint, name)
                served.append(name)
            except FileNotFoundError:
                missing.append(name)
            except StoreIntegrityError as exc:
                # Recompute it as if it had been missing.
                self.quarantine_corrupt(fingerprint, name, exc)
                missing.append(name)
                corrupt.append(name)

        computed: Tuple[str, ...] = ()
        degraded = False
        coalesced = False
        if missing and compute:
            if not self.breaker.allow():
                # Breaker open: serve what the store had, say so, and
                # never touch the failing compute path.
                degraded = True
                with self._lock:
                    self.counters["requests_degraded"] += 1
                self.progress(f"[serve] compute breaker open; serving "
                              f"{fingerprint[:12]} degraded "
                              f"({len(served)}/{len(requested)} "
                              f"artifacts)")
            else:
                flight_payloads, stored, led = \
                    self._materialize_coalesced(fingerprint, config,
                                                scenario, deadline)
                if led:
                    computed = stored
                else:
                    coalesced = True
                for name in missing:
                    if name in flight_payloads:
                        payloads[name] = flight_payloads[name]
                        if not led:
                            served.append(name)
                    elif self.store.has(fingerprint, name):
                        # The flight found it already stored (e.g. a
                        # racing backfill); read it like a cache hit.
                        payloads[name] = self.store.get(fingerprint,
                                                        name)
                        served.append(name)
                if led:
                    for name in computed:
                        if name in requested and name in flight_payloads:
                            payloads[name] = flight_payloads[name]

        recovered = [name for name in corrupt if name in computed]
        with self._lock:
            self.counters["artifacts_served"] += len(served)
            self.counters["artifacts_computed"] += len(computed)
            self.counters["artifacts_recovered"] += len(recovered)
        return QueryResult(fingerprint=fingerprint, scenario=scenario,
                           payloads=payloads, served=tuple(served),
                           computed=computed, degraded=degraded,
                           coalesced=coalesced)

    def query_fingerprint(self, fingerprint: str,
                          names: Optional[Sequence[str]] = None,
                          compute: bool = False,
                          deadline: Optional[Deadline] = None,
                          ) -> QueryResult:
        """Serve artifacts for a fingerprint already known to the store.

        The stored meta carries the full config payload, so with
        ``compute=True`` a fingerprint query can rebuild the config and
        compute artifacts the store is missing -- the "compute missing
        on demand" path of the HTTP server.
        """
        meta = self.store.get_meta(fingerprint)
        if meta is None:
            requested = tuple(names) if names else None
            present = self.store.artifact_names(fingerprint)
            use = requested if requested is not None else tuple(present)
            payloads = {}
            for name in use:
                if name not in present:
                    continue
                try:
                    payloads[name] = self.store.get(fingerprint, name)
                except StoreIntegrityError as exc:
                    # No meta means no config to recompute from; the
                    # corrupt entry is simply absent from the result.
                    self.quarantine_corrupt(fingerprint, name, exc)
            with self._lock:
                self.counters["artifacts_served"] += len(payloads)
            return QueryResult(fingerprint=fingerprint,
                               scenario=DEFAULT_SCENARIO,
                               payloads=payloads,
                               served=tuple(payloads), computed=())
        scenario = str(meta.get("scenario", DEFAULT_SCENARIO))
        config = StudyConfig.from_payload(meta.get("config", {}))
        return self.query(config, names=names, scenario=scenario,
                          compute=compute, deadline=deadline)

    def quarantine_corrupt(self, fingerprint: str, name: str,
                           error: StoreIntegrityError) -> None:
        """Move an entry that failed its integrity check aside.

        A torn, hash-mismatched or foreign envelope never reaches a
        caller: it is kept in quarantine for post-mortem and its slot
        freed for a recompute. An entry a concurrent reader already
        moved aside counts once, for that reader.
        """
        try:
            where = self.store.quarantine(fingerprint, name)
        except FileNotFoundError:
            return
        self.progress(f"[serve] corrupt artifact {name!r} "
                      f"quarantined to {where}: {error}")

    # -- introspection --------------------------------------------------

    def counters_snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.counters)

    def resilience_snapshot(self) -> Dict[str, Any]:
        """Counters + breaker/flight state for ``/health`` and eval."""
        snapshot: Dict[str, Any] = dict(self.counters_snapshot())
        flights = self._singleflight.counters_snapshot()
        snapshot["flights_led"] = flights["flights_led"]
        snapshot["breaker_state"] = self.breaker.state
        snapshot["flights_in_progress"] = self._singleflight.in_flight()
        return snapshot
