"""Serving-resilience benchmark: latency, shed rate, coalesce rate.

Drives a real :class:`ArtifactServer` (real sockets, admission gate,
singleflight) with the study compute stubbed -- the point is to measure
the *serving layer*, not the study -- through three regimes:

* **warm** -- sequential store hits; reports p50/p99 request latency;
* **herd** -- 32 concurrent cold misses on one fingerprint; reports the
  coalesce rate (computes per request) which must round to exactly one
  compute total;
* **storm** -- a burst far beyond slots+queue at tight limits; reports
  the shed rate and, crucially, ``dropped_without_response`` which the
  CI gate pins at zero: overload must always answer *something*.

Writes ``BENCH_serve.json`` (override with ``BENCH_SERVE_JSON``) for CI
to archive and gate on.
"""

import json
import os
import threading
import time
import urllib.error
import urllib.request

from repro.config import StudyConfig
from repro.serve.fingerprint import DEFAULT_SCENARIO, study_fingerprint
from repro.serve.resilience import ResiliencePolicy
from repro.serve.server import ArtifactServer
from repro.serve.service import StudyService
from repro.serve.store import ArtifactStore

WARM_REQUESTS = 200
HERD_CLIENTS = 32
STORM_CLIENTS = 24


class _StubService(StudyService):
    """StudyService with the study replaced by a counted no-op."""

    def __init__(self, store, **kwargs):
        super().__init__(store, **kwargs)
        self.run_gate = None
        self.run_started = threading.Event()
        self.run_calls = 0
        self._bench_lock = threading.Lock()

    def _run_study(self, config, scenario, progress):
        with self._bench_lock:
            self.run_calls += 1
        self.run_started.set()
        if self.run_gate is not None:
            assert self.run_gate.wait(timeout=60.0)

        class _Artifacts:
            seed = config.seed

            @staticmethod
            def compute_all():
                return None

        return _Artifacts()

    def _compute_payload(self, artifacts, name):
        return {"artifact": name, "seed": artifacts.seed}


def _spawn(root, policy):
    store = ArtifactStore(str(root))
    config = StudyConfig.ci_scale()
    fingerprint = study_fingerprint(config)
    store.put_meta(fingerprint, {
        "fingerprint": fingerprint,
        "scenario": DEFAULT_SCENARIO,
        "config": config.to_payload(),
    })
    service = _StubService(store, policy=policy)
    server = ArtifactServer(store, service=service,
                            policy=policy).start_background()
    return server, service, fingerprint


def _fetch(url, timeout=60.0):
    """(status or None, seconds); None status == dropped, the sin."""
    started = time.perf_counter()
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            resp.read()
            status = resp.status
    except urllib.error.HTTPError as error:
        error.read()
        status = error.code
    except (urllib.error.URLError, OSError, TimeoutError):
        status = None
    return status, time.perf_counter() - started


def _storm(url, count):
    barrier = threading.Barrier(count)
    verdicts = [None] * count

    def client(index):
        barrier.wait(timeout=60.0)
        verdicts[index] = _fetch(url)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(count)]
    for thread in threads:
        thread.start()
    return threads, verdicts


def _percentile(samples, fraction):
    ranked = sorted(samples)
    index = min(len(ranked) - 1, int(round(fraction * (len(ranked) - 1))))
    return ranked[index]


def _ms(seconds):
    return round(seconds * 1000.0, 3)


def test_serve_overload_report(tmp_path_factory):
    report = {}

    # -- warm: sequential store hits, request latency ------------------
    server, service, fingerprint = _spawn(
        tmp_path_factory.mktemp("bench-warm"), ResiliencePolicy())
    try:
        url = f"{server.url}/artifacts/{fingerprint}/summary?compute=1"
        status, _ = _fetch(url)  # materialize once
        assert status == 200
        latencies = []
        for _ in range(WARM_REQUESTS):
            status, seconds = _fetch(url)
            assert status == 200
            latencies.append(seconds)
        report["warm"] = {
            "requests": WARM_REQUESTS,
            "p50_ms": _ms(_percentile(latencies, 0.50)),
            "p99_ms": _ms(_percentile(latencies, 0.99)),
            "max_ms": _ms(max(latencies)),
        }
    finally:
        server.shutdown()

    # -- herd: concurrent cold misses, coalesce rate -------------------
    policy = ResiliencePolicy(max_concurrent=HERD_CLIENTS,
                              queue_depth=HERD_CLIENTS,
                              default_deadline_seconds=120.0)
    server, service, fingerprint = _spawn(
        tmp_path_factory.mktemp("bench-herd"), policy)
    try:
        url = f"{server.url}/artifacts/{fingerprint}/summary?compute=1"
        threads, verdicts = _storm(url, HERD_CLIENTS)
        service.run_started.wait(timeout=60.0)
        for thread in threads:
            thread.join(timeout=120.0)
        statuses = [status for status, _ in verdicts]
        herd_latencies = [seconds for _, seconds in verdicts]
        snapshot = service.resilience_snapshot()
        report["herd"] = {
            "clients": HERD_CLIENTS,
            "status_200": statuses.count(200),
            "dropped_without_response": statuses.count(None),
            "studies_run": snapshot["studies_run"],
            "requests_coalesced": snapshot["requests_coalesced"],
            "coalesce_rate": round(
                snapshot["requests_coalesced"] / HERD_CLIENTS, 3),
            "p50_ms": _ms(_percentile(herd_latencies, 0.50)),
            "p99_ms": _ms(_percentile(herd_latencies, 0.99)),
        }
        assert statuses.count(200) == HERD_CLIENTS
        assert snapshot["studies_run"] == 1  # the whole point
    finally:
        server.shutdown()

    # -- storm: saturation shedding, zero drops ------------------------
    policy = ResiliencePolicy(max_concurrent=2, queue_depth=2,
                              queue_wait_seconds=0.2)
    server, service, fingerprint = _spawn(
        tmp_path_factory.mktemp("bench-storm"), policy)
    service.run_gate = threading.Event()
    try:
        url = f"{server.url}/artifacts/{fingerprint}/summary?compute=1"
        threads, verdicts = _storm(url, STORM_CLIENTS)
        service.run_started.wait(timeout=60.0)
        deadline = time.monotonic() + 30.0
        while (server.gate.counters_snapshot()["requests_shed"]
               < STORM_CLIENTS - policy.max_concurrent
               - policy.queue_depth and time.monotonic() < deadline):
            time.sleep(0.001)
        service.run_gate.set()
        for thread in threads:
            thread.join(timeout=120.0)
        statuses = [status for status, _ in verdicts]
        dropped = statuses.count(None)
        shed = statuses.count(429)
        report["storm"] = {
            "clients": STORM_CLIENTS,
            "max_concurrent": policy.max_concurrent,
            "queue_depth": policy.queue_depth,
            "status_200": statuses.count(200),
            "status_429": shed,
            "shed_rate": round(shed / STORM_CLIENTS, 3),
            "dropped_without_response": dropped,
        }
        # The hard overload contract the CI gate re-checks from JSON.
        assert dropped == 0
        assert shed >= 1
        assert set(statuses) <= {200, 429}
    finally:
        server.shutdown()

    report["dropped_without_response"] = (
        report["herd"]["dropped_without_response"]
        + report["storm"]["dropped_without_response"])

    print(f"\nwarm  : p50 {report['warm']['p50_ms']:7.2f} ms   "
          f"p99 {report['warm']['p99_ms']:7.2f} ms   "
          f"({WARM_REQUESTS} store hits)")
    print(f"herd  : {HERD_CLIENTS} clients -> "
          f"{report['herd']['studies_run']} compute, coalesce rate "
          f"{report['herd']['coalesce_rate']:.2f}, "
          f"p99 {report['herd']['p99_ms']:.2f} ms")
    print(f"storm : {STORM_CLIENTS} clients vs "
          f"{policy.max_concurrent}+{policy.queue_depth} capacity -> "
          f"{report['storm']['status_429']} shed "
          f"(rate {report['storm']['shed_rate']:.2f}), "
          f"{report['dropped_without_response']} dropped")

    report_path = os.environ.get("BENCH_SERVE_JSON", "BENCH_serve.json")
    with open(report_path, "w") as fileobj:
        json.dump(report, fileobj, indent=2)
        fileobj.write("\n")
