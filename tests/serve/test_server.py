"""HTTP front end: routes, status codes, compute-on-demand."""

import json
import urllib.error
import urllib.request

import pytest

from repro.serve.fingerprint import study_fingerprint
from repro.serve.server import ArtifactServer
from repro.serve.service import StudyService, artifact_names
from repro.serve.store import ArtifactStore


@pytest.fixture(scope="module")
def server(populated_store):
    instance = ArtifactServer(populated_store, port=0).start_background()
    yield instance
    instance.shutdown()


def _get(server, path, headers=None):
    request = urllib.request.Request(server.url + path,
                                     headers=headers or {})
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def _get_error(server, path, headers=None):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server, path, headers)
    return excinfo.value.code, json.loads(excinfo.value.read())


def test_health(server):
    status, payload = _get(server, "/health")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["fingerprints"] == 1
    assert payload["draining"] is False
    # The resilience counters ride on /health (ISSUE 10 satellite).
    resilience = payload["resilience"]
    for key in ("requests_shed", "requests_coalesced",
                "deadline_expired", "breaker_state", "studies_run"):
        assert key in resilience, key
    assert resilience["breaker_state"] == "closed"
    assert resilience["requests_shed"] == 0


def test_healthz_liveness(server):
    status, payload = _get(server, "/healthz")
    assert status == 200
    assert payload == {"status": "alive"}


def test_readyz_ready(server):
    status, payload = _get(server, "/readyz")
    assert status == 200
    assert payload["ready"] is True
    assert payload["checks"] == {
        "store_reachable": True,
        "breaker_closed": True,
        "queue_below_high_water": True,
        "not_draining": True,
    }


def test_fingerprint_listing(server, ci_config):
    status, payload = _get(server, "/fingerprints")
    assert status == 200
    (run,) = payload["fingerprints"]
    assert run["fingerprint"] == study_fingerprint(ci_config)
    assert run["scenario"] == "lockdown-2020"
    assert sorted(run["artifacts"]) == sorted(artifact_names())


def test_artifact_inventory_and_payload(server, ci_config):
    fingerprint = study_fingerprint(ci_config)
    status, listing = _get(server, f"/artifacts/{fingerprint}")
    assert status == 200
    assert "summary" in listing["artifacts"]

    status, artifact = _get(server, f"/artifacts/{fingerprint}/summary")
    assert status == 200
    assert artifact["source"] == "store"
    assert "peak_active_devices" in artifact["payload"]


def test_unknown_paths_404(server, ci_config):
    fingerprint = study_fingerprint(ci_config)
    for path in ("/bogus",
                 "/artifacts/" + "00" * 32,
                 f"/artifacts/{fingerprint}/fig99",
                 f"/artifacts/{fingerprint}/summary/extra"):
        code, payload = _get_error(server, path)
        assert code == 404, path
        assert "error" in payload


def test_invalid_fingerprint_400(server):
    code, payload = _get_error(server, "/artifacts/NOT-HEX")
    assert code == 400
    assert "invalid fingerprint" in payload["error"]


def test_compute_on_demand(populated_store, ci_config):
    """A deleted entry 404s read-only but comes back with ?compute=1.

    Uses its own server so the module-scoped one never observes the
    temporarily missing artifact.
    """
    import os

    fingerprint = study_fingerprint(ci_config)
    os.remove(populated_store.entry_path(fingerprint, "summary"))
    server = ArtifactServer(
        populated_store,
        service=StudyService(populated_store)).start_background()
    try:
        code, _ = _get_error(server, f"/artifacts/{fingerprint}/summary")
        assert code == 404
        status, artifact = _get(
            server, f"/artifacts/{fingerprint}/summary?compute=1")
        assert status == 200
        assert artifact["source"] == "computed"
        assert "peak_active_devices" in artifact["payload"]
        assert populated_store.has(fingerprint, "summary")
    finally:
        server.shutdown()


def test_compute_without_meta_404s(tmp_path):
    store = ArtifactStore(str(tmp_path))
    server = ArtifactServer(store).start_background()
    try:
        code, payload = _get_error(
            server, "/artifacts/" + "12" * 32 + "/summary?compute=1")
        assert code == 404
        assert "could not be computed" in payload["error"]
    finally:
        server.shutdown()


def test_artifact_envelope_reports_degraded_false(server, ci_config):
    """Clean low-load serving is explicitly non-degraded."""
    fingerprint = study_fingerprint(ci_config)
    status, artifact = _get(server, f"/artifacts/{fingerprint}/summary")
    assert status == 200
    assert artifact["degraded"] is False


def test_invalid_deadline_is_400(server, ci_config):
    """Non-positive and non-finite budgets are rejected: a NaN budget
    would never expire and an infinite one never cut compute off."""
    path = f"/artifacts/{study_fingerprint(ci_config)}/summary"
    for query in ("-5", "nan", "inf", "1e400"):
        code, payload = _get_error(server, f"{path}?deadline_ms={query}")
        assert code == 400, query
        assert "deadline_ms" in payload["error"]
    code, payload = _get_error(server, path,
                               {"X-Repro-Deadline-Ms": "nan"})
    assert code == 400
    assert "deadline_ms" in payload["error"]


def test_shutdown_before_serving_does_not_hang(tmp_path):
    """shutdown() on a never-started server closes the socket cleanly.

    The pre-ISSUE-10 teardown called ``ThreadingHTTPServer.shutdown()``
    unconditionally, which blocks forever unless serve_forever is
    running -- and it leaked the listening fd between tests when the
    background thread had already died.
    """
    server = ArtifactServer(ArtifactStore(str(tmp_path)))
    host, port = server.address
    server.shutdown()  # must return promptly, not hang
    # The listening socket really is closed: the port is rebindable.
    import socket

    probe = socket.socket()
    try:
        probe.bind((host, port))
    finally:
        probe.close()


def test_shutdown_is_idempotent(tmp_path):
    server = ArtifactServer(ArtifactStore(str(tmp_path)))
    server.start_background()
    server.shutdown()
    server.shutdown()  # second call is a no-op, not an error


def test_start_background_is_idempotent(tmp_path):
    """Double-starting must not spawn a second serve loop."""
    server = ArtifactServer(ArtifactStore(str(tmp_path)))
    try:
        first = server.start_background()._thread
        second = server.start_background()._thread
        assert first is second
        assert first.is_alive()
    finally:
        server.shutdown()
        assert server._thread is None
