"""ArtifactStore: round trips, integrity checks, hostile names."""

import hashlib
import json
import os
import urllib.error
import urllib.request

import pytest

from repro.config import StudyConfig
from repro.serve.fingerprint import canonical_json
from repro.serve.server import ArtifactServer
from repro.serve.service import StudyService
from repro.serve.store import ArtifactStore, StoreIntegrityError

FP = "ab" * 32  # a well-formed 64-hex fingerprint


def _envelope(fingerprint, name, payload):
    """The bytes ``put`` writes: a header naming the slot and the
    payload's digest, then its canonical encoding."""
    encoded = canonical_json(payload)
    digest = hashlib.sha256(encoded.encode("utf-8")).hexdigest()
    return (f'{{"fingerprint":"{fingerprint}","name":"{name}",'
            f'"sha256":"{digest}","payload":{encoded}}}\n').encode("utf-8")


def _write_legacy(store, fingerprint, name, payload):
    """An envelope in the older indented, key-sorted layout, with the
    digest it recorded: right hash, wrong bytes."""
    digest = hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()
    envelope = {"name": name, "fingerprint": fingerprint,
                "sha256": digest, "payload": payload}
    with open(store.entry_path(fingerprint, name), "w") as fileobj:
        fileobj.write(json.dumps(envelope, indent=2, sort_keys=True) + "\n")


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def test_round_trip_preserves_payload(store):
    payload = {"total": [1, 2, 3], "by_class": {"mobile": [4, 5, 6]},
               "nan_free": None, "nested": {"deep": [{"x": 1.5}]}}
    digest = store.put(FP, "fig1", payload)
    assert len(digest) == 64
    assert store.has(FP, "fig1")
    assert store.get(FP, "fig1") == payload


def test_store_layout_is_sharded_by_prefix(store):
    store.put(FP, "summary", {"peak": 21})
    expected = os.path.join(store.root, "objects", FP[:2], FP,
                            "summary.json")
    assert store.entry_path(FP, "summary") == expected
    assert os.path.exists(expected)


def test_missing_artifact(store):
    assert not store.has(FP, "fig1")
    assert store.artifact_names(FP) == []
    assert store.fingerprints() == []
    with pytest.raises(FileNotFoundError):
        store.get(FP, "fig1")


def test_listing(store):
    store.put(FP, "fig2", {"a": 1})
    store.put(FP, "fig1", {"b": 2})
    store.put_meta(FP, {"scenario": "lockdown-2020"})
    other = "cd" * 32
    store.put(other, "summary", {})
    assert store.artifact_names(FP) == ["fig1", "fig2"]
    assert store.fingerprints() == [FP, other]
    assert store.get_meta(FP) == {"scenario": "lockdown-2020"}
    assert store.get_meta(other) is None


def test_tampered_entry_is_refused(store):
    store.put(FP, "summary", {"peak_active_devices": 21})
    path = store.entry_path(FP, "summary")
    with open(path) as fileobj:
        envelope = json.load(fileobj)
    envelope["payload"]["peak_active_devices"] = 9999
    with open(path, "w") as fileobj:
        json.dump(envelope, fileobj)
    with pytest.raises(StoreIntegrityError, match="summary.*corrupt"):
        store.get(FP, "summary")


def test_overwrite_replaces_cleanly(store):
    store.put(FP, "summary", {"v": 1})
    store.put(FP, "summary", {"v": 2})
    assert store.get(FP, "summary") == {"v": 2}
    assert store.artifact_names(FP) == ["summary"]


@pytest.mark.parametrize("name", [
    "../evil", "a/b", "", ".hidden", "UPPER", "x" * 65, "meta.json",
])
def test_hostile_artifact_names_are_rejected(store, name):
    with pytest.raises(ValueError, match="invalid artifact name"):
        store.put(FP, name, {})


@pytest.mark.parametrize("fingerprint", [
    "", "xyz", "AB" * 32, "ab" * 40, "../../etc", "abc-def",
])
def test_hostile_fingerprints_are_rejected(store, fingerprint):
    with pytest.raises(ValueError, match="invalid fingerprint"):
        store.put(fingerprint, "summary", {})


def test_no_tmp_droppings_after_writes(store):
    store.put(FP, "fig1", {"x": list(range(100))})
    store.put_meta(FP, {"scenario": "lockdown-2020"})
    run_dir = os.path.dirname(store.entry_path(FP, "fig1"))
    assert not [entry for entry in os.listdir(run_dir)
                if ".tmp" in entry]


class TestCrashRecovery:
    def test_truncated_envelope_is_torn_not_served(self, store):
        store.put(FP, "summary", {"peak_active_devices": 21})
        path = store.entry_path(FP, "summary")
        with open(path) as fileobj:
            text = fileobj.read()
        with open(path, "w") as fileobj:
            fileobj.write(text[: len(text) // 2])
        with pytest.raises(StoreIntegrityError, match="torn"):
            store.get(FP, "summary")

    def test_non_envelope_json_is_refused(self, store):
        store.put(FP, "summary", {"v": 1})
        with open(store.entry_path(FP, "summary"), "w") as fileobj:
            fileobj.write('["not", "an", "envelope"]\n')
        with pytest.raises(StoreIntegrityError, match="not an envelope"):
            store.get(FP, "summary")

    def test_quarantine_moves_the_entry_aside(self, store):
        store.put(FP, "summary", {"v": 1})
        source = store.entry_path(FP, "summary")
        target = store.quarantine(FP, "summary")
        assert not os.path.exists(source)
        assert not store.has(FP, "summary")
        assert os.path.exists(target)
        assert os.path.dirname(target) == os.path.join(store.root,
                                                       "quarantine")
        assert store.counters["entries_quarantined"] == 1
        # The slot is free again: a recompute stores a clean envelope.
        store.put(FP, "summary", {"v": 2})
        assert store.get(FP, "summary") == {"v": 2}

    def test_orphans_are_swept_at_open(self, store):
        store.put(FP, "fig1", {"x": 1})
        run_dir = os.path.dirname(store.entry_path(FP, "fig1"))
        with open(os.path.join(run_dir, "fig2.tmp.json"), "w") as fp:
            fp.write('{"torn":')
        reopened = ArtifactStore(store.root)
        assert reopened.counters["orphans_swept"] == 1
        assert reopened.artifact_names(FP) == ["fig1"]
        # Idempotent: nothing left on the next open.
        assert ArtifactStore(store.root).counters["orphans_swept"] == 0

    def test_writes_retry_transient_faults_with_accounting(self, tmp_path):
        from repro.reliability.atomic import disk_faults
        from repro.reliability.faults import DiskFault, DiskFaultInjector
        from repro.reliability.retry import RetryPolicy

        slept = []
        retrying = ArtifactStore(
            str(tmp_path / "store"),
            retry_policy=RetryPolicy(max_attempts=3, base_delay=1.0,
                                     jitter=0.0),
            sleep=slept.append)
        fault = DiskFault(kind="enospc", path_contains="summary",
                          hits=(0,))
        with disk_faults(DiskFaultInjector(faults=(fault,))):
            retrying.put(FP, "summary", {"v": 1})
        assert retrying.counters["write_retries"] == 1
        assert slept == [1.0]
        assert retrying.get(FP, "summary") == {"v": 1}

    def test_exhausted_retries_surface_the_fault(self, tmp_path):
        from repro.reliability.atomic import disk_faults
        from repro.reliability.errors import DiskFullError
        from repro.reliability.faults import DiskFault, DiskFaultInjector
        from repro.reliability.retry import RetryPolicy

        retrying = ArtifactStore(
            str(tmp_path / "store"),
            retry_policy=RetryPolicy.no_delay(max_attempts=2),
            sleep=lambda seconds: None)
        fault = DiskFault(kind="enospc", path_contains="summary",
                          hits=None)
        with disk_faults(DiskFaultInjector(faults=(fault,))):
            with pytest.raises(DiskFullError):
                retrying.put(FP, "summary", {"v": 1})
        assert not retrying.has(FP, "summary")


class TestEnvelopeLayout:
    def test_put_writes_one_canonical_envelope(self, store):
        payload = {"b": [1, 2.5, None], "a": {"z": "x", "y": True}}
        digest = store.put(FP, "fig1", payload)
        assert digest == hashlib.sha256(
            canonical_json(payload).encode("utf-8")).hexdigest()
        with open(store.entry_path(FP, "fig1"), "rb") as fileobj:
            assert fileobj.read() == _envelope(FP, "fig1", payload)

    def test_digest_of_a_fixed_payload_is_pinned(self, store):
        # sha256 of '{"peak_active_devices":21,"share":[0.5,0.25]}'.
        assert store.put(FP, "summary", {"share": [0.5, 0.25],
                                         "peak_active_devices": 21}) \
            == "640e163e60657d8fbe9dbd92ba653dfbd8448996dd26af86bb2b84988e63111e"

    def test_payload_byte_edited_in_place_is_corrupt(self, store):
        store.put(FP, "summary", {"peak_active_devices": 21})
        path = store.entry_path(FP, "summary")
        with open(path, "rb") as fileobj:
            data = fileobj.read()
        edited = data.replace(b":21}", b":29}")
        assert len(edited) == len(data) and edited != data
        with open(path, "wb") as fileobj:
            fileobj.write(edited)
        with pytest.raises(StoreIntegrityError,
                           match="summary.*corrupt.*recorded sha256"):
            store.get(FP, "summary")

    def test_legacy_layout_with_a_correct_hash_is_refused(self, store):
        store.put(FP, "summary", {"peak_active_devices": 21})
        _write_legacy(store, FP, "summary", {"peak_active_devices": 21})
        with pytest.raises(StoreIntegrityError, match="summary.*corrupt"):
            store.get(FP, "summary")

    def test_envelope_copied_to_another_fingerprint_is_refused(self, store):
        other = "cd" * 32
        store.put(FP, "summary", {"v": 1})
        store.put(other, "summary", {"v": 2})
        with open(store.entry_path(FP, "summary"), "rb") as fileobj:
            data = fileobj.read()
        with open(store.entry_path(other, "summary"), "wb") as fileobj:
            fileobj.write(data)
        with pytest.raises(StoreIntegrityError, match="summary.*corrupt"):
            store.get(other, "summary")

    def test_envelope_copied_to_another_artifact_is_refused(self, store):
        store.put(FP, "fig1", {"v": 1})
        store.put(FP, "fig2", {"v": 2})
        with open(store.entry_path(FP, "fig1"), "rb") as fileobj:
            data = fileobj.read()
        with open(store.entry_path(FP, "fig2"), "wb") as fileobj:
            fileobj.write(data)
        with pytest.raises(StoreIntegrityError, match="fig2.*corrupt"):
            store.get(FP, "fig2")
        assert store.get(FP, "fig1") == {"v": 1}


def _http_get(server, path):
    """(status, parsed body) of one GET, errors included."""
    try:
        with urllib.request.urlopen(server.url + path, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHealing:
    """Entries ``get`` refuses are quarantined and recomputed, through
    the service and through the HTTP route alike."""

    @pytest.fixture()
    def computed(self, store):
        service = StudyService(store)
        result = service.query(StudyConfig.chaos_scale())
        return service, result.fingerprint, result.payloads["summary"]

    def _assert_canonical(self, store, fingerprint, payload):
        with open(store.entry_path(fingerprint, "summary"), "rb") as fp:
            assert fp.read() == _envelope(fingerprint, "summary", payload)

    def test_service_heals_a_legacy_entry(self, store, computed):
        service, fingerprint, summary = computed
        _write_legacy(store, fingerprint, "summary", summary)
        result = service.query(StudyConfig.chaos_scale(),
                               names=("summary",))
        assert result.computed == ("summary",)
        assert result.payloads["summary"] == summary
        assert service.counters["artifacts_recovered"] == 1
        assert store.counters["entries_quarantined"] == 1
        self._assert_canonical(store, fingerprint, summary)

    def test_http_route_heals_a_legacy_entry(self, store, computed):
        service, fingerprint, summary = computed
        _write_legacy(store, fingerprint, "summary", summary)
        server = ArtifactServer(store, service=service).start_background()
        try:
            status, body = _http_get(
                server, f"/artifacts/{fingerprint}/summary?compute=1")
        finally:
            server.shutdown()
        assert (status, body["source"]) == (200, "computed")
        assert body["payload"] == summary
        assert store.counters["entries_quarantined"] == 1
        self._assert_canonical(store, fingerprint, summary)

    def test_http_route_serves_a_torn_entry_as_missing(self, store,
                                                       computed):
        service, fingerprint, summary = computed
        with open(store.entry_path(fingerprint, "summary"), "w") as fp:
            fp.write('{"payload": {"pea')  # torn mid-write
        server = ArtifactServer(store, service=service).start_background()
        try:
            status, body = _http_get(server,
                                     f"/artifacts/{fingerprint}/summary")
            assert status == 404
            assert "retry with ?compute=1" in body["error"]
            assert store.counters["entries_quarantined"] == 1
            status, body = _http_get(
                server, f"/artifacts/{fingerprint}/summary?compute=1")
            assert (status, body["source"]) == (200, "computed")
            status, body = _http_get(
                server, f"/artifacts/{fingerprint}/summary?compute=1")
            assert (status, body["source"]) == (200, "store")
        finally:
            server.shutdown()
        assert body["payload"] == summary
        assert store.counters["entries_quarantined"] == 1
        self._assert_canonical(store, fingerprint, summary)
