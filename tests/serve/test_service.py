"""StudyService: cache-or-compute with auditable counters."""

import os

import pytest

from repro.config import StudyConfig
from repro.core.study import StudyArtifacts
from repro.serve.fingerprint import study_fingerprint
from repro.serve.service import DERIVED_ARTIFACTS, StudyService, artifact_names
from repro.serve.store import ArtifactStore, StoreIntegrityError


def test_known_artifacts_follow_the_study_enumeration():
    assert artifact_names() == tuple(StudyArtifacts.ANALYSES) + DERIVED_ARTIFACTS
    assert DERIVED_ARTIFACTS == ("outcomes",)


def test_unknown_artifact_name_is_rejected(tmp_path, ci_config):
    service = StudyService(ArtifactStore(str(tmp_path)))
    with pytest.raises(ValueError, match="unknown artifact"):
        service.query(ci_config, names=("fig99",))


def test_unknown_scenario_is_rejected(tmp_path, ci_config):
    service = StudyService(ArtifactStore(str(tmp_path)))
    with pytest.raises(ValueError, match="unknown scenario"):
        service.query(ci_config, scenario="moon-landing")


def test_first_query_computes_then_second_serves(populated_store, ci_config):
    """The acceptance criterion: a repeated query is a pure store hit.

    ``populated_store`` already ran the study (in a different service
    instance), so a *fresh* service -- as a new process would build --
    must serve everything without a single study run.
    """
    service = StudyService(populated_store)
    result = service.query(ci_config)

    assert result.fingerprint == study_fingerprint(ci_config)
    assert result.computed == ()
    assert result.served == artifact_names()
    assert set(result.payloads) == set(artifact_names())
    assert service.counters_snapshot() == {
        "artifacts_served": len(artifact_names()),
        "artifacts_computed": 0,
        "artifacts_recovered": 0,
        "studies_run": 0,
        "requests_coalesced": 0,
        "deadline_expired": 0,
        "requests_degraded": 0,
        "computes_failed": 0,
    }
    assert result.degraded is False
    assert result.coalesced is False


def test_single_run_backfills_every_artifact(tmp_path, ci_config):
    """One query for one figure still stores the whole study."""
    store = ArtifactStore(str(tmp_path))
    service = StudyService(store)
    result = service.query(ci_config, names=("summary",))

    assert set(result.payloads) == {"summary"}
    assert set(result.computed) == set(artifact_names())
    assert service.counters["studies_run"] == 1
    assert (store.artifact_names(result.fingerprint)
            == sorted(artifact_names()))
    meta = store.get_meta(result.fingerprint)
    assert meta["scenario"] == result.scenario
    assert StudyConfig.from_payload(meta["config"]) == ci_config


def test_compute_false_serves_only_whats_stored(tmp_path, ci_config):
    service = StudyService(ArtifactStore(str(tmp_path)))
    result = service.query(ci_config, compute=False)
    assert result.payloads == {}
    assert result.computed == ()
    assert service.counters["studies_run"] == 0


def test_query_fingerprint_round_trip(populated_store, ci_config):
    """The stored meta is enough to answer by fingerprint alone."""
    service = StudyService(populated_store)
    fingerprint = study_fingerprint(ci_config)
    result = service.query_fingerprint(fingerprint, names=("summary",))
    assert result.served == ("summary",)
    assert "peak_active_devices" in result.payloads["summary"]
    assert service.counters["studies_run"] == 0


def test_query_fingerprint_without_meta_serves_present_entries(tmp_path):
    store = ArtifactStore(str(tmp_path))
    fingerprint = "ef" * 32
    store.put(fingerprint, "summary", {"peak_active_devices": 3})
    service = StudyService(store)
    result = service.query_fingerprint(fingerprint)
    assert result.served == ("summary",)
    assert result.payloads["summary"] == {"peak_active_devices": 3}


def test_summary_payload_matches_metric_keys(populated_store, ci_config):
    from repro.analysis.summary import SummaryStats

    service = StudyService(populated_store)
    summary = service.query(ci_config, names=("summary",)).payloads["summary"]
    assert set(SummaryStats.METRIC_KEYS) <= set(summary)


def test_corrupt_artifact_is_quarantined_and_recomputed(tmp_path, ci_config):
    """A torn envelope never reaches the caller: the service moves it
    aside, recomputes the study, and restores a good entry."""
    store = ArtifactStore(str(tmp_path))
    service = StudyService(store)
    first = service.query(ci_config, names=("summary",))
    fingerprint = first.fingerprint
    with open(store.entry_path(fingerprint, "summary"), "w") as fileobj:
        fileobj.write('{"payload": {"pea')  # torn mid-write

    result = service.query(ci_config, names=("summary",))
    assert "peak_active_devices" in result.payloads["summary"]
    assert "summary" in result.computed
    assert service.counters["artifacts_recovered"] == 1
    assert store.counters["entries_quarantined"] == 1
    # The quarantined bytes are kept for post-mortem...
    quarantined = os.listdir(os.path.join(store.root, "quarantine"))
    assert quarantined == [f"{fingerprint[:12]}-summary.json"]
    # ...and the store now holds a clean envelope again.
    assert store.get(fingerprint, "summary") == result.payloads["summary"]


def test_corrupt_artifact_without_compute_is_just_missing(
        tmp_path, ci_config):
    store = ArtifactStore(str(tmp_path))
    service = StudyService(store)
    first = service.query(ci_config, names=("summary",))
    with open(store.entry_path(first.fingerprint, "summary"), "w") as fp:
        fp.write("garbage")

    result = service.query(ci_config, names=("summary",),
                           compute=False)
    assert result.payloads == {}
    assert service.counters["artifacts_recovered"] == 0
    assert store.counters["entries_quarantined"] == 1


def test_query_fingerprint_never_raises_on_corrupt_entries(tmp_path):
    """Meta-less fingerprints cannot be recomputed; a corrupt entry is
    quarantined and simply absent from the answer."""
    store = ArtifactStore(str(tmp_path))
    fingerprint = "ef" * 32
    store.put(fingerprint, "summary", {"peak_active_devices": 3})
    store.put(fingerprint, "fig1", {"total": [1]})
    with open(store.entry_path(fingerprint, "fig1"), "w") as fileobj:
        fileobj.write('[not json')

    service = StudyService(store)
    result = service.query_fingerprint(fingerprint)
    assert result.served == ("summary",)
    assert "fig1" not in result.payloads
    assert store.counters["entries_quarantined"] == 1
    assert not store.has(fingerprint, "fig1")


def test_racing_quarantines_count_the_entry_once(tmp_path):
    """Two readers that both saw a corrupt entry: the first moves it
    aside, the second finds the slot already free."""
    store = ArtifactStore(str(tmp_path))
    fingerprint = "ef" * 32
    store.put(fingerprint, "summary", {"peak_active_devices": 3})
    with open(store.entry_path(fingerprint, "summary"), "w") as fileobj:
        fileobj.write("garbage")
    with pytest.raises(StoreIntegrityError) as excinfo:
        store.get(fingerprint, "summary")

    service = StudyService(store)
    service.quarantine_corrupt(fingerprint, "summary", excinfo.value)
    service.quarantine_corrupt(fingerprint, "summary", excinfo.value)
    assert store.counters["entries_quarantined"] == 1
    assert not store.has(fingerprint, "summary")


def test_outcomes_payload_shape(populated_store, ci_config):
    from repro.analysis.expectations import paper_expectations

    service = StudyService(populated_store)
    outcomes = service.query(ci_config, names=("outcomes",)).payloads["outcomes"]
    assert outcomes["schema"] == 1
    assert sorted(outcomes["outcomes"]) == sorted(
        expectation.expectation_id for expectation in paper_expectations())
    statuses = {entry["status"] for entry in outcomes["outcomes"].values()}
    assert statuses <= {"PASS", "FAIL", "SKIP"}
    assert (sum(outcomes["counts"].values())
            == len(outcomes["outcomes"]))


def test_compute_on_a_request_thread_never_forks(tmp_path, monkeypatch):
    """``repro serve`` computes on a request thread while its other
    threads run; forking there could hand a child a lock another thread
    holds. The day pool refuses, so the compute forks no process. From
    the main thread alone the same compute does use the pool, so the
    check is not vacuous."""
    import threading

    from repro.synth import generator

    forks = []
    real_fork = os.fork

    def fork():
        forks.append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    # A pool would be used on any multi-CPU host.
    monkeypatch.setattr(generator, "_usable_cpus", lambda: 2)
    service = StudyService(ArtifactStore(str(tmp_path)))
    config = StudyConfig.chaos_scale()
    results = []
    request = threading.Thread(
        target=lambda: results.append(service.query(config)))
    request.start()
    request.join(timeout=600)
    assert not request.is_alive()
    assert results and results[0].computed
    assert forks == []

    salted = StudyConfig.from_payload(
        {**config.to_payload(), "anonymization_salt": "main-thread"})
    alone = threading.active_count() == 1
    assert service.query(salted).computed
    if alone:  # a thread another test left running would also refuse
        assert forks and set(forks) == {1}
