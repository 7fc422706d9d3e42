"""Three guarantees the published results rest on, checked on real runs.

* **How a study is run never changes its outputs.** The store keys
  every artifact by a fingerprint that leaves out the settings in
  ``NON_SEMANTIC_FIELDS``, so a setting -- or an entry point -- that
  changed the bytes would serve one run's results under another run's
  key. A plain study run and a journaled run of one config must
  therefore publish the same bytes under the same key.
* **Outputs do not depend on hash or directory order.** A seeded run
  gives the same bytes under any ``PYTHONHASHSEED`` and any order the
  filesystem lists entries in.
* **Every write goes through the atomic chokepoint.** A reader never
  sees a torn artifact because each durable write is staged to a
  ``.tmp`` sibling and renamed into place by
  :mod:`repro.reliability.atomic`, or is a journal append whose torn
  tail replay discards. The few other writes are named in
  :data:`WRITE_ALLOW_LIST` with the reason each one is safe.

The second and third checks run ``runtime_probe.py`` in a fresh
interpreter at ``StudyConfig.chaos_scale()``.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from repro import LockdownStudy, StudyConfig
from repro.core.report import render_full_report
from repro.core.runner import JournaledRun
from repro.pipeline.store import load_dataset, load_stats, save_dataset
from repro.reliability.atomic import TMP_MARKER, tmp_path_for
from repro.reliability.coverage import CoverageReport
from repro.reliability.journal import JOURNAL_FILE, replay
from repro.serve.fingerprint import (
    NON_SEMANTIC_FIELDS,
    canonical_json,
    study_fingerprint,
)
from repro.serve.service import artifact_json, artifact_names
from repro.serve.store import ArtifactStore
from tests.integration.published import published_outputs

REPO_ROOT = Path(__file__).resolve().parents[2]
PROBE = Path(__file__).resolve().with_name("runtime_probe.py")

#: Keys of retired sharded ingest that older config payloads and
#: committed baselines still carry; they must fingerprint as if absent.
_RETIRED_KEYS = {"max_shard_retries": 3, "workers": 2,
                 "shard_deadline": 60.0}

#: Writes that are neither staged nor journal appends, keyed by
#: ``(op, "module:function")`` of the ``repro`` frame that made them.
#: Every entry must be reached by the audited runs, so none goes stale.
WRITE_ALLOW_LIST = {
    ("open", "repro.reliability.journal:create"):
        "journal creation: the log starts as an empty append-only "
        "file, and fsync_dir makes its directory entry durable",
    ("rename", "repro.serve.store:quarantine"):
        "moving a corrupt store entry aside: the entry is already "
        "sealed, and os.replace is atomic on its own",
    ("open", "repro.reliability.crashmatrix:_run_cli"):
        "the crash matrix's live capture of a CLI run's output: it must "
        "hold what the run wrote up to the SIGKILL it records, which a "
        "staged file renamed afterwards would lose",
}


def _probe(mode, out_dir, *args, hash_seed="0"):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), str(REPO_ROOT),
                      env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = hash_seed
    # Bytecode caching is the interpreter's own write; keep it out of
    # the audit log.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    result = subprocess.run(
        [sys.executable, str(PROBE), mode, str(out_dir), *args],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _file_bytes(path):
    with open(path, "rb") as fileobj:
        return fileobj.read()


def test_operational_settings_do_not_change_outputs(tmp_path):
    # No StudyConfig field is operational: a new one must get a check
    # here that its values publish the same bytes.
    config_fields = {spec.name for spec in dataclasses.fields(StudyConfig)}
    assert not config_fields & NON_SEMANTIC_FIELDS
    # At chaos scale's own visitor_min_days the filter keeps every
    # device; five days drops some, so the filter's re-indexing is
    # compared between the two paths too.
    config = dataclasses.replace(StudyConfig.chaos_scale(),
                                 visitor_min_days=5)
    legacy = {**config.to_payload(), **_RETIRED_KEYS}
    assert study_fingerprint(legacy) == study_fingerprint(config)
    assert StudyConfig.from_payload(legacy) == config

    plain = LockdownStudy(config).run()
    journaled = JournaledRun.start(str(tmp_path / "journal"),
                                   config).execute()
    assert journaled.fingerprint == study_fingerprint(config)
    (ingest,) = [record.payload["info"] for record in
                 replay(os.path.join(journaled.run_dir,
                                     JOURNAL_FILE)).records
                 if record.kind == "stage_end"
                 and record.payload["stage"] == "ingest"]
    assert 1 <= ingest["devices_kept"] < ingest["devices"]
    assert plain.dataset.n_devices == ingest["devices_kept"]

    # What the journaled run published: report, artifact files, store.
    assert journaled.report_text == render_full_report(plain) + "\n"
    store = ArtifactStore(journaled.store_root)
    for name in artifact_names():
        payload = canonical_json(artifact_json(plain, name))
        path = os.path.join(journaled.run_dir, "artifacts", name + ".json")
        assert _file_bytes(path).decode("utf-8") == payload + "\n", name
        assert canonical_json(store.get(journaled.fingerprint, name)) \
            == payload, name

    # Its dataset is the plain run's, saved as it is.
    expected = str(tmp_path / "plain-filtered.npz")
    save_dataset(plain.dataset, expected)
    saved = os.path.join(journaled.run_dir, "filtered.npz")
    for suffix in ("", ".meta.json"):
        assert _file_bytes(saved + suffix) == \
            _file_bytes(expected + suffix), suffix

    # Rebuilt from those files, it publishes every other output too.
    with open(os.path.join(journaled.run_dir,
                           "merged.coverage.json")) as fileobj:
        coverage = CoverageReport.from_json(json.load(fileobj))
    rebuilt = LockdownStudy.artifacts_from_dataset(
        config, load_dataset(os.path.join(journaled.run_dir,
                                          "filtered.npz")),
        coverage=coverage, pipeline_stats=load_stats(
            os.path.join(journaled.run_dir, "merged.stats.json")))
    outputs = published_outputs(plain, None, str(tmp_path / "plain"))
    other_outputs = published_outputs(rebuilt, None,
                                      str(tmp_path / "rebuilt"))
    assert "Figure 1" in outputs["report"]
    assert "sidecar:filtered" in outputs
    assert set(outputs) == set(other_outputs)
    differing = sorted(name for name in outputs
                       if outputs[name] != other_outputs[name])
    assert differing == []


def test_outputs_ignore_hash_seed_and_listing_order(tmp_path):
    plain = json.loads(_probe("digests", tmp_path / "plain", hash_seed="1"))
    shuffled = json.loads(_probe("digests", tmp_path / "shuffled",
                                 "--reverse-listings", hash_seed="2"))
    assert "report.txt" in plain
    assert any(name.startswith("store") for name in plain)
    differing = sorted(name for name in set(plain) | set(shuffled)
                       if plain.get(name) != shuffled.get(name))
    assert differing == []


def _unsanctioned_writes(records):
    """Records, in log order, that are not staged writes, journal
    appends or allow-listed; also the allow-list keys they reached.

    A staged write is an open of a ``.tmp`` path that
    :mod:`repro.reliability.atomic` later renames onto the path it
    stages; a staged file never renamed counts as unsanctioned.
    """
    pending = {}
    reached = set()
    unsanctioned = []
    for record in records:
        path = record["path"]
        if record["op"] == "open":
            if TMP_MARKER in os.path.basename(path):
                pending[path] = record
                continue
            if (record["caller"] == "repro.reliability.atomic:append_line"
                    and os.path.basename(path) == JOURNAL_FILE):
                continue
        elif (path in pending
              and record["caller"].startswith("repro.reliability.atomic:")
              and tmp_path_for(record["target"]) == path):
            del pending[path]
            continue
        key = (record["op"], record["caller"])
        if key in WRITE_ALLOW_LIST:
            reached.add(key)
        else:
            unsanctioned.append(record)
    return unsanctioned + list(pending.values()), reached


def test_every_write_goes_through_the_atomic_chokepoint(tmp_path):
    _probe("audit", tmp_path)
    with open(tmp_path / "writes.jsonl") as fileobj:
        records = [json.loads(line) for line in fileobj]
    unsanctioned, reached = _unsanctioned_writes(records)
    assert unsanctioned == []
    assert reached == set(WRITE_ALLOW_LIST)
    # The audit saw real staged writes from numpy and the text writer,
    # and the journal appends, so the pass above is not vacuous.
    callers = {record["caller"] for record in records}
    assert {"repro.pipeline.store:save_dataset",
            "repro.reliability.atomic:write_bytes",
            "repro.reliability.atomic:append_line"} <= callers
