"""Three guarantees the published results rest on, checked on real runs.

* **Operational settings never change outputs.** The store keys every
  artifact by a fingerprint that leaves out the settings in
  ``NON_SEMANTIC_FIELDS``, so a setting that changed the bytes would
  serve one run's results under another run's key.
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
from repro.reliability.atomic import TMP_MARKER, tmp_path_for
from repro.reliability.journal import JOURNAL_FILE
from repro.serve.fingerprint import NON_SEMANTIC_FIELDS, study_fingerprint
from tests.integration.published import published_outputs

REPO_ROOT = Path(__file__).resolve().parents[2]
PROBE = Path(__file__).resolve().with_name("runtime_probe.py")

#: Two values for each ``StudyConfig`` field the fingerprint leaves out.
_OPERATIONAL_VALUES = {"max_shard_retries": (0, 3)}

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
    ("open", "repro.reliability.watchdog:write_heartbeat"):
        "a shard worker's heartbeat: an ephemeral file in a private "
        "temp dir that the watchdog compares by content only, so a "
        "torn write reads as no progress",
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


def test_operational_settings_do_not_change_outputs(tmp_path):
    config_fields = {spec.name for spec in dataclasses.fields(StudyConfig)}
    assert set(_OPERATIONAL_VALUES) == config_fields & NON_SEMANTIC_FIELDS
    # ``workers`` is not a config field; tests/pipeline/test_parallel.py
    # pins serial == parallel for it.
    base = StudyConfig.chaos_scale()
    for field, values in _OPERATIONAL_VALUES.items():
        runs = {}
        for value in values:
            config = dataclasses.replace(base, **{field: value})
            # Two workers, so the sharded path that reads the retry
            # budget actually runs.
            artifacts = LockdownStudy(config).run(workers=2)
            runs[value] = (study_fingerprint(config), published_outputs(
                artifacts, str(tmp_path / f"{field}-{value}")))
        (key, outputs), (other_key, other_outputs) = runs.values()
        assert key == other_key
        assert "Figure 1" in outputs["report"]
        differing = sorted(name for name in outputs
                           if outputs[name] != other_outputs.get(name))
        assert set(outputs) == set(other_outputs)
        assert differing == [], f"{field} changes {differing}"


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
