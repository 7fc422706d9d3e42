"""The on-disk artifact store: content-addressed, integrity-checked.

Layout (one directory per study fingerprint, sharded by prefix so a
store with thousands of runs keeps directory listings short)::

    <root>/objects/<fp[:2]>/<fp>/meta.json   # scenario + config payload
    <root>/objects/<fp[:2]>/<fp>/fig1.json   # one envelope per artifact
    ...                          summary.json
                                 outcomes.json
    <root>/quarantine/<fp>-<name>.json       # corrupt entries, moved aside

Every artifact file is an *envelope*: one line of compact JSON that
names its slot and records the SHA-256 of the payload's canonical
encoding, followed by that encoding itself::

    {"fingerprint":"<fp>","name":"<name>","sha256":"<hex>","payload":<canonical payload>}

The payload is encoded once, on :meth:`ArtifactStore.put`, and the
digest is taken over exactly the bytes that land on disk.
:meth:`ArtifactStore.get` checks the header against the slot it reads,
hashes the stored payload bytes and parses them only when the hash
matches; any other layout (torn, hand-edited, written for another
slot, or written by an older store) raises
:class:`StoreIntegrityError`, so such an entry can never be served as a
result -- callers quarantine it and recompute.

Durability goes through the atomic-write chokepoint
(:mod:`repro.reliability.atomic`): envelopes are staged, fsync'd and
renamed, so a crashed writer leaves either the old entry or none.
Opening a store sweeps any staged-write orphans a crash left behind
(counted in :attr:`ArtifactStore.counters`), and writes retried under
an optional :class:`~repro.reliability.retry.RetryPolicy` survive
transient filesystem faults (``ENOSPC``, failing fsync) with exact
retry accounting.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from typing import Any, Callable, Dict, List, Optional

from repro.reliability.atomic import sweep_orphans, write_bytes
from repro.reliability.retry import RetryPolicy, run_with_retries
from repro.serve.fingerprint import canonical_json

#: Artifact names are path components; keep them boring.
_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_\-]{0,63}$")
_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{8,64}$")

_META_FILE = "meta.json"

_QUARANTINE_DIR = "quarantine"

SleepFn = Callable[[float], None]


class StoreIntegrityError(RuntimeError):
    """A stored artifact failed its content-hash check (or is torn)."""


_HEX_DIGEST_RE = re.compile(rb"[0-9a-f]{64}")

#: Bytes between the recorded digest and the payload, and after it.
_PAYLOAD_KEY = b'","payload":'
_TRAILER = b"}\n"


def _envelope_head(fingerprint: str, name: str) -> bytes:
    """The envelope bytes before the digest, for one store slot."""
    return (f'{{"fingerprint":"{fingerprint}","name":"{name}",'
            f'"sha256":"').encode("ascii")


def _refusal(fingerprint: str, name: str,
             data: bytes) -> StoreIntegrityError:
    """The error for bytes that are not this slot's envelope; they are
    parsed only to say how the entry is broken."""
    where = f"artifact {name!r} of {fingerprint[:12]}"
    try:
        envelope = json.loads(data)
    except ValueError as exc:
        return StoreIntegrityError(f"{where} is torn: {exc}")
    if not isinstance(envelope, dict):
        return StoreIntegrityError(f"{where} is not an envelope")
    return StoreIntegrityError(
        f"{where} is corrupt: not this slot's canonical envelope")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid artifact name {name!r}")
    return name


def _check_fingerprint(fingerprint: str) -> str:
    if not _FINGERPRINT_RE.match(fingerprint):
        raise ValueError(f"invalid fingerprint {fingerprint!r}")
    return fingerprint


class ArtifactStore:
    """Content-addressed study artifacts under one root directory."""

    def __init__(self, root: str, *,
                 retry_policy: Optional[RetryPolicy] = None,
                 sleep: SleepFn = time.sleep) -> None:
        self.root = root
        self.retry_policy = retry_policy
        self._sleep = sleep
        #: Recovery accounting: staged-write orphans swept at open,
        #: write retries consumed, corrupt entries quarantined. Never
        #: silent -- ``repro query`` surfaces these via the service.
        self.counters: Dict[str, int] = {
            "orphans_swept": 0,
            "write_retries": 0,
            "entries_quarantined": 0,
        }
        objects = os.path.join(root, "objects")
        if os.path.isdir(objects):
            self.counters["orphans_swept"] = sweep_orphans(
                objects, recursive=True)

    # -- paths ----------------------------------------------------------

    def _run_dir(self, fingerprint: str) -> str:
        fingerprint = _check_fingerprint(fingerprint)
        return os.path.join(self.root, "objects", fingerprint[:2],
                            fingerprint)

    def entry_path(self, fingerprint: str, name: str) -> str:
        return os.path.join(self._run_dir(fingerprint),
                            _check_name(name) + ".json")

    def _write(self, path: str, data: bytes) -> None:
        """One envelope write: atomic, retried if a policy is set."""
        if self.retry_policy is None:
            write_bytes(path, data)
            return

        def count_retry(attempt: int, exc: BaseException,
                        delay: float) -> None:
            self.counters["write_retries"] += 1

        run_with_retries(self.retry_policy,
                         lambda: write_bytes(path, data),
                         sleep=self._sleep, on_retry=count_retry)

    # -- run metadata ---------------------------------------------------

    def put_meta(self, fingerprint: str, meta: Dict[str, Any]) -> None:
        """Record the (scenario, config payload, ...) behind a key."""
        run_dir = self._run_dir(fingerprint)
        os.makedirs(run_dir, exist_ok=True)
        self._write(os.path.join(run_dir, _META_FILE),
                    (json.dumps(meta, indent=2, sort_keys=True)
                     + "\n").encode("utf-8"))

    def get_meta(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        path = os.path.join(self._run_dir(fingerprint), _META_FILE)
        if not os.path.exists(path):
            return None
        with open(path) as fileobj:
            loaded = json.load(fileobj)
        assert isinstance(loaded, dict)
        return loaded

    # -- artifacts ------------------------------------------------------

    def put(self, fingerprint: str, name: str, payload: Any) -> str:
        """Store one artifact payload; returns its content hash."""
        run_dir = self._run_dir(fingerprint)
        os.makedirs(run_dir, exist_ok=True)
        encoded = canonical_json(payload).encode("utf-8")
        digest = hashlib.sha256(encoded).hexdigest()
        self._write(self.entry_path(fingerprint, name),
                    b"".join((_envelope_head(fingerprint, name),
                              digest.encode("ascii"), _PAYLOAD_KEY,
                              encoded, _TRAILER)))
        return digest

    def get(self, fingerprint: str, name: str) -> Any:
        """Load one artifact payload, verifying its content hash.

        Raises :class:`StoreIntegrityError` for *any* entry that cannot
        be served as written -- torn envelopes, envelopes of another
        slot or layout, and hash mismatches alike -- and
        ``FileNotFoundError`` only when the entry genuinely does not
        exist.
        """
        path = self.entry_path(fingerprint, name)
        with open(path, "rb") as fileobj:
            data = fileobj.read()
        head = _envelope_head(fingerprint, name)
        key_at = len(head) + 64
        recorded = data[len(head):key_at]
        if not (data.startswith(head)
                and _HEX_DIGEST_RE.fullmatch(recorded)
                and data.startswith(_PAYLOAD_KEY, key_at)
                and data.endswith(_TRAILER)):
            raise _refusal(fingerprint, name, data)
        encoded = data[key_at + len(_PAYLOAD_KEY):-len(_TRAILER)]
        actual = hashlib.sha256(encoded).hexdigest()
        if recorded != actual.encode("ascii"):
            raise StoreIntegrityError(
                f"artifact {name!r} of {fingerprint[:12]} is corrupt: "
                f"recorded sha256 {recorded.decode('ascii')} != "
                f"recomputed {actual}")
        try:
            return json.loads(encoded)
        except ValueError as exc:
            # Only a digest forged over bad bytes gets here.
            raise StoreIntegrityError(
                f"artifact {name!r} of {fingerprint[:12]} is corrupt: "
                f"{exc}") from exc

    def quarantine(self, fingerprint: str, name: str) -> str:
        """Move a corrupt entry aside; returns its quarantine path.

        The entry is preserved for post-mortem inspection (never
        silently deleted) and its slot freed so a recompute can store
        a good envelope.
        """
        source = self.entry_path(fingerprint, name)
        directory = os.path.join(self.root, _QUARANTINE_DIR)
        os.makedirs(directory, exist_ok=True)
        target = os.path.join(directory, f"{fingerprint[:12]}-{name}.json")
        # The one write here outside the atomic chokepoint: the entry
        # is already sealed and os.replace is atomic on its own (see
        # WRITE_ALLOW_LIST in tests/integration/test_runtime_invariants.py).
        os.replace(source, target)
        self.counters["entries_quarantined"] += 1
        return target

    def has(self, fingerprint: str, name: str) -> bool:
        return os.path.exists(self.entry_path(fingerprint, name))

    def reachable(self) -> bool:
        """Whether the store's root is usable (the readiness probe).

        A fresh root that does not exist yet counts as reachable when
        it can be created (``put`` creates directories lazily); an
        unwritable or uncreatable root does not.
        """
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError:
            return False
        return os.access(self.root, os.W_OK | os.X_OK)

    def artifact_names(self, fingerprint: str) -> List[str]:
        """Artifacts present for one fingerprint, sorted by name."""
        run_dir = self._run_dir(fingerprint)
        if not os.path.isdir(run_dir):
            return []
        names = []
        for entry in sorted(os.listdir(run_dir)):
            if not entry.endswith(".json") or entry == _META_FILE:
                continue
            names.append(entry[:-len(".json")])
        return sorted(names)

    def fingerprints(self) -> List[str]:
        """Every study fingerprint with a directory in the store."""
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return []
        found = []
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for fingerprint in sorted(os.listdir(shard_dir)):
                if _FINGERPRINT_RE.match(fingerprint):
                    found.append(fingerprint)
        return found
