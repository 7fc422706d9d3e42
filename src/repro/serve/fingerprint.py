"""The store's content key: fingerprints of semantic study inputs.

A study run is fully determined by its :class:`~repro.config.
StudyConfig` (every simulation and pipeline decision derives from it)
plus the *scenario* -- which arm of the study ran (the lock-down
study, the no-pandemic counterfactual, ...). Everything else a caller
may pass around a run -- journal directories, output paths,
progress hooks -- changes how fast or where a run executes, never what
it computes, and is therefore excluded from the key.

The fingerprint is the SHA-256 of a canonical JSON encoding (sorted
keys, no whitespace), so it is insensitive to mapping order and stable
across processes and platforms. Property tests in
``tests/serve/test_fingerprint.py`` pin all three contracts:
order-insensitivity, sensitivity to every semantic field, and
indifference to the non-semantic knobs.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Union

from repro.config import StudyConfig

#: Fingerprint schema version: bump when the payload shape changes so
#: old store entries can never be served for a new key layout.
SCHEMA_VERSION = 1

#: The scenario of a plain ``LockdownStudy.run``.
DEFAULT_SCENARIO = "lockdown-2020"

#: Config/run knobs that do not change study *results* and are
#: excluded from the fingerprint: filesystem locations, progress
#: plumbing, and the execution-shape keys of retired sharded ingest
#: (``max_shard_retries``, ``workers``, ``shard_deadline``), which
#: older config payloads and committed baselines still carry and
#: which must keep fingerprinting as they always did.
NON_SEMANTIC_FIELDS = frozenset({
    "max_shard_retries",
    "workers",
    "resume",
    "shard_deadline",
    "out",
    "store",
    "store_root",
    "baseline",
    "report_out",
    "progress",
})

ConfigLike = Union[StudyConfig, Mapping[str, Any]]


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def fingerprint_payload(config: ConfigLike,
                        scenario: str = DEFAULT_SCENARIO) -> Dict[str, Any]:
    """The exact mapping that gets hashed (useful for debugging/meta).

    Accepts either a :class:`StudyConfig` or a plain mapping of its
    fields; non-semantic keys are dropped, tuples normalized to lists.
    """
    mapping: Mapping[str, Any]
    if isinstance(config, StudyConfig):
        mapping = config.to_payload()
    else:
        mapping = config
    semantic = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in mapping.items()
        if key not in NON_SEMANTIC_FIELDS
    }
    return {"schema": SCHEMA_VERSION, "scenario": scenario,
            "config": semantic}


def study_fingerprint(config: ConfigLike,
                      scenario: str = DEFAULT_SCENARIO) -> str:
    """Hex SHA-256 content key for one (config, scenario) study."""
    encoded = canonical_json(fingerprint_payload(config, scenario))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
