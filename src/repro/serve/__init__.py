"""Results serving: artifact store, query service, and regression gate.

``repro.serve`` turns a finished study from "scripts that print
figures" into a queryable serving system:

* :mod:`repro.serve.fingerprint` -- the content key: a stable hash of
  the *semantic* study configuration plus scenario name.
* :mod:`repro.serve.store` -- :class:`ArtifactStore`, the on-disk
  content-addressed store of serialized figure/summary/outcome
  artifacts, one directory per fingerprint.
* :mod:`repro.serve.service` -- :class:`StudyService`, the
  cache-or-compute layer: serve what the store has, compute what it
  lacks (through ``StudyArtifacts.compute_all``), and count
  both so tests can assert "second query never recomputes".
* :mod:`repro.serve.server` -- a small stdlib HTTP front end over the
  store/service (``repro serve``).
* :mod:`repro.serve.resilience` -- the overload machinery behind it:
  per-request :class:`Deadline`, bounded :class:`AdmissionGate`
  (429/503 shedding), :class:`Singleflight` compute coalescing, the
  compute :class:`CircuitBreaker` and the :class:`ResiliencePolicy`
  knob bundle.
* :mod:`repro.serve.evaluate` -- the ``repro eval`` regression
  harness: compare expectation outcomes and summary aggregates
  against a committed golden baseline with per-metric tolerances.

The package is part of the typed core (strict mypy + lint RL006) and
contains no clocks or RNG: timestamps are injected by the CLI.
"""

from repro.serve.evaluate import (
    REGRESSED,
    EvalRecord,
    EvalReport,
    Tolerance,
    compare_to_baseline,
    drop_coverage_day,
    load_baseline,
    make_baseline,
    save_baseline,
)
from repro.serve.fingerprint import (
    DEFAULT_SCENARIO,
    NON_SEMANTIC_FIELDS,
    canonical_json,
    fingerprint_payload,
    study_fingerprint,
)
from repro.serve.resilience import (
    AdmissionGate,
    Deadline,
    ResiliencePolicy,
    Singleflight,
)
from repro.serve.serialize import artifact_payload
from repro.serve.server import ArtifactServer
from repro.serve.service import QueryResult, StudyService
from repro.serve.store import ArtifactStore, StoreIntegrityError

__all__ = [
    "AdmissionGate",
    "ArtifactServer",
    "ArtifactStore",
    "DEFAULT_SCENARIO",
    "Deadline",
    "EvalRecord",
    "EvalReport",
    "NON_SEMANTIC_FIELDS",
    "QueryResult",
    "REGRESSED",
    "ResiliencePolicy",
    "Singleflight",
    "StoreIntegrityError",
    "StudyService",
    "Tolerance",
    "artifact_payload",
    "canonical_json",
    "compare_to_baseline",
    "drop_coverage_day",
    "fingerprint_payload",
    "load_baseline",
    "make_baseline",
    "save_baseline",
    "study_fingerprint",
]
