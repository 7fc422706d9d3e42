"""Pin the study's artifact enumeration -- the results store's contract.

``StudyArtifacts.ANALYSES`` is what the serve layer enumerates, stores
and fingerprints per study. Changing it (adding an analysis, renaming
a figure) must be a conscious, reviewed act: these tests pin the exact
key set and the documented key order of ``compute_all``.
"""

import inspect

from repro.core.study import StudyArtifacts

PINNED_ANALYSES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
                   "fig7", "fig8", "summary")


def test_analyses_tuple_is_pinned():
    assert StudyArtifacts.ANALYSES == PINNED_ANALYSES
    assert StudyArtifacts.artifact_names() == PINNED_ANALYSES


def test_every_analysis_is_a_zero_arg_method():
    for name in StudyArtifacts.ANALYSES:
        method = getattr(StudyArtifacts, name)
        assert callable(method), name
        parameters = inspect.signature(method).parameters
        assert list(parameters) == ["self"], name


def test_compute_all_key_order_and_memoized(mini_artifacts):
    first = mini_artifacts.compute_all()
    assert tuple(first) == PINNED_ANALYSES
    # A second call returns the same cached objects: compute_all never
    # recomputes a memoized analysis.
    second = mini_artifacts.compute_all()
    for name in PINNED_ANALYSES:
        assert first[name] is second[name]


def test_serve_enumeration_extends_analyses():
    from repro.serve.service import DERIVED_ARTIFACTS, artifact_names

    assert artifact_names() == PINNED_ANALYSES + DERIVED_ARTIFACTS
