"""Shared benchmark fixtures.

One bench-scale study run (40 students, full four-month window) is
synthesized once per session and reused by every figure benchmark; the
benchmarks then measure the *analysis* stage, which is what the paper's
evaluation pipeline re-runs per figure.
"""

from __future__ import annotations

import pytest

from repro import LockdownStudy, StudyConfig
from repro.core import report

BENCH_CONFIG = StudyConfig(n_students=40, seed=2021)


@pytest.fixture(scope="session")
def artifacts():
    """A complete bench-scale study run (generated once)."""
    return LockdownStudy(BENCH_CONFIG).run()


@pytest.fixture(scope="session")
def dataset(artifacts):
    return artifacts.dataset


def print_once(title: str, text: str) -> None:
    """Emit a figure rendering alongside its benchmark."""
    print(f"\n=== {title} ===")
    print(text)
