"""Shared fixtures: one small end-to-end study reused across suites.

The mini study (30 students over the full four-month window) takes about
a minute to synthesize and measure. It is built lazily and at most once
per process: the example modules' tests (``examples/conftest.py``) reach
the same run through :func:`mini_study`, so a whole-tree run pays for it
once, and unit-test-only runs never do.
"""

from __future__ import annotations

import functools

import pytest

from repro import LockdownStudy, StudyConfig
from repro.core.study import _ingest, _silent
from repro.core.validation import GroundTruthMatcher
from repro.synth.generator import CampusTraceGenerator

MINI_CONFIG = StudyConfig(n_students=30, seed=11)


@functools.lru_cache(maxsize=None)
def mini_study():
    """A complete study run at miniature scale."""
    return LockdownStudy(MINI_CONFIG).run()


def ingest_unfiltered(config):
    """A study's dataset before the visitor filter.

    The study's filter consumes that table, so suites that inspect it
    measure the same window again through the study's own ingest.
    """
    return _ingest(config, CampusTraceGenerator(config), _silent)[0]


@functools.lru_cache(maxsize=None)
def mini_ingest():
    """The mini study's dataset before the visitor filter."""
    return ingest_unfiltered(MINI_CONFIG)


@functools.lru_cache(maxsize=None)
def mini_ground_truth():
    """Map analysis-side device indices back to simulation truth.

    Returns (device_index -> SimDevice, device_index -> StudentPersona)
    for every simulated device that survived into the filtered dataset.
    """
    matcher = GroundTruthMatcher(mini_study())
    return matcher._device_of, matcher._persona_of


@pytest.fixture(scope="session")
def mini_config():
    return MINI_CONFIG


@pytest.fixture(scope="session")
def mini_artifacts():
    return mini_study()


@pytest.fixture(scope="session")
def mini_unfiltered():
    return mini_ingest()


@pytest.fixture(scope="session")
def ground_truth():
    return mini_ground_truth()
