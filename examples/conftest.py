"""Fixtures for the example modules' tests.

They share the test suite's mini study (30 students, seed 11):
``tests/conftest.py`` runs it at most once per process, whichever suite
asks first.
"""

import pytest

from tests.conftest import mini_ground_truth, mini_study


@pytest.fixture(scope="session")
def mini_artifacts():
    return mini_study()


@pytest.fixture(scope="session")
def ground_truth():
    return mini_ground_truth()
