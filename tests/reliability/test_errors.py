"""Taxonomy tests: classification and compatibility contracts."""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.reliability.errors import (
    CATEGORY_JSON,
    RecordError,
    ReliabilityError,
    TransientIOError,
    is_transient,
)


class TestRecordError:
    def test_is_a_value_error(self):
        """Pre-taxonomy callers catch ValueError; that must keep working."""
        error = RecordError("bad", source="conn", category=CATEGORY_JSON)
        assert isinstance(error, ValueError)
        assert isinstance(error, ReliabilityError)

    def test_carries_structured_context(self):
        error = RecordError("bad", source="dhcp", category=CATEGORY_JSON,
                            line_no=7, line="{trunc")
        assert error.source == "dhcp"
        assert error.category == CATEGORY_JSON
        assert error.line_no == 7
        assert error.line == "{trunc"

    def test_never_transient(self):
        """Bad bytes do not improve on retry."""
        assert not is_transient(
            RecordError("bad", source="conn", category=CATEGORY_JSON))


class TestTransientClassification:
    @pytest.mark.parametrize("exc", [
        TransientIOError("flaky disk"),
        BrokenProcessPool("worker died"),
        OSError("connection reset"),
    ])
    def test_retryable_failures(self, exc):
        assert is_transient(exc)

    @pytest.mark.parametrize("exc", [
        ValueError("bad input"),
        KeyError("missing"),
        RuntimeError("logic bug"),
        AssertionError("invariant"),
    ])
    def test_fatal_failures(self, exc):
        assert not is_transient(exc)

    def test_taxonomy_flag_wins(self):
        """A ReliabilityError's own flag overrides the OSError heuristic."""
        class FatalIO(ReliabilityError, OSError):
            transient = False
        assert not is_transient(FatalIO("corrupt superblock"))
