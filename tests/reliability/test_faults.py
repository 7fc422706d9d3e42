"""Fault-injector tests: determinism and the corruption vocabulary."""

import json
from types import SimpleNamespace

import pytest

from repro.reliability.faults import (
    CORRUPTION_KINDS,
    FaultPlan,
    corrupt_log_lines,
)


class TestFaultPlan:
    def test_empty_plan_is_inert(self):
        """No planned gap: the day trace passes through as the same
        object, so a clean run's ingest is untouched."""
        trace = SimpleNamespace(day_start=0.0)
        assert FaultPlan().drop_log_span(trace) is trace


class TestLogCorruption:
    LINES = [json.dumps({"ts": float(i), "payload": "x" * 20})
             for i in range(200)]

    def test_deterministic_under_seed(self):
        first = corrupt_log_lines(self.LINES, 0.3, seed=5)
        second = corrupt_log_lines(self.LINES, 0.3, seed=5)
        assert first == second

    def test_zero_rate_is_identity(self):
        lines, touched = corrupt_log_lines(self.LINES, 0.0, seed=5)
        assert lines == self.LINES
        assert touched == []

    def test_full_rate_touches_everything(self):
        lines, touched = corrupt_log_lines(self.LINES, 1.0, seed=5)
        assert touched == list(range(len(self.LINES)))
        assert all(a != b for a, b in zip(lines, self.LINES))

    def test_untouched_lines_survive_verbatim(self):
        lines, touched = corrupt_log_lines(self.LINES, 0.25, seed=5)
        touched_set = set(touched)
        for index, (out, original) in enumerate(zip(lines, self.LINES)):
            if index not in touched_set:
                assert out == original

    def test_every_kind_is_exercised(self):
        lines, touched = corrupt_log_lines(self.LINES, 1.0, seed=5)
        assert len(touched) >= len(CORRUPTION_KINDS)

    def test_corrupted_lines_fail_json_or_schema(self):
        """Every corruption must actually be malformed for our readers:
        not a JSON object, or an object missing the 'ts' field."""
        lines, touched = corrupt_log_lines(self.LINES, 1.0, seed=5)
        for index in touched:
            try:
                payload = json.loads(lines[index])
            except ValueError:
                continue
            assert not isinstance(payload, dict) or "ts" not in payload

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            corrupt_log_lines(self.LINES, 1.5, seed=5)
