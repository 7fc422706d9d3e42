"""Chaos suite: the sharded pipeline under injected faults.

Every fault here comes from the deterministic injector in
:mod:`repro.reliability.faults`, so each scenario replays exactly:

* worker kills and transient I/O errors are retried and the merged
  dataset stays byte-identical (``FlowDataset.identical``) to the
  fault-free run;
* exhausted retries and fatal errors surface as ``ShardFailure``
  without leaking futures or worker processes;
* a rerun handed the shards an interrupted run finished executes
  only the others, and the merge still matches the fault-free run;
* corrupted log lines in lenient mode are quarantined with exact
  counts, and the surviving records produce the same dataset a
  pre-cleaned log would.

Journaling those shards and resuming from the journal are tested in
``test_shard_resume.py``.
"""

import gzip
import multiprocessing
import os
import time

import pytest

from repro.config import StudyConfig
from repro.io.tracedir import (
    DHCP_FILE,
    DNS_FILE,
    WIRE_FILE,
    export_traces,
    ingest_trace_dir,
)
from repro.pipeline.parallel import (
    ParallelPipeline,
    ShardFailure,
    merge_shards,
)
from repro.pipeline.pipeline import MonitoringPipeline
from repro.reliability.errors import RecordError
from repro.reliability.faults import FaultPlan, corrupt_log_lines
from repro.reliability.retry import RetryPolicy
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import utc_ts

_CONFIG = StudyConfig(n_students=4, seed=11,
                      start_ts=utc_ts(2020, 2, 1),
                      end_ts=utc_ts(2020, 2, 7),
                      visitor_min_days=2)

#: Zero-delay policy: chaos tests prove the retry *logic*, the backoff
#: schedule itself is covered by tests/reliability/test_retry.py.
def _no_delay(max_attempts=3):
    return RetryPolicy.no_delay(max_attempts=max_attempts, seed=_CONFIG.seed)


@pytest.fixture(scope="module")
def clean_run():
    """The fault-free parallel baseline every recovery must reproduce."""
    return ParallelPipeline(_CONFIG, workers=2).run()


def _assert_no_zombies():
    # The executor joins before run() returns; give the OS a beat to
    # reap the pool processes before declaring them zombies.
    for _ in range(50):
        if not multiprocessing.active_children():
            return
        time.sleep(0.1)
    assert not multiprocessing.active_children()


class TestWorkerKillRecovery:
    def test_killed_worker_is_retried_to_an_identical_result(
            self, clean_run):
        runner = ParallelPipeline(_CONFIG, workers=2,
                                  faults=FaultPlan(kill_shards=(0,)),
                                  retry_policy=_no_delay())
        result = runner.run()
        # The dead pool reclaims *every* in-flight shard (the culprit is
        # unknowable from the parent), so both shards are charged a
        # retry and both succeed on attempt 2.
        assert result.attempts == {0: 2, 1: 2}
        assert result.dataset.identical(clean_run.dataset)
        assert result.stats == clean_run.stats
        assert runner.last_pool_stats["orphaned"] == 0
        _assert_no_zombies()

    def test_transient_io_error_is_retried_to_an_identical_result(
            self, clean_run):
        runner = ParallelPipeline(
            _CONFIG, workers=2,
            faults=FaultPlan(transient_shards=(0, 1)),
            retry_policy=_no_delay())
        result = runner.run()
        assert result.attempts == {0: 2, 1: 2}
        assert result.dataset.identical(clean_run.dataset)
        assert result.stats == clean_run.stats

    def test_kill_plus_transient_combined(self, clean_run):
        """Both fault families in one run still converge to the
        baseline; interleaving decides the exact attempt counts."""
        runner = ParallelPipeline(
            _CONFIG, workers=2,
            faults=FaultPlan(kill_shards=(0,), transient_shards=(1,),
                             transient_attempts=(0, 1)),
            retry_policy=_no_delay(max_attempts=5))
        result = runner.run()
        assert all(2 <= count <= 5 for count in result.attempts.values())
        assert result.dataset.identical(clean_run.dataset)
        assert result.stats == clean_run.stats

    def test_inline_path_retries_transient_faults(self, clean_run):
        """workers=1 takes the in-process path; same retry contract."""
        result = ParallelPipeline(
            _CONFIG, workers=1,
            faults=FaultPlan(transient_shards=(0,)),
            retry_policy=_no_delay()).run()
        assert result.attempts == {0: 2}
        # One shard vs. two: same canonical dataset either way.
        assert result.dataset.identical(clean_run.dataset)


class TestRetryExhaustion:
    def test_exhausted_retries_surface_with_attempt_count(self):
        runner = ParallelPipeline(
            _CONFIG, workers=2,
            faults=FaultPlan(transient_shards=(0,),
                             transient_attempts=(0, 1)),
            retry_policy=_no_delay(max_attempts=2))
        with pytest.raises(ShardFailure) as excinfo:
            runner.run()
        assert excinfo.value.attempts == 2
        assert excinfo.value.spec.index == 0
        assert "after 2 attempt(s)" in str(excinfo.value)
        assert runner.last_pool_stats["orphaned"] == 0
        _assert_no_zombies()

    def test_persistent_kill_exhausts_the_budget(self):
        runner = ParallelPipeline(
            _CONFIG, workers=2,
            faults=FaultPlan(kill_shards=(0,), kill_attempts=(0, 1)),
            retry_policy=_no_delay(max_attempts=2))
        with pytest.raises(ShardFailure) as excinfo:
            runner.run()
        assert excinfo.value.attempts == 2
        assert runner.last_pool_stats["orphaned"] == 0
        _assert_no_zombies()

    def test_fatal_errors_are_never_retried(self):
        """InjectedShardFault is a plain RuntimeError: fatal, so the
        shard is charged exactly one attempt."""
        runner = ParallelPipeline(_CONFIG, workers=2,
                                  faults=FaultPlan(fatal_shards=(0, 1)),
                                  retry_policy=_no_delay())
        with pytest.raises(ShardFailure) as excinfo:
            runner.run()
        assert excinfo.value.attempts == 1


class TestCheckpointResume:
    """The hooks a journaled resume is built on: ``run_shards`` hands
    each finished shard to a callback and skips the shards a resume
    already holds, and ``merge_shards`` joins the two sets."""

    def test_first_run_checkpoints_every_shard(self, clean_run):
        runner = ParallelPipeline(_CONFIG, workers=2)
        outcomes = {}
        attempts = runner.run_shards(outcomes.__setitem__)
        assert sorted(outcomes) == [0, 1]
        assert attempts == {0: 1, 1: 1}
        dataset, stats, coverage = merge_shards(runner.shards, outcomes)
        assert dataset.identical(clean_run.dataset)
        assert stats == clean_run.stats
        assert coverage == clean_run.coverage

    def test_resume_reexecutes_only_missing_shards(self, clean_run):
        """Interrupted after k of n shards: the rerun is handed the k
        checkpoints and executes exactly the n - k others."""
        first = {}
        ParallelPipeline(_CONFIG, workers=2).run_shards(first.__setitem__)
        kept = {0: first[0]}

        runner = ParallelPipeline(_CONFIG, workers=2)
        rerun = {}
        attempts = runner.run_shards(rerun.__setitem__, skip=kept)
        assert set(attempts) == {1}
        assert sorted(rerun) == [1]
        dataset, stats, _ = merge_shards(runner.shards, {**kept, **rerun})
        assert dataset.identical(clean_run.dataset)
        assert stats == clean_run.stats
        _assert_no_zombies()


# ---------------------------------------------------------------------------
# Corrupt-record quarantine: lenient replay of a mangled trace directory.

_TRACE_CONFIG = StudyConfig(n_students=4, seed=7, visitor_min_days=2)
_TRACE_START = utc_ts(2020, 2, 1)
_TRACE_END = utc_ts(2020, 2, 4)
_CORRUPT_RATE = 0.2
_LOG_FILES = (WIRE_FILE, DHCP_FILE, DNS_FILE)


def _read_gz(path):
    with gzip.open(path, "rt") as fileobj:
        return fileobj.read().splitlines()


def _write_gz(path, lines):
    with gzip.open(path, "wt") as fileobj:
        for line in lines:
            fileobj.write(line + "\n")


@pytest.fixture(scope="module")
def corrupted_trace_dirs(tmp_path_factory):
    """Three sibling trace dirs: clean, corrupted, and survivors-only.

    The survivors dir holds exactly the records the corrupted dir keeps
    after quarantine, so a strict replay of it is the ground truth for
    the lenient replay of the corrupted dir.
    """
    root = tmp_path_factory.mktemp("chaos-traces")
    clean = os.path.join(root, "clean")
    corrupted = os.path.join(root, "corrupted")
    survivors = os.path.join(root, "survivors")

    generator = CampusTraceGenerator(_TRACE_CONFIG)
    traces = list(generator.iter_days(_TRACE_START, _TRACE_END))
    export_traces(traces, clean)
    export_traces(traces, corrupted)
    export_traces(traces, survivors)

    injected = {name: 0 for name in _LOG_FILES}
    seed = 0
    for day in sorted(os.listdir(clean)):
        day_dir = os.path.join(clean, day)
        if not os.path.isdir(day_dir):
            continue
        for name in _LOG_FILES:
            lines = _read_gz(os.path.join(day_dir, name))
            seed += 1  # distinct substream per file
            mangled, touched = corrupt_log_lines(
                lines, _CORRUPT_RATE, seed=seed)
            injected[name] += len(touched)
            _write_gz(os.path.join(corrupted, day, name), mangled)
            kept = [line for index, line in enumerate(lines)
                    if index not in set(touched)]
            _write_gz(os.path.join(survivors, day, name), kept)
    assert all(count > 0 for count in injected.values())
    return clean, corrupted, survivors, injected


def _replay(root, mode="strict"):
    generator = CampusTraceGenerator(_TRACE_CONFIG)
    excluded = generator.plan.excluded_blocks(
        _TRACE_CONFIG.excluded_operators)
    pipeline = MonitoringPipeline(_TRACE_CONFIG, excluded)
    ingest_trace_dir(pipeline, root, mode=mode)
    return pipeline.finalize().canonicalize(), pipeline.stats


class TestCorruptReplay:
    def test_strict_replay_of_corruption_raises(self, corrupted_trace_dirs):
        _, corrupted, _, _ = corrupted_trace_dirs
        with pytest.raises(RecordError):
            _replay(corrupted, mode="strict")

    def test_lenient_replay_quarantines_exact_counts(
            self, corrupted_trace_dirs):
        _, corrupted, _, injected = corrupted_trace_dirs
        _, stats = _replay(corrupted, mode="lenient")
        assert stats.quarantined_wire == injected[WIRE_FILE]
        assert stats.quarantined_dhcp == injected[DHCP_FILE]
        assert stats.quarantined_dns == injected[DNS_FILE]
        assert stats.records_quarantined == sum(injected.values())
        assert stats.blank_lines == 0

    def test_lenient_replay_equals_precleaned_strict_replay(
            self, corrupted_trace_dirs):
        """Quarantine must drop *only* the mangled lines: the lenient
        dataset is byte-identical to a strict replay of the survivors."""
        _, corrupted, survivors, _ = corrupted_trace_dirs
        lenient_dataset, _ = _replay(corrupted, mode="lenient")
        survivor_dataset, survivor_stats = _replay(survivors,
                                                   mode="strict")
        assert lenient_dataset.identical(survivor_dataset)
        assert survivor_stats.records_quarantined == 0

    def test_lenient_replay_of_clean_dir_matches_strict(
            self, corrupted_trace_dirs):
        clean, _, _, _ = corrupted_trace_dirs
        strict_dataset, strict_stats = _replay(clean, mode="strict")
        lenient_dataset, lenient_stats = _replay(clean, mode="lenient")
        assert lenient_dataset.identical(strict_dataset)
        assert lenient_stats == strict_stats
        assert lenient_stats.records_quarantined == 0

    def test_blank_lines_are_counted_and_harmless(
            self, corrupted_trace_dirs, tmp_path):
        """Trailing blank / whitespace-only lines -- what a log rotator
        or partial flush leaves -- are skipped and counted, not parsed."""
        import shutil

        clean, _, _, _ = corrupted_trace_dirs
        padded = os.path.join(tmp_path, "padded")
        shutil.copytree(clean, padded)
        n_blank = 0
        for day in sorted(os.listdir(padded)):
            day_dir = os.path.join(padded, day)
            if not os.path.isdir(day_dir):
                continue
            path = os.path.join(day_dir, DHCP_FILE)
            _write_gz(path, _read_gz(path) + ["", "   ", "\t"])
            n_blank += 3

        strict_dataset, _ = _replay(clean, mode="strict")
        padded_dataset, padded_stats = _replay(padded, mode="lenient")
        assert padded_stats.blank_lines == n_blank
        assert padded_stats.records_quarantined == 0
        assert padded_dataset.identical(strict_dataset)
