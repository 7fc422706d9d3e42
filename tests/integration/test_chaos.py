"""Chaos suite: ingest checkpoints and corrupt-record quarantine.

Every fault here comes from the deterministic injector in
:mod:`repro.reliability.faults`, so each scenario replays exactly:

* a journaled run checkpoints its whole-window ingest, and a resume
  handed a run that finished some stages executes only the others,
  with outputs byte-identical to the uninterrupted run;
* corrupted log lines in lenient mode are quarantined with exact
  counts, and the surviving records produce the same dataset a
  pre-cleaned log would.

Kills at every journal barrier and inside the ingest are tested with
real processes in ``test_crash_chaos.py``; torn ingest files in
``test_ingest_resume.py``.
"""

import gzip
import os

import pytest

from repro.config import StudyConfig
from repro.io.tracedir import (
    DHCP_FILE,
    DNS_FILE,
    WIRE_FILE,
    export_traces,
    ingest_trace_dir,
)
from repro.pipeline.pipeline import MonitoringPipeline
from repro.reliability.errors import RecordError
from repro.reliability.faults import corrupt_log_lines
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import utc_ts

_CONFIG = StudyConfig(n_students=4, seed=11,
                      start_ts=utc_ts(2020, 2, 1),
                      end_ts=utc_ts(2020, 2, 7),
                      visitor_min_days=2)

@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """One uninterrupted journaled run, plus its output digests."""
    from repro.core.runner import JournaledRun
    from repro.reliability.crashmatrix import output_digests

    journal_dir = str(tmp_path_factory.mktemp("chaos-journal"))
    result = JournaledRun.start(journal_dir, _CONFIG).execute()
    return result, output_digests(result.run_dir)


class TestCheckpointResume:
    """The journal is the checkpoint: the ingest stage writes the whole
    window's measurement to journaled files, and a resume replays every
    stage whose record and files are intact."""

    def test_first_run_checkpoints_every_shard(self, clean_run):
        """The ingest checkpoint holds exactly what an in-memory ingest
        of the window measures: dataset, counters and coverage."""
        import json

        from repro.core.study import _ingest
        from repro.pipeline.store import load_dataset, load_stats
        from repro.pipeline.visitors import apply_visitor_filter
        from repro.reliability.coverage import CoverageReport

        result, _digests = clean_run
        dataset, stats, coverage = _ingest(
            _CONFIG, CampusTraceGenerator(_CONFIG), lambda message: None)
        assert load_dataset(
            os.path.join(result.run_dir, "filtered.npz")).identical(
                apply_visitor_filter(dataset, _CONFIG.visitor_min_days))
        saved = os.path.join(result.run_dir, "merged")
        assert load_stats(saved + ".stats.json") == stats
        with open(saved + ".coverage.json") as fileobj:
            assert CoverageReport.from_json(json.load(fileobj)) == coverage

    def test_resume_reexecutes_only_missing_shards(self, clean_run,
                                                   tmp_path):
        """Interrupted after k of n stages: the resume replays the k
        journaled ones and executes exactly the n - k others."""
        import shutil

        from repro.core.runner import JournaledRun
        from repro.reliability.crashmatrix import (
            compare_outputs,
            output_digests,
        )
        from repro.reliability.journal import JOURNAL_FILE, replay

        result, digests = clean_run
        journal_dir = str(tmp_path / "journal")
        run_dir = os.path.join(journal_dir, result.run_id)
        shutil.copytree(result.run_dir, run_dir)
        path = os.path.join(run_dir, JOURNAL_FILE)
        with open(path) as fileobj:
            lines = fileobj.read().splitlines()
        analyzed = next(
            index for index, record in enumerate(replay(path).records)
            if record.kind == "stage_end"
            and record.payload["stage"] == "analyze")
        with open(path, "w") as fileobj:
            fileobj.write("\n".join(lines[:analyzed + 1]) + "\n")

        outcome = JournaledRun.resume(journal_dir, result.run_id).execute()
        assert outcome.replayed == ("ingest", "analyze")
        assert outcome.executed == ("publish",)
        assert compare_outputs(digests, output_digests(run_dir)) == []


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
    return pipeline.finalize(), pipeline.stats


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
