"""Run journal: durable appends, tolerant replay, resume planning."""

import os

import pytest

from repro.core.runner import STAGES
from repro.reliability.errors import DiskFullError, JournalError
from repro.reliability.faults import DiskFault, DiskFaultInjector
from repro.reliability.atomic import disk_faults
from repro.reliability.journal import (
    JOURNAL_VERSION,
    JournalRecord,
    ReplayResult,
    RunJournal,
    replay,
    replay_lines,
    resume_plan,
)
from repro.reliability.retry import RetryPolicy

def _begin_payload(**overrides):
    payload = {
        "journal_version": JOURNAL_VERSION,
        "run_id": "abcdefabcdef-001",
        "fingerprint": "ab" * 32,
        "scenario": "lockdown-2020",
        "config": {"n_students": 4, "seed": 11},
        "stages": list(STAGES),
    }
    payload.update(overrides)
    return payload


def _records(n_stages_done, complete=False):
    records = [JournalRecord(seq=0, kind="run_begin",
                             payload=_begin_payload())]
    for position in range(n_stages_done):
        stage = STAGES[position]
        records.append(JournalRecord(
            seq=len(records), kind="stage_begin",
            payload={"stage": stage}))
        records.append(JournalRecord(
            seq=len(records), kind="stage_end",
            payload={"stage": stage,
                     "outputs": {f"{stage}.out": "00" * 32},
                     "info": {}}))
    if complete:
        records.append(JournalRecord(seq=len(records), kind="run_end",
                                     payload={}))
    return records


def _lines(records):
    return [record.to_line() for record in records]


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal.create(path)
        journal.append("run_begin", _begin_payload())
        journal.append("stage_begin", {"stage": "ingest"})
        result = replay(path)
        assert [r.kind for r in result.records] == ["run_begin",
                                                    "stage_begin"]
        assert [r.seq for r in result.records] == [0, 1]
        assert result.torn_dropped == 0
        assert result.duplicates_skipped == 0

    def test_create_refuses_existing_file(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        RunJournal.create(path)
        with pytest.raises(JournalError, match="already exists"):
            RunJournal.create(path)

    def test_open_resumes_sequence_numbers(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal.create(path)
        journal.append("run_begin", _begin_payload())
        reopened, records = RunJournal.open(path)
        assert len(records) == 1
        appended = reopened.append("note", {"event": "hello"})
        assert appended.seq == 1
        assert len(replay(path).records) == 2

    def test_open_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            RunJournal.open(str(tmp_path / "absent.jsonl"))

    def test_unknown_kind_rejected(self, tmp_path):
        journal = RunJournal.create(str(tmp_path / "journal.jsonl"))
        with pytest.raises(ValueError, match="unknown journal record"):
            journal.append("mystery", {})

    def test_absent_file_replays_empty(self, tmp_path):
        result = replay(str(tmp_path / "absent.jsonl"))
        assert result == ReplayResult(records=(), torn_dropped=0,
                                      duplicates_skipped=0)

    def test_append_retries_transient_disk_fault(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal.create(
            path, retry_policy=RetryPolicy.no_delay(max_attempts=3),
            sleep=lambda seconds: None)
        fault = DiskFault(kind="enospc", path_contains="journal",
                          hits=(0,))
        with disk_faults(DiskFaultInjector(faults=(fault,))):
            journal.append("run_begin", _begin_payload())
        assert journal.counters["append_retries"] == 1
        assert journal.counters["records_appended"] == 1
        assert len(replay(path).records) == 1

    def test_append_gives_up_after_budget(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal.create(
            path, retry_policy=RetryPolicy.no_delay(max_attempts=2),
            sleep=lambda seconds: None)
        fault = DiskFault(kind="enospc", path_contains="journal",
                          hits=None)
        with disk_faults(DiskFaultInjector(faults=(fault,))):
            with pytest.raises(DiskFullError):
                journal.append("run_begin", _begin_payload())


class TestReplayTolerances:
    def test_torn_tail_dropped_as_absent(self):
        lines = _lines(_records(2))
        torn = lines + [lines[-1][: len(lines[-1]) // 2]]
        result = replay_lines(torn)
        assert len(result.records) == len(lines)
        assert result.torn_dropped == 1

    def test_garbage_tail_dropped(self):
        lines = _lines(_records(1)) + ["{not json", ""]
        result = replay_lines([line for line in lines if line])
        assert result.torn_dropped == 1
        assert len(result.records) == 3

    def test_duplicated_tail_skipped_idempotently(self):
        lines = _lines(_records(2))
        result = replay_lines(lines + [lines[-1]])
        assert len(result.records) == len(lines)
        assert result.duplicates_skipped == 1

    def test_retried_append_with_torn_first_try(self):
        # A torn first try of record N followed by the intact retry.
        lines = _lines(_records(1))
        final = lines[-1]
        sequence = lines[:-1] + [final[: len(final) - 10], final]
        result = replay_lines(sequence)
        assert len(result.records) == len(lines)
        assert result.torn_dropped == 1

    def test_flipped_byte_is_detected(self):
        lines = _lines(_records(1))
        mangled = lines[-1].replace('"ingest"', '"inge5t"')
        assert mangled != lines[-1]
        result = replay_lines(lines[:-1] + [mangled])
        assert result.torn_dropped == 1
        assert len(result.records) == len(lines) - 1

    def test_mid_journal_corruption_raises(self):
        lines = _lines(_records(2))
        mangled = lines[:2] + ["garbage"] + lines[3:]
        with pytest.raises(JournalError, match="corruption"):
            replay_lines(mangled)

    def test_divergent_duplicate_raises(self):
        records = _records(1)
        divergent = JournalRecord(
            seq=records[-1].seq, kind=records[-1].kind,
            payload={"stage": "ingest", "outputs": {}, "info": {"x": 1}})
        with pytest.raises(JournalError, match="twice"):
            replay_lines(_lines(records) + [divergent.to_line()])

    def test_sequence_gap_raises(self):
        records = _records(2)
        with pytest.raises(JournalError):
            replay_lines(_lines(records[:1] + records[2:]))


class TestResumePlan:
    def test_empty_or_headless_journal_rejected(self):
        with pytest.raises(JournalError, match="run_begin"):
            resume_plan([])
        with pytest.raises(JournalError, match="run_begin"):
            resume_plan(_records(1)[1:])

    def test_unsupported_version_rejected(self):
        begin = JournalRecord(seq=0, kind="run_begin",
                              payload=_begin_payload(journal_version=99))
        with pytest.raises(JournalError, match="version"):
            resume_plan([begin])

    def test_layout_before_shard_records_is_refused(self):
        """A v1 run directory kept its shards in a separate checkpoint
        store the journal never saw, a v2 one journaled per-shard
        ingest and a merge stage, and a v3 one saved the unfiltered
        dataset and filtered it in a stage of its own; resuming any of
        them must fail loudly."""
        assert JOURNAL_VERSION == 4
        for version in (1, 2, 3):
            begin = JournalRecord(
                seq=0, kind="run_begin",
                payload=_begin_payload(journal_version=version))
            with pytest.raises(JournalError, match=f"version {version}"):
                resume_plan([begin])

    def test_fresh_run_has_no_completed_stages(self):
        plan = resume_plan(_records(0))
        assert plan.completed == ()
        assert plan.next_stage == "ingest"
        assert not plan.complete
        assert plan.config_payload["n_students"] == 4

    @pytest.mark.parametrize("done", range(1, len(STAGES)))
    def test_partial_run_resumes_at_next_stage(self, done):
        plan = resume_plan(_records(done))
        assert plan.completed == tuple(STAGES[:done])
        assert plan.next_stage == STAGES[done]
        assert plan.outputs[STAGES[done - 1]] == {
            f"{STAGES[done - 1]}.out": "00" * 32}

    def test_complete_run(self):
        plan = resume_plan(_records(len(STAGES), complete=True))
        assert plan.completed == tuple(STAGES)
        assert plan.next_stage is None
        assert plan.complete

    def test_second_run_begin_rejected(self):
        records = _records(1)
        records.append(JournalRecord(seq=len(records), kind="run_begin",
                                     payload=_begin_payload()))
        with pytest.raises(JournalError, match="second run_begin"):
            resume_plan(records)

    def test_backwards_stage_end_is_re_execution(self):
        # After output invalidation the runner legally re-runs an
        # earlier stage; the pointer moves back, later stages re-run.
        records = _records(len(STAGES))
        records.append(JournalRecord(
            seq=len(records), kind="stage_end",
            payload={"stage": STAGES[1],
                     "outputs": {"report.txt": "11" * 32}, "info": {}}))
        plan = resume_plan(records)
        assert plan.completed == tuple(STAGES[:2])
        assert plan.outputs[STAGES[1]] == {"report.txt": "11" * 32}

    def test_skip_ahead_stage_end_rejected(self):
        records = _records(1)
        records.append(JournalRecord(
            seq=len(records), kind="stage_end",
            payload={"stage": STAGES[2], "outputs": {}, "info": {}}))
        with pytest.raises(JournalError, match="skips ahead"):
            resume_plan(records)

    def test_unknown_stage_rejected(self):
        records = _records(0)
        records.append(JournalRecord(
            seq=len(records), kind="stage_end",
            payload={"stage": "teleport", "outputs": {}, "info": {}}))
        with pytest.raises(JournalError, match="unknown stage"):
            resume_plan(records)

    def test_premature_run_end_rejected(self):
        records = _records(len(STAGES) - 1)
        records.append(JournalRecord(seq=len(records), kind="run_end",
                                     payload={}))
        with pytest.raises(JournalError, match="before every stage"):
            resume_plan(records)

    def test_stage_end_after_run_end_reopens_the_run(self):
        records = _records(len(STAGES), complete=True)
        records.append(JournalRecord(
            seq=len(records), kind="stage_end",
            payload={"stage": STAGES[-1], "outputs": {"summary": "aa"},
                     "info": {}}))
        plan = resume_plan(records)
        assert not plan.complete
        assert plan.completed == tuple(STAGES)


class TestRecordEncoding:
    def test_parse_rejects_wrong_checksum(self):
        record = JournalRecord(seq=0, kind="note", payload={"a": 1})
        line = record.to_line().replace('"a":1', '"a":2')
        assert JournalRecord.parse(line) is None

    def test_parse_round_trip(self):
        record = JournalRecord(seq=3, kind="stage_end",
                               payload={"stage": "analyze",
                                        "outputs": {}, "info": {}})
        assert JournalRecord.parse(record.to_line()) == record

    @pytest.mark.parametrize("line", [
        "", "null", "[]", '{"seq": "x", "kind": "note", "payload": {}}',
        '{"seq": 0, "kind": "nope", "payload": {}}',
        '{"seq": 0, "kind": "note", "payload": []}',
    ])
    def test_parse_rejects_malformed(self, line):
        assert JournalRecord.parse(line) is None

    def test_journal_file_is_append_only(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal.create(path)
        journal.append("run_begin", _begin_payload())
        before = os.path.getsize(path)
        journal.append("note", {"event": "x"})
        with open(path, "rb") as fileobj:
            content = fileobj.read()
        assert len(content) > before
        # The first record's bytes are untouched by later appends.
        first_line = content.split(b"\n")[0].decode()
        assert JournalRecord.parse(first_line).seq == 0
