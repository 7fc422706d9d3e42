"""Property-based tests for journal replay and resume planning.

The crash-safety contract is a statement over *all* journals, not a
few examples, so Hypothesis drives it:

* replay is **prefix-stable** -- replaying any prefix of a journal's
  lines yields exactly the leading records of the full replay (what a
  crash at any byte boundary leaves behind is a prefix plus at most
  one torn line);
* a **duplicated tail** (an append retried after a lost ack) changes
  nothing but the ``duplicates_skipped`` counter;
* **corrupt trailing lines** -- truncations, garbage, checksum-broken
  bytes -- are dropped as absent, never surfacing as phantom records;
* :func:`resume_plan` is **monotone** over clean prefixes: completed
  stages only ever grow as more of the journal survives;
* a plan built from **any prefix agrees with the run**: its completed
  stages and their journaled output digests are exactly what the run
  had journaled at that point, and building it leaves the records
  untouched.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.core.runner import STAGES
from repro.reliability.errors import JournalError
from repro.reliability.journal import (
    JOURNAL_VERSION,
    JournalRecord,
    replay_lines,
    resume_plan,
)


def _begin_record():
    return JournalRecord(seq=0, kind="run_begin", payload={
        "journal_version": JOURNAL_VERSION,
        "run_id": "abcdefabcdef-001",
        "fingerprint": "ab" * 32,
        "scenario": "lockdown-2020",
        "config": {"n_students": 4, "seed": 11},
        "stages": list(STAGES),
    })


@st.composite
def journals_with_history(draw):
    """A well-formed journal plus what the run knew after each record.

    run_begin + stage barriers (+ run_end): ``n_done`` stages complete;
    optionally the next stage has begun (the in-flight state every
    crash leaves); a fully-done journal may be sealed with ``run_end``.
    Each stage journals its own output digests. ``history[k]`` is
    ``(completed stages, output digests per stage)`` after record ``k``.
    """
    records = [_begin_record()]
    history = [((), {})]
    completed = ()
    outputs = {}

    def add(kind, payload):
        records.append(JournalRecord(seq=len(records), kind=kind,
                                     payload=payload))
        history.append((completed, dict(outputs)))

    n_done = draw(st.integers(min_value=0, max_value=len(STAGES)))
    for stage in STAGES[:n_done]:
        add("stage_begin", {"stage": stage})
        digest = draw(st.sampled_from(("00" * 32, "11" * 32)))
        completed += (stage,)
        outputs[stage] = {f"{stage}.out": digest}
        add("stage_end", {"stage": stage, "outputs": outputs[stage],
                          "info": {}})
    if n_done < len(STAGES) and draw(st.booleans()):
        add("stage_begin", {"stage": STAGES[n_done]})
    elif n_done == len(STAGES) and draw(st.booleans()):
        add("run_end", {})
    return records, history


def journals():
    return journals_with_history().map(lambda pair: pair[0])


corrupt_tails = st.lists(
    st.one_of(
        st.just("{not json"),
        st.just(""),
        st.text(min_size=1, max_size=40).filter(
            lambda s: "\n" not in s),
    ),
    min_size=1, max_size=3,
)


@given(journals(), st.data())
@settings(max_examples=60)
def test_replay_of_any_prefix_yields_leading_records(records, data):
    lines = [record.to_line() for record in records]
    cut = data.draw(st.integers(min_value=0, max_value=len(lines)))
    full = replay_lines(lines)
    prefix = replay_lines(lines[:cut])
    assert prefix.records == full.records[:cut]
    assert prefix.torn_dropped == 0
    assert prefix.duplicates_skipped == 0


@given(journals(), st.data())
@settings(max_examples=60)
def test_torn_tail_line_is_dropped_as_absent(records, data):
    """A prefix plus a torn final line replays as the bare prefix."""
    lines = [record.to_line() for record in records]
    cut = data.draw(st.integers(min_value=1, max_value=len(lines)))
    keep = lines[:cut]
    tear_at = data.draw(st.integers(min_value=1,
                                    max_value=len(keep[-1]) - 1))
    torn = keep[:-1] + [keep[-1][:tear_at]]
    result = replay_lines(torn)
    clean = replay_lines(keep[:-1])
    assert result.records == clean.records
    assert result.torn_dropped == 1


@given(journals())
@settings(max_examples=60)
def test_duplicated_tail_is_skipped_idempotently(records):
    lines = [record.to_line() for record in records]
    clean = replay_lines(lines)
    doubled = replay_lines(lines + [lines[-1]])
    assert doubled.records == clean.records
    assert doubled.duplicates_skipped == 1


@given(journals(), corrupt_tails)
@settings(max_examples=60)
def test_corrupt_trailing_lines_never_surface_records(records, tails):
    lines = [record.to_line() for record in records]
    garbage = [tail for tail in tails
               if tail and JournalRecord.parse(tail) is None]
    result = replay_lines(lines + garbage)
    clean = replay_lines(lines)
    assert result.records == clean.records
    assert result.torn_dropped == len(garbage)


@given(journals(), st.data())
@settings(max_examples=60)
def test_resume_plan_is_monotone_over_prefixes(records, data):
    """More surviving journal never *un*-completes a stage."""
    cut = data.draw(st.integers(min_value=1, max_value=len(records)))
    partial = resume_plan(records[:cut])
    full = resume_plan(records)
    assert full.completed[:len(partial.completed)] == partial.completed
    assert partial.run_id == full.run_id
    assert partial.fingerprint == full.fingerprint
    if partial.complete:
        assert full.complete


@given(journals_with_history(), st.data())
@settings(max_examples=60)
def test_plan_of_any_prefix_agrees_with_the_run(journal, data):
    """What a crash after record k leaves is what the run had done."""
    records, history = journal
    cut = data.draw(st.integers(min_value=1, max_value=len(records)))
    plan = resume_plan(records[:cut])
    completed, outputs = history[cut - 1]
    assert plan.completed == completed
    assert plan.outputs == outputs
    assert set(plan.outputs) <= set(resume_plan(records).outputs)


@given(journals())
@settings(max_examples=60)
def test_resume_plan_leaves_records_untouched(records):
    before = copy.deepcopy(records)
    plan = resume_plan(records)
    assert records == before
    # The plan holds its own copies: editing it cannot rewrite history.
    for digests in plan.outputs.values():
        digests.clear()
    assert records == before
    assert resume_plan(records) == resume_plan(before)


@given(journals())
@settings(max_examples=60)
def test_resume_plan_is_deterministic(records):
    first = resume_plan(records)
    again = resume_plan(list(records))
    assert first == again
    assert first.completed == first.stages[:len(first.completed)]
    if first.next_stage is not None:
        assert first.next_stage == first.stages[len(first.completed)]


@given(journals(), st.data())
@settings(max_examples=60)
def test_replay_then_plan_equals_plan_of_records(records, data):
    """The round trip through line encoding changes nothing."""
    lines = [record.to_line() for record in records]
    replayed = replay_lines(lines)
    assert resume_plan(list(replayed.records)) == resume_plan(records)


@given(st.lists(st.text(max_size=30).filter(
    lambda s: "\n" not in s and s), min_size=1, max_size=5))
@settings(max_examples=60)
def test_pure_garbage_journal_never_raises(lines):
    """All-garbage lines are one long torn tail, not corruption."""
    result = replay_lines(lines)
    if all(JournalRecord.parse(line) is None for line in lines):
        assert result.records == ()
        assert result.torn_dropped == len(lines)


@given(journals())
@settings(max_examples=30)
def test_mid_journal_gap_always_raises(records):
    """Deleting any non-tail record is corruption, never tolerated."""
    if len(records) < 3:
        return
    lines = [record.to_line() for record in records]
    for drop in range(1, len(lines) - 1):
        try:
            replay_lines(lines[:drop] + lines[drop + 1:])
        except JournalError:
            continue
        raise AssertionError(
            f"dropping record {drop} was silently tolerated")
