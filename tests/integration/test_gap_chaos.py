"""Gap-chaos suite: telemetry outages, degraded annotation, watchdog.

The contract under test, end to end:

* a DHCP/DNS collector outage never silently drops a flow -- every
  closed flow is either annotated (possibly *degraded*), or counted
  ``flows_unattributed``;
* serial and parallel ingest remain byte-identical under any injected
  gap plan, coverage reports included;
* the merged coverage report says exactly which spans of which source
  went missing, and analysis consumes it (strict mode refuses, lenient
  mode annotates);
* a wedged worker is detected by the shard watchdog, killed, retried,
  and the recovered run is byte-identical to the fault-free baseline;
  a deterministically wedged shard fails once its retry budget is
  spent.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.fig1_active_devices import compute_fig1
from repro.config import StudyConfig
from repro.devices.classifier import DeviceClassifier
from repro.pipeline.parallel import ParallelPipeline, ShardFailure
from repro.reliability.errors import CoverageError
from repro.reliability.faults import FaultPlan, LogGap
from repro.reliability.retry import RetryPolicy
from repro.reliability.watchdog import WatchdogTimeout
from repro.util.timeutil import DAY, utc_ts
from tests.integration.log_gaps import seeded_log_gaps

_CONFIG = StudyConfig(n_students=4, seed=11,
                      start_ts=utc_ts(2020, 2, 1),
                      end_ts=utc_ts(2020, 2, 7),
                      visitor_min_days=2)

_N_DAYS = 6


def _no_delay(max_attempts=3):
    return RetryPolicy.no_delay(max_attempts=max_attempts, seed=_CONFIG.seed)


def _owned_flow_counts(stats):
    """The per-flow counters that must be shard-count invariant.

    (Work counters like ``anon_cache_hits`` legitimately differ between
    serial and parallel runs -- shards re-process warm-up days.)
    """
    return (stats.flows_closed, stats.flows_unattributed,
            stats.flows_unattributed_gap, stats.flows_degraded_dhcp,
            stats.flows_degraded_dns)


def _dhcp_gaps():
    return seeded_log_gaps(99, _CONFIG.start_ts + DAY,
                           _CONFIG.start_ts + 5 * DAY, 3, source="dhcp")


def _dns_gap():
    # DNS staleness discounting only fires once the gap exceeds the
    # 48 h freshness window, so the injected outage spans three days.
    return (LogGap("dns", _CONFIG.start_ts + 2 * DAY,
                   _CONFIG.start_ts + 5 * DAY + 3600.0),)


@pytest.fixture(scope="module")
def clean_run():
    """The gap-free parallel baseline."""
    return ParallelPipeline(_CONFIG, workers=2).run()


@pytest.fixture(scope="module")
def dhcp_gap_run():
    return ParallelPipeline(
        _CONFIG, workers=2,
        faults=FaultPlan(log_gaps=_dhcp_gaps())).run()


@pytest.fixture(scope="module")
def dns_gap_run():
    return ParallelPipeline(
        _CONFIG, workers=2,
        faults=FaultPlan(log_gaps=_dns_gap())).run()


def _assert_no_zombies():
    for _ in range(50):
        if not multiprocessing.active_children():
            return
        time.sleep(0.1)
    assert not multiprocessing.active_children()


class TestCleanRunCoverage:
    def test_clean_coverage_is_complete(self, clean_run):
        assert clean_run.coverage.is_complete()
        assert clean_run.coverage.day_fractions(
            clean_run.dataset.day0, _N_DAYS) == [1.0] * _N_DAYS

    def test_clean_gap_counters_are_zero(self, clean_run):
        stats = clean_run.stats
        assert stats.flows_degraded_dhcp == 0
        assert stats.flows_degraded_dns == 0
        assert stats.flows_unattributed_gap == 0
        assert stats.shard_timeouts == 0

    def test_clean_analysis_has_no_coverage_annotations(self, clean_run):
        ctx = AnalysisContext(clean_run.dataset,
                              coverage=clean_run.coverage,
                              strict_coverage=True)
        assert ctx.day_coverage(_N_DAYS) is None
        fig1 = compute_fig1(
            clean_run.dataset,
            DeviceClassifier().classify(clean_run.dataset), ctx=ctx)
        assert fig1.day_coverage is None
        assert fig1.adjusted_total is None
        assert fig1.affected_days is None


class TestDhcpGap:
    def test_serial_equals_parallel_under_gaps(self, dhcp_gap_run):
        serial = ParallelPipeline(
            _CONFIG, workers=1,
            faults=FaultPlan(log_gaps=_dhcp_gaps())).run()
        assert serial.dataset.identical(dhcp_gap_run.dataset)
        assert _owned_flow_counts(serial.stats) == \
            _owned_flow_counts(dhcp_gap_run.stats)
        assert serial.coverage == dhcp_gap_run.coverage

    def test_no_flow_is_silently_dropped(self, clean_run, dhcp_gap_run):
        stats = dhcp_gap_run.stats
        # The wire tap saw the same traffic: gaps silence side-channel
        # logs, never the flows themselves.
        assert stats.flows_closed == clean_run.stats.flows_closed
        # Every closed flow is in the dataset or explicitly counted.
        assert len(dhcp_gap_run.dataset) == \
            stats.flows_closed - stats.flows_unattributed
        assert stats.flows_unattributed > \
            clean_run.stats.flows_unattributed
        assert stats.flows_unattributed_gap <= stats.flows_unattributed

    def test_degraded_attribution_recovers_flows(self, dhcp_gap_run):
        """Lease holdover attributes some in-gap flows (degraded), and
        the rest of the in-gap misses are counted against the gap."""
        assert dhcp_gap_run.stats.flows_degraded_dhcp > 0
        assert dhcp_gap_run.stats.flows_unattributed_gap > 0

    def test_zero_staleness_disables_holdover(self, clean_run):
        import dataclasses
        config = dataclasses.replace(_CONFIG, dhcp_staleness_seconds=0.0)
        result = ParallelPipeline(
            config, workers=2,
            faults=FaultPlan(log_gaps=_dhcp_gaps())).run()
        assert result.stats.flows_degraded_dhcp == 0
        assert result.stats.flows_unattributed > \
            clean_run.stats.flows_unattributed

    def test_coverage_names_the_missing_spans(self, dhcp_gap_run):
        coverage = dhcp_gap_run.coverage
        assert not coverage.is_complete()
        assert coverage.gaps("dns").is_empty
        assert coverage.gaps("conn").is_empty
        missing = coverage.gaps("dhcp")
        assert not missing.is_empty
        # Every injected gap span (clipped to the study window) is
        # reported as missing.
        for gap in _dhcp_gaps():
            mid = (gap.start + min(gap.end, _CONFIG.end_ts)) / 2
            assert missing.contains(mid)

    def test_analysis_annotates_affected_days(self, dhcp_gap_run):
        ctx = AnalysisContext(dhcp_gap_run.dataset,
                              coverage=dhcp_gap_run.coverage)
        fractions = ctx.day_coverage(_N_DAYS)
        assert fractions is not None
        assert fractions.min() < 1.0
        fig1 = compute_fig1(
            dhcp_gap_run.dataset,
            DeviceClassifier().classify(dhcp_gap_run.dataset), ctx=ctx)
        assert fig1.affected_days is not None and fig1.affected_days.size
        assert fig1.adjusted_total is not None
        # Adjusted counts only ever scale *up* (divide by fraction <= 1).
        assert (fig1.adjusted_total >= fig1.total - 1e-9).all()

    def test_strict_coverage_refuses_gapped_run(self, dhcp_gap_run):
        with pytest.raises(CoverageError) as excinfo:
            AnalysisContext(dhcp_gap_run.dataset,
                            coverage=dhcp_gap_run.coverage,
                            strict_coverage=True)
        assert "telemetry gaps" in str(excinfo.value)


class TestDnsGap:
    def test_serial_equals_parallel_under_gaps(self, dns_gap_run):
        serial = ParallelPipeline(
            _CONFIG, workers=1,
            faults=FaultPlan(log_gaps=_dns_gap())).run()
        assert serial.dataset.identical(dns_gap_run.dataset)
        assert _owned_flow_counts(serial.stats) == \
            _owned_flow_counts(dns_gap_run.stats)
        assert serial.coverage == dns_gap_run.coverage

    def test_dns_gap_never_drops_flows(self, clean_run, dns_gap_run):
        """DNS is annotation-only: attribution -- and therefore the
        dataset row count -- is untouched by a DNS outage."""
        assert dns_gap_run.stats.flows_closed == \
            clean_run.stats.flows_closed
        assert dns_gap_run.stats.flows_unattributed == \
            clean_run.stats.flows_unattributed
        assert len(dns_gap_run.dataset) == len(clean_run.dataset)

    def test_degraded_dns_annotation_fires(self, dns_gap_run):
        assert dns_gap_run.stats.flows_degraded_dns > 0

    def test_coverage_blames_only_dns(self, dns_gap_run):
        coverage = dns_gap_run.coverage
        assert not coverage.is_complete()
        assert coverage.gaps("dhcp").is_empty
        assert not coverage.gaps("dns").is_empty


class TestCombinedGaps:
    def test_both_sources_gapped_still_byte_identical(self):
        plan = FaultPlan(log_gaps=_dhcp_gaps() + _dns_gap())
        serial = ParallelPipeline(_CONFIG, workers=1, faults=plan).run()
        parallel = ParallelPipeline(_CONFIG, workers=3, faults=plan).run()
        assert serial.dataset.identical(parallel.dataset)
        assert _owned_flow_counts(serial.stats) == \
            _owned_flow_counts(parallel.stats)
        assert serial.coverage == parallel.coverage
        assert parallel.stats.flows_degraded_dhcp > 0
        assert parallel.stats.flows_degraded_dns > 0


@pytest.fixture(scope="module")
def dhcp_gap_journaled(tmp_path_factory):
    """One finished journaled run under the DHCP outage, plus the
    digests of its outputs."""
    from repro.core.runner import JournaledRun
    from repro.reliability.crashmatrix import output_digests

    journal_dir = str(tmp_path_factory.mktemp("gap-journal"))
    with pytest.MonkeyPatch.context() as patch:
        _gap_every_pipeline(patch)
        result = JournaledRun.start(journal_dir, _CONFIG,
                                    workers=2).execute()
    return result, output_digests(result.run_dir)


def _gap_every_pipeline(patch):
    """Make every pipeline a journaled run builds see the DHCP outage."""
    from repro.pipeline import parallel

    plan = FaultPlan(log_gaps=_dhcp_gaps())

    class Gapped(ParallelPipeline):
        def __init__(self, config, workers, **kwargs):
            super().__init__(config, workers, faults=plan, **kwargs)

    patch.setattr(parallel, "ParallelPipeline", Gapped)


def _copy_run(result, tmp_path, keep_records=None):
    """Copy a finished run; optionally keep only its first
    ``keep_records`` journal lines (a kill right after that record)."""
    import shutil

    from repro.reliability.journal import JOURNAL_FILE

    journal_dir = str(tmp_path / "journal")
    run_dir = os.path.join(journal_dir, result.run_id)
    shutil.copytree(result.run_dir, run_dir)
    if keep_records is not None:
        path = os.path.join(run_dir, JOURNAL_FILE)
        with open(path) as fileobj:
            lines = fileobj.read().splitlines()
        with open(path, "w") as fileobj:
            fileobj.write("\n".join(lines[:keep_records]) + "\n")
    return journal_dir, run_dir


def _ingest_info(run_dir):
    from repro.reliability.journal import JOURNAL_FILE, replay

    ends = [record.payload for record
            in replay(os.path.join(run_dir, JOURNAL_FILE)).records
            if record.kind == "stage_end"
            and record.payload["stage"] == "ingest"]
    return ends[-1]["info"]


class TestGapCheckpointResume:
    def test_coverage_survives_the_shard_round_trip(
            self, dhcp_gap_journaled, dhcp_gap_run):
        """A journaled run under a DHCP outage: the merge reads every
        shard's coverage back from its journaled file, and the merged
        report still names exactly the gaps the in-memory run saw."""
        from repro.pipeline.store import load_dataset
        from repro.reliability.coverage import CoverageReport

        result, _digests = dhcp_gap_journaled
        with open(os.path.join(result.run_dir,
                               "merged.coverage.json")) as fileobj:
            coverage = CoverageReport.from_json(json.load(fileobj))
        assert not coverage.is_complete()
        assert coverage == dhcp_gap_run.coverage
        merged = load_dataset(os.path.join(result.run_dir, "merged.npz"))
        assert merged.identical(dhcp_gap_run.dataset)

    def test_coverage_survives_checkpoint_resume(self, tmp_path,
                                                 dhcp_gap_journaled):
        """Killed after the last ``shard_end``: the resume re-runs no
        shard, and the gapped coverage it merges from the journaled
        files is the coverage the uninterrupted run published."""
        from repro.core.runner import JournaledRun
        from repro.reliability.crashmatrix import (
            compare_outputs,
            output_digests,
        )
        from repro.reliability.journal import JOURNAL_FILE, replay

        result, digests = dhcp_gap_journaled
        records = replay(os.path.join(result.run_dir, JOURNAL_FILE)).records
        last_shard = max(index for index, record in enumerate(records)
                         if record.kind == "shard_end")
        journal_dir, run_dir = _copy_run(result, tmp_path,
                                         keep_records=last_shard + 1)

        # No pipeline is patched: a shard re-run here would lose the
        # outage and change the merged coverage.
        JournaledRun.resume(journal_dir, result.run_id).execute()
        info = _ingest_info(run_dir)
        assert info["resumed_shards"] == [0, 1]
        assert info["attempts"] == {}
        assert compare_outputs(digests, output_digests(run_dir)) == []

    def test_corrupt_checkpoint_is_discarded_and_reingested(
            self, tmp_path, monkeypatch, dhcp_gap_journaled):
        """Bit rot in a finished run's shard: the resume re-ingests that
        shard alone, and a further resume finds nothing to do."""
        from repro.core.runner import JournaledRun
        from repro.reliability.crashmatrix import (
            compare_outputs,
            output_digests,
        )

        result, digests = dhcp_gap_journaled
        journal_dir, run_dir = _copy_run(result, tmp_path)
        with open(os.path.join(run_dir, "shards", "shard-0000.npz"),
                  "wb") as fileobj:
            fileobj.write(b"bit rot")

        _gap_every_pipeline(monkeypatch)
        repaired = JournaledRun.resume(journal_dir, result.run_id).execute()
        assert repaired.executed == JournaledRun.STAGES
        info = _ingest_info(run_dir)
        assert info["discarded_shards"] == [0]
        assert info["resumed_shards"] == [1]
        assert set(info["attempts"]) == {"0"}
        # The re-ingested shard overwrote the rotten file.
        assert compare_outputs(digests, output_digests(run_dir)) == []

        fresh = JournaledRun.resume(journal_dir, result.run_id).execute()
        assert fresh.executed == ()


class TestHungShard:
    def test_watchdog_kills_and_retries_to_identical_result(
            self, clean_run):
        runner = ParallelPipeline(
            _CONFIG, workers=2,
            faults=FaultPlan(hang_shards=(0,), hang_seconds=60.0),
            retry_policy=_no_delay(),
            shard_deadline=2.0)
        result = runner.run()
        # The stalled shard is charged (and recovered on attempt 2);
        # its sibling is requeued uncharged.
        assert result.attempts[0] == 2
        assert result.attempts[1] == 1
        assert result.dataset.identical(clean_run.dataset)
        assert result.stats.shard_timeouts == 1
        assert result.stats.flows_closed == clean_run.stats.flows_closed
        assert runner.last_pool_stats["orphaned"] == 0
        _assert_no_zombies()

    def test_wedged_shard_exhausts_its_retry_budget(self):
        """The retry policy is the only budget: a shard hung on every
        attempt fails once its attempts are spent."""
        runner = ParallelPipeline(
            _CONFIG, workers=2,
            faults=FaultPlan(hang_shards=(0,), hang_attempts=(0, 1),
                             hang_seconds=60.0),
            retry_policy=_no_delay(max_attempts=2),
            shard_deadline=1.5)
        with pytest.raises(ShardFailure) as excinfo:
            runner.run()
        assert excinfo.value.attempts == 2
        assert excinfo.value.spec.index == 0
        assert isinstance(excinfo.value.__cause__, WatchdogTimeout)
        assert runner.last_pool_stats["orphaned"] == 0
        _assert_no_zombies()

    def test_watchdog_enabled_clean_run_stays_identical(self, clean_run):
        """Supervision with no faults must not perturb the result."""
        result = ParallelPipeline(_CONFIG, workers=2,
                                  shard_deadline=120.0).run()
        assert result.dataset.identical(clean_run.dataset)
        assert result.stats == clean_run.stats
        assert result.stats.shard_timeouts == 0
