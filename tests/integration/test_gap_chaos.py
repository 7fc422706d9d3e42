"""Gap-chaos suite: telemetry outages and degraded annotation.

The contract under test, end to end:

* a DHCP/DNS collector outage never silently drops a flow -- every
  closed flow is either annotated (possibly *degraded*), or counted
  ``flows_unattributed``;
* the study's ingest under any injected gap plan is byte-identical to
  a plain day-by-day walk of the same gapped traces, coverage included;
* the coverage report says exactly which spans of which source went
  missing, and analysis consumes it (strict mode refuses, lenient mode
  annotates);
* a journaled run keeps that coverage through its ingest files and
  through a resume.

Outages are cut out of the generated day traces by
:func:`tests.integration.log_gaps.gapped_generation`.
"""

import dataclasses
import json
import os
from typing import NamedTuple

import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.fig1_active_devices import compute_fig1
from repro.config import StudyConfig
from repro.core.study import _ingest
from repro.devices.classifier import DeviceClassifier
from repro.pipeline.dataset import FlowDataset
from repro.pipeline.pipeline import MonitoringPipeline, PipelineStats
from repro.reliability.coverage import CoverageReport
from repro.reliability.errors import CoverageError
from repro.reliability.faults import FaultPlan, LogGap
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import DAY, iter_days, utc_ts
from tests.integration.log_gaps import gapped_generation, seeded_log_gaps

_CONFIG = StudyConfig(n_students=4, seed=11,
                      start_ts=utc_ts(2020, 2, 1),
                      end_ts=utc_ts(2020, 2, 7),
                      visitor_min_days=2)

_N_DAYS = 6


class Ingest(NamedTuple):
    """One measured window: what the study's ingest returns."""

    dataset: FlowDataset
    stats: PipelineStats
    coverage: CoverageReport


def _measure(plan: FaultPlan = FaultPlan(),
             config: StudyConfig = _CONFIG) -> Ingest:
    """The study's ingest of ``config`` with ``plan``'s outages."""
    with gapped_generation(plan):
        return Ingest(*_ingest(config, CampusTraceGenerator(config),
                               lambda message: None))


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
    """The gap-free baseline."""
    return _measure()


@pytest.fixture(scope="module")
def dhcp_gap_run():
    return _measure(FaultPlan(log_gaps=_dhcp_gaps()))


@pytest.fixture(scope="module")
def dns_gap_run():
    return _measure(FaultPlan(log_gaps=_dns_gap()))


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
        config = dataclasses.replace(_CONFIG, dhcp_staleness_seconds=0.0)
        result = _measure(FaultPlan(log_gaps=_dhcp_gaps()), config)
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
        """The study's ingest (days computed ahead in the day pool)
        equals a plain walk that gaps each in-process day itself."""
        plan = FaultPlan(log_gaps=_dhcp_gaps() + _dns_gap())
        measured = _measure(plan)

        generator = CampusTraceGenerator(_CONFIG)
        walk = MonitoringPipeline(_CONFIG, generator.plan.excluded_blocks(
            _CONFIG.excluded_operators))
        for day_start in iter_days(_CONFIG.start_ts, _CONFIG.end_ts):
            walk.ingest_day(plan.drop_log_span(
                generator.generate_day(day_start)))
        assert measured.dataset.identical(walk.finalize())
        assert measured.stats == walk.stats
        assert measured.coverage == walk.coverage_report()
        assert measured.stats.flows_degraded_dhcp > 0
        assert measured.stats.flows_degraded_dns > 0


@pytest.fixture(scope="module")
def dhcp_gap_journaled(tmp_path_factory):
    """One finished journaled run under the DHCP outage, plus the
    digests of its outputs."""
    from repro.core.runner import JournaledRun
    from repro.reliability.crashmatrix import output_digests

    journal_dir = str(tmp_path_factory.mktemp("gap-journal"))
    with gapped_generation(FaultPlan(log_gaps=_dhcp_gaps())):
        result = JournaledRun.start(journal_dir, _CONFIG).execute()
    return result, output_digests(result.run_dir)


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


def _records(run_dir):
    from repro.reliability.journal import JOURNAL_FILE, replay

    return replay(os.path.join(run_dir, JOURNAL_FILE)).records


class TestGapCheckpointResume:
    def test_coverage_survives_the_shard_round_trip(
            self, dhcp_gap_journaled, dhcp_gap_run):
        """A journaled run under a DHCP outage: the coverage its ingest
        stage wrote reads back as exactly the gaps the in-memory run
        saw, next to the same dataset, visitor-filtered."""
        from repro.pipeline.store import load_dataset
        from repro.pipeline.visitors import apply_visitor_filter

        result, _digests = dhcp_gap_journaled
        with open(os.path.join(result.run_dir,
                               "merged.coverage.json")) as fileobj:
            coverage = CoverageReport.from_json(json.load(fileobj))
        assert not coverage.is_complete()
        assert coverage == dhcp_gap_run.coverage
        saved = load_dataset(os.path.join(result.run_dir, "filtered.npz"))
        # The filter consumes its input; the shared fixture stays whole.
        measured = _measure(FaultPlan(log_gaps=_dhcp_gaps())).dataset
        assert saved.identical(
            apply_visitor_filter(measured, _CONFIG.visitor_min_days))

    def test_coverage_survives_checkpoint_resume(self, tmp_path,
                                                 dhcp_gap_journaled):
        """Killed right after the ingest's ``stage_end``: the resume
        replays the ingest, and the gapped coverage the later stages
        read from its files is the coverage the uninterrupted run
        published."""
        from repro.core.runner import JournaledRun
        from repro.reliability.crashmatrix import (
            compare_outputs,
            output_digests,
        )

        result, digests = dhcp_gap_journaled
        ingest_end = next(
            index for index, record in enumerate(_records(result.run_dir))
            if record.kind == "stage_end"
            and record.payload["stage"] == "ingest")
        journal_dir, run_dir = _copy_run(result, tmp_path,
                                         keep_records=ingest_end + 1)

        # Generation is not gapped here: re-running the ingest would
        # lose the outage and change the coverage.
        resumed = JournaledRun.resume(journal_dir, result.run_id).execute()
        assert resumed.replayed == ("ingest",)
        assert resumed.executed == JournaledRun.STAGES[1:]
        assert compare_outputs(digests, output_digests(run_dir)) == []

    def test_corrupt_checkpoint_is_discarded_and_reingested(
            self, tmp_path, dhcp_gap_journaled):
        """Bit rot in a finished run's ingest output: the resume
        re-ingests, and a further resume finds nothing to do."""
        from repro.core.runner import JournaledRun
        from repro.reliability.crashmatrix import (
            compare_outputs,
            output_digests,
        )

        result, digests = dhcp_gap_journaled
        journal_dir, run_dir = _copy_run(result, tmp_path)
        with open(os.path.join(run_dir, "filtered.npz"), "wb") as fileobj:
            fileobj.write(b"bit rot")

        with gapped_generation(FaultPlan(log_gaps=_dhcp_gaps())):
            repaired = JournaledRun.resume(journal_dir,
                                           result.run_id).execute()
        assert repaired.executed == JournaledRun.STAGES
        notes = [record.payload for record in _records(run_dir)
                 if record.kind == "note"]
        assert notes == [{"event": "stage_outputs_invalid",
                          "stage": "ingest"}]
        # The re-run ingest overwrote the rotten file.
        assert compare_outputs(digests, output_digests(run_dir)) == []

        fresh = JournaledRun.resume(journal_dir, result.run_id).execute()
        assert fresh.executed == ()
