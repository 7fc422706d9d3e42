"""End-to-end study orchestration.

:class:`LockdownStudy` wires the whole reproduction together:

1. synthesize the campus and generate wire events day by day;
2. run the monitoring pipeline (tap, flows, DHCP/DNS normalization,
   anonymization);
3. apply the 14-day visitor filter;
4. classify devices and sub-populations;
5. expose every figure/statistic through :class:`StudyArtifacts`.
"""

from __future__ import annotations

import threading
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro import constants
from repro.analysis.context import AnalysisContext
from repro.analysis.fig1_active_devices import Fig1Result, compute_fig1
from repro.analysis.fig2_bytes_per_device import Fig2Result, compute_fig2
from repro.analysis.fig3_hour_of_week import Fig3Result, compute_fig3
from repro.analysis.fig4_subpopulation import Fig4Result, compute_fig4
from repro.analysis.fig5_zoom import Fig5Result, compute_fig5
from repro.analysis.fig6_social import Fig6Result, compute_fig6
from repro.analysis.fig7_steam import Fig7Result, compute_fig7
from repro.analysis.fig8_switch import Fig8Result, compute_fig8
from repro.analysis.common import (
    per_device_day_bytes,
    post_shutdown_device_mask,
    study_day_count,
)
from repro.analysis.summary import (
    SummaryStats,
    compute_summary,
    traffic_vs_baseline,
)
from repro.apps.registry import SignatureRegistry, default_registry
from repro.config import StudyConfig
from repro.devices.classifier import ClassificationResult, DeviceClassifier
from repro.geo.international import InternationalClassifier, MidpointReport
from repro.pipeline.dataset import FlowDataset
from repro.pipeline.pipeline import MonitoringPipeline, PipelineStats
from repro.pipeline.visitors import keep_devices, visitor_filter_mask
from repro.reliability.coverage import CoverageReport
from repro.synth.generator import (
    PRESENCE_ALL_RESIDENTS,
    PRESENCE_STUDY,
    CampusTraceGenerator,
)
from repro.util.timeutil import format_day, utc_ts

ProgressFn = Callable[[str], None]


@dataclass
class StudyArtifacts:
    """Everything a finished study run exposes, with cached analyses."""

    config: StudyConfig
    generator: CampusTraceGenerator
    #: The analysis dataset: visitor-filtered flows. The unfiltered
    #: table it came from is not kept: the filter consumes it, so one
    #: copy of the flows is alive from ingest to report.
    dataset: FlowDataset
    #: Per-device visitor-filter verdicts, indexed like the device
    #: table of the unfiltered dataset.
    retained_devices: np.ndarray
    classification: ClassificationResult
    midpoints: MidpointReport
    post_shutdown_mask: np.ndarray
    signatures: SignatureRegistry
    pipeline_stats: PipelineStats
    #: Memoized analysis primitives shared by every figure and the
    #: summary; created on demand when not provided by the study run.
    context: Optional[AnalysisContext] = None
    #: Telemetry coverage of the ingest behind ``dataset`` (None when
    #: reconstructed from saved data with no coverage sidecar).
    coverage: Optional[CoverageReport] = None
    _cache: Dict[str, object] = field(default_factory=dict)
    _locks: Dict[str, threading.Lock] = field(default_factory=dict,
                                              repr=False)
    _locks_guard: threading.Lock = field(default_factory=threading.Lock,
                                         repr=False)

    #: Every cached analysis, in the order ``compute_all`` runs and
    #: returns them. This tuple is a public contract: it is the
    #: artifact enumeration of the results store
    #: (:mod:`repro.serve`) -- an analysis absent from it is invisible
    #: to ``repro serve``/``repro query`` and unguarded by ``repro
    #: eval`` -- so a new analysis MUST be appended here (and gains a
    #: method of the same name). The key set and order are pinned by
    #: ``tests/core/test_artifact_enumeration.py``.
    ANALYSES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                "fig8", "summary")

    @classmethod
    def artifact_names(cls) -> Tuple[str, ...]:
        """The stable analysis key order (see :attr:`ANALYSES`)."""
        return tuple(cls.ANALYSES)

    def __post_init__(self) -> None:
        if self.context is None:
            self.context = AnalysisContext(self.dataset)

    # -- sub-population masks ------------------------------------------

    @property
    def international_mask(self) -> np.ndarray:
        return self.midpoints.is_international

    # -- figures ----------------------------------------------------------

    def fig1(self) -> Fig1Result:
        return self._cached("fig1", lambda: compute_fig1(
            self.dataset, self.classification, ctx=self.context))

    def fig2(self) -> Fig2Result:
        return self._cached("fig2", lambda: compute_fig2(
            self.dataset, self.classification, ctx=self.context))

    def fig3(self) -> Fig3Result:
        return self._cached("fig3", lambda: compute_fig3(
            self.dataset, device_mask=self.post_shutdown_mask))

    def fig4(self) -> Fig4Result:
        return self._cached("fig4", lambda: compute_fig4(
            self.dataset, self.classification, self.international_mask,
            self.post_shutdown_mask, self.signatures.get("zoom"),
            ctx=self.context))

    def fig5(self) -> Fig5Result:
        return self._cached("fig5", lambda: compute_fig5(
            self.dataset, self.signatures.get("zoom"),
            self.post_shutdown_mask, constants.BREAK_END,
            ctx=self.context))

    def fig6(self) -> Fig6Result:
        return self._cached("fig6", lambda: compute_fig6(
            self.dataset, self.classification, self.international_mask,
            self.post_shutdown_mask, ctx=self.context))

    def fig7(self) -> Fig7Result:
        return self._cached("fig7", lambda: compute_fig7(
            self.dataset, self.international_mask, self.post_shutdown_mask,
            ctx=self.context))

    def fig8(self) -> Fig8Result:
        return self._cached("fig8", lambda: compute_fig8(
            self.dataset, self.classification.is_switch,
            ctx=self.context))

    def summary(self) -> SummaryStats:
        return self._cached("summary", lambda: compute_summary(
            self.dataset, self.fig1().total, self.post_shutdown_mask,
            self.international_mask, ctx=self.context))

    def compute_all(self) -> Dict[str, object]:
        """Compute every figure and the summary; returns them by name.

        The returned mapping's keys are exactly :attr:`ANALYSES`, in
        that order -- the results store iterates it to enumerate a
        run's artifacts. The shared context is warmed first so the
        cross-figure primitives (signature masks, day matrix, activity
        bitmap, site table) are each built exactly once up front.
        """
        self.context.warm(
            signatures=(self.signatures.get("zoom"),),
            n_days=study_day_count(self.dataset))
        return {name: getattr(self, name)() for name in self.ANALYSES}

    def _cached(self, key: str, compute: Callable[[], object]):
        # Double-checked per-key locking: concurrent callers of the
        # same analysis (serve request threads sharing one study)
        # compute it once (the rest wait), while distinct analyses
        # never serialize against each other here.
        if key in self._cache:
            return self._cache[key]
        with self._locks_guard:
            lock = self._locks.setdefault(key, threading.Lock())
        with lock:
            if key not in self._cache:
                self._cache[key] = compute()
        return self._cache[key]


class LockdownStudy:
    """Run the full reproduction for one configuration.

    The study and its two comparison arms (the no-pandemic
    counterfactual and the 2019 baseline) share one ingest
    (:func:`_ingest`, which the journaled runner uses too) and one
    artifact assembly (:func:`_assemble`);
    they differ only in what they simulate. A run is in-memory and not
    resumable: :class:`~repro.core.runner.JournaledRun` is the
    crash-safe, resumable entry point.
    """

    def __init__(self, config: Optional[StudyConfig] = None):
        self.config = config or StudyConfig()

    def run(self, progress: Optional[ProgressFn] = None, *,
            strict_coverage: bool = False) -> StudyArtifacts:
        """Generate, measure, classify; returns the artifacts.

        ``strict_coverage=True`` makes the run fail (with
        :class:`~repro.reliability.errors.CoverageError`) if any
        telemetry source had gaps.
        """
        report = progress or _silent
        config = self.config

        generator = CampusTraceGenerator(config)
        report(f"population: {generator.population.counts()}")
        dataset_all, pipeline_stats, coverage = _ingest(
            config, generator, report)
        report(f"pipeline done: {len(dataset_all)} flows, "
               f"{dataset_all.n_devices} devices")
        return _assemble(config, generator, dataset_all, pipeline_stats,
                         coverage, report, strict_coverage=strict_coverage)

    # -- reconstruction from saved data --------------------------------------

    @classmethod
    def artifacts_from_dataset(
            cls, config: StudyConfig, dataset: FlowDataset, *,
            coverage: Optional[CoverageReport] = None,
            pipeline_stats: Optional[PipelineStats] = None,
    ) -> StudyArtifacts:
        """Rebuild analysis artifacts around a saved (filtered) dataset.

        The address plan, OUI registry and signatures are deterministic
        functions of the catalog, so a dataset persisted with
        :func:`repro.pipeline.store.save_dataset` is enough to recompute
        every figure without re-running the simulation or pipeline.
        Passing the run's saved ``coverage`` and ``pipeline_stats``
        sidecars back in makes the rebuilt artifacts match
        :meth:`run`'s exactly (the journaled-resume path relies on
        this); without them the artifacts carry no coverage and
        zeroed counters.
        """
        return _assemble(
            config, CampusTraceGenerator(config), dataset,
            pipeline_stats if pipeline_stats is not None
            else PipelineStats(),
            coverage, _silent, prefiltered=True)

    # -- no-pandemic counterfactual -------------------------------------------

    def run_counterfactual(self,
                           progress: Optional[ProgressFn] = None
                           ) -> StudyArtifacts:
        """Run the control arm of the natural experiment.

        Same population, same window, but the pandemic never happens:
        behaviour is pinned to the pre-pandemic phase and nobody leaves
        campus. Comparing this run's figures against the real study
        isolates the lock-down's effect from seasonal/term structure.
        """
        from repro.synth.timeline import Phase

        report = progress or _silent
        config = self.config

        generator = CampusTraceGenerator(config,
                                         phase_override=Phase.PRE)
        report("counterfactual: pandemic disabled, nobody departs")
        dataset_all, pipeline_stats, coverage = _ingest(
            config, generator, report, presence=PRESENCE_ALL_RESIDENTS)
        report(f"counterfactual pipeline done: {len(dataset_all)} flows")
        return _assemble(config, generator, dataset_all, pipeline_stats,
                         coverage, report)

    # -- prior-year baseline ------------------------------------------------

    def run_baseline_2019(self, artifacts: StudyArtifacts,
                          progress: Optional[ProgressFn] = None, *,
                          window: Optional[Tuple[float, float]] = None,
                          ) -> float:
        """Attach the +X% vs-2019 statistic; returns the fraction.

        Simulates the same population over April/May of the prior year
        under pre-pandemic behaviour (everyone in residence), measures
        it through a fresh pipeline, and compares the post-shutdown
        cohort's April/May traffic year over year by anonymized device
        token.

        ``window`` overrides the measured range (tests use a shorter
        one).
        """
        report = progress or _silent
        config = self.config
        start, end = window or (utc_ts(2019, 4, 1), utc_ts(2019, 6, 1))

        baseline, _, _ = _ingest(
            config, CampusTraceGenerator(config), report,
            presence=PRESENCE_ALL_RESIDENTS, window=(start, end),
            day0=start)
        report(f"2019 baseline: {len(baseline)} flows")

        cohort_mask = cohort_token_mask(artifacts.dataset,
                                        artifacts.post_shutdown_mask,
                                        baseline)

        n_days = study_day_count(baseline, end)
        matrix = per_device_day_bytes(baseline, n_days)
        baseline_bytes = float(matrix[cohort_mask].sum())

        summary = artifacts.summary()
        increase = traffic_vs_baseline(
            summary.aprmay_total_bytes, baseline_bytes)
        summary.traffic_increase_vs_2019 = increase
        return increase


def _silent(message: str) -> None:
    """The progress sink when the caller passes none."""


def _ingest(config: StudyConfig, generator: CampusTraceGenerator,
            report: ProgressFn, *,
            presence: str = PRESENCE_STUDY,
            window: Optional[Tuple[float, float]] = None,
            day0: Optional[float] = None,
            ) -> Tuple[FlowDataset, PipelineStats, CoverageReport]:
    """Generate and measure one arm; returns (dataset, stats, coverage).

    The one ingest of every arm and of the journaled runner: one
    :class:`MonitoringPipeline` walks the window's days in order, in
    this process, while ``generator`` computes upcoming days in its day
    pool. Progress is reported once per simulated week, so a progress
    hook that raises (the serve tier's deadline check) can abort any
    arm mid-ingest. ``window`` overrides the config's study window and
    ``day0`` the dataset's day-index origin.
    """
    start, end = window or (None, None)
    pipeline = MonitoringPipeline(
        config, generator.plan.excluded_blocks(config.excluded_operators),
        day0=day0)
    # Closed explicitly, so a progress hook that raises (a deadline)
    # leaves no generation worker behind.
    with closing(generator.iter_days(start, end,
                                     presence=presence)) as traces:
        for trace in traces:
            pipeline.ingest_day(trace)
            if trace.day_start % (7 * 86400.0) < 86400.0:
                report(f"ingested {format_day(trace.day_start)} "
                       f"({len(pipeline.builder)} flows so far)")
    return pipeline.finalize(), pipeline.stats, pipeline.coverage_report()


def _assemble(config: StudyConfig, generator: CampusTraceGenerator,
              dataset_all: FlowDataset, pipeline_stats: PipelineStats,
              coverage: Optional[CoverageReport], report: ProgressFn, *,
              prefiltered: bool = False,
              strict_coverage: bool = False) -> StudyArtifacts:
    """Visitor-filter and classify a measured dataset.

    ``prefiltered`` marks ``dataset_all`` as already visitor-filtered
    (a saved dataset): every device is then retained as is. Otherwise
    the filter consumes ``dataset_all`` (:func:`keep_devices`).
    """
    if prefiltered:
        retained = np.ones(dataset_all.n_devices, dtype=bool)
        dataset = dataset_all
    else:
        retained = visitor_filter_mask(dataset_all,
                                       config.visitor_min_days)
        dataset = keep_devices(dataset_all, retained)
        report(f"visitor filter: kept {int(retained.sum())} of "
               f"{dataset_all.n_devices} devices")

    classification = DeviceClassifier(
        oui_db=generator.oui_db).classify(dataset)
    report(f"device classes: {classification.counts()}")
    midpoints = InternationalClassifier(
        generator.plan.geo_db, config.geo_excluded_domains).classify(dataset)

    # One shared context: the bitmap behind the post-shutdown mask
    # is the same one the figures will query.
    context = AnalysisContext(dataset, coverage=coverage,
                              strict_coverage=strict_coverage)
    post_shutdown = post_shutdown_device_mask(
        dataset, bitmap=context.day_bitmap())
    report(f"post-shutdown devices: {int(post_shutdown.sum())}, "
           f"international: "
           f"{int((midpoints.is_international & post_shutdown).sum())}")

    return StudyArtifacts(
        config=config,
        generator=generator,
        dataset=dataset,
        retained_devices=retained,
        classification=classification,
        midpoints=midpoints,
        post_shutdown_mask=post_shutdown,
        signatures=default_registry(generator.plan.zoom_publication()),
        pipeline_stats=pipeline_stats,
        context=context,
        coverage=coverage,
    )


def cohort_token_mask(study_dataset: FlowDataset,
                      cohort_mask: np.ndarray,
                      baseline: FlowDataset) -> np.ndarray:
    """Mark baseline devices belonging to a study cohort, by token.

    Anonymized device tokens are stable across runs of the same
    population, so a study cohort maps onto a baseline year's devices
    by token equality -- one vectorized ``np.isin`` over the two token
    arrays rather than a per-profile set probe.
    """
    if baseline.n_devices == 0:
        return np.zeros(0, dtype=bool)
    cohort_indices = np.flatnonzero(cohort_mask)
    if cohort_indices.size == 0:
        return np.zeros(baseline.n_devices, dtype=bool)
    baseline_tokens = np.array(
        [profile.token for profile in baseline.devices])
    cohort_tokens = np.array(
        [study_dataset.devices[index].token for index in cohort_indices])
    return np.isin(baseline_tokens, cohort_tokens)
