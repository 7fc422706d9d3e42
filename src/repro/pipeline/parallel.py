"""Sharded parallel ingest: the study window split across processes.

The serial :class:`~repro.pipeline.pipeline.MonitoringPipeline` walks
every day of the window in one process. This module partitions the
window into contiguous day-range *shards*, runs one full
generate-and-measure pipeline per shard in a worker process
(``concurrent.futures.ProcessPoolExecutor``), and merges the per-shard
datasets and stats deterministically.

Equivalence to the serial run is exact, not approximate, and rests on
the fact that every piece of cross-day measurement state is bounded in
time:

* **flow engine** -- an open flow survives at most ``flow_idle_timeout``
  (default 600 s) past its last burst;
* **DHCP attribution** -- every ACK (grant *and* renewal) is logged and
  clients renew at half-lease, so any attributable flow has a
  supporting ACK at most ``dhcp_lease_seconds`` (default 12 h) old;
* **DNS annotation** -- an observation stops annotating after the
  freshness window (default 48 h).

Each shard therefore re-generates a **warm-up** horizon (enough whole
days to cover the largest of those bounds) before its owned range to
rebuild that state, plus a one-day **tail** after it to let flows that
straddle its end idle out. Generation of an arbitrary day sub-range is
reproducible because every simulation decision derives from
``(seed, named substream)`` -- a fresh generator over ``[a, b)`` emits
the same sessions and bursts as the full run does for those days
(client IPs may differ, but those never reach the dataset).

The boundary-dedupe rule: **a flow belongs to the shard that owns the
day of its first burst**. It is enforced at registration time via
``MonitoringPipeline``'s ``owned_window``, so warm-up and tail flows
never enter a shard's builder or stats and the merge sees every flow
exactly once. The merged dataset is canonicalized
(:meth:`~repro.pipeline.dataset.FlowDataset.canonicalize`), making the
result independent of shard count and byte-identical to a canonicalized
serial run -- asserted by the golden tests in
``tests/pipeline/test_parallel.py``.

Each worker's pipeline runs the batch-vectorized :mod:`repro.columnar`
ingest core, and ``tests/pipeline/test_columnar.py`` pins
serial==parallel identity on it, including under crash-retry.

Fault tolerance (see :mod:`repro.reliability` and the chaos suite in
``tests/integration/test_chaos.py``):

* a shard failing with a *transient* error -- an I/O hiccup or a dead
  worker process (``BrokenProcessPool``) -- is retried on a fresh
  process under a deterministic exponential-backoff
  :class:`~repro.reliability.retry.RetryPolicy`; only exhausted retries
  or *fatal* errors abort, and then the pool is shut down with
  ``cancel_futures=True`` so no sibling shard leaks;
* with a ``checkpoint_dir``, every completed shard's canonicalized
  dataset, stats and coverage report are persisted through a
  :class:`~repro.reliability.checkpoint.CheckpointStore` keyed by
  ``(config, shard plan)``; a rerun loads finished shards instead of
  re-executing them, so a killed multi-hour run resumes where it died
  (:class:`~repro.core.runner.JournaledRun`, the one resumable entry
  point, is the only production caller that passes a
  ``checkpoint_dir``).
  A checkpoint that reads back corrupt is discarded, counted
  (``PipelineStats.checkpoints_invalid``) and re-ingested instead of
  aborting the resume;
* with a ``shard_deadline``, a :class:`~repro.reliability.watchdog`
  supervisor watches per-shard heartbeat files while futures are in
  flight: a shard that stops making progress is killed (its worker
  terminated, the pool rebuilt), classified transient
  (:class:`~repro.reliability.watchdog.WatchdogTimeout`) and re-queued
  under the same retry policy, while a per-shard circuit breaker fails
  the run cleanly after ``circuit_limit`` consecutive timeouts.

Telemetry gaps (``FaultPlan.log_gaps``) are applied worker-side via
:meth:`~repro.reliability.faults.FaultPlan.drop_log_span` before each
day is ingested -- warm-up days included, so shard resolver state
matches the serial run's. Because degraded annotation can look further
back than clean annotation (a held-over lease, gap-discounted DNS
staleness), the planner widens every shard's warm-up by
:func:`gap_warmup_allowance`; without it a shard would miss resolver
state the serial run has, breaking serial==parallel equivalence.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import StudyConfig
from repro.dns.mapping import DEFAULT_FRESHNESS_SECONDS
from repro.pipeline.dataset import FlowDataset
from repro.pipeline.pipeline import MonitoringPipeline, PipelineStats
from repro.reliability.checkpoint import CheckpointStore
from repro.reliability.coverage import CoverageReport
from repro.reliability.errors import CheckpointError, ShardError, is_transient
from repro.reliability.faults import FaultPlan, LogGap, maybe_crash
from repro.reliability.retry import RetryPolicy
from repro.reliability.watchdog import (
    ShardWatchdog,
    WatchdogPolicy,
    WatchdogTimeout,
    read_heartbeat,
    write_heartbeat,
)
from repro.util.timeutil import DAY, format_day, iter_days

#: Days re-processed after a shard's owned range so flows whose first
#: burst falls on its last owned day can close naturally. One day is a
#: generous bound: sessions end at their day's cutoff, so a flow only
#: outlives its first day through idle-timeout chaining.
DEFAULT_TAIL_SECONDS = DAY

ProgressFn = Callable[[str], None]


class ShardFailure(ShardError):
    """A shard's ingest is lost: fatal error or retries exhausted."""

    def __init__(self, spec: "ShardSpec", cause: BaseException,
                 attempts: int = 1):
        retried = f" after {attempts} attempt(s)" if attempts > 1 else ""
        super().__init__(
            f"shard {spec.index + 1}/{spec.n_shards} "
            f"({spec.describe()}) failed{retried}: {cause!r}")
        self.spec = spec
        self.attempts = attempts


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous day-range shard of the study window."""

    index: int
    n_shards: int
    #: Half-open ownership interval; None bounds are unbounded so the
    #: first/last shards also own any stray flow outside the window.
    owned_start: Optional[float]
    owned_end: Optional[float]
    #: Generation range actually processed (warm-up + owned + tail).
    gen_start: float
    gen_end: float

    def describe(self) -> str:
        """Human-readable owned day range, e.g. for failure messages."""
        first = format_day(self.gen_start if self.owned_start is None
                           else self.owned_start)
        last = format_day((self.gen_end if self.owned_end is None
                           else self.owned_end) - 1.0)
        return f"days {first}..{last}"


def default_warmup_seconds(config: StudyConfig) -> float:
    """Warm-up horizon: the largest cross-day state bound, whole days."""
    horizon = max(config.flow_idle_timeout, config.dhcp_lease_seconds,
                  DEFAULT_FRESHNESS_SECONDS)
    return math.ceil(horizon / DAY) * DAY


def gap_warmup_allowance(config: StudyConfig,
                         gaps: Sequence[LogGap]) -> float:
    """Extra warm-up (whole days) demanded by degraded annotation.

    Degraded lookups reach further back than clean ones: a held-over
    lease's ACK can be ``dhcp_lease_seconds + dhcp_staleness_seconds``
    old, and gap-discounted DNS staleness extends the effective
    freshness window by up to the total injected DNS-gap duration. The
    planner adds this allowance so every shard's warm-up still covers
    the serial run's effective lookback -- the invariant the
    serial==parallel golden tests rest on.
    """
    extra = 0.0
    if any(gap.source == "dhcp" for gap in gaps):
        extra = max(extra, config.dhcp_lease_seconds
                    + config.dhcp_staleness_seconds)
    dns_total = sum(gap.end - gap.start
                    for gap in gaps if gap.source == "dns")
    if dns_total > 0:
        extra = max(extra, dns_total)
    if extra <= 0:
        return 0.0
    return math.ceil(extra / DAY) * DAY


def plan_shards(config: StudyConfig, n_shards: int,
                warmup_seconds: Optional[float] = None,
                tail_seconds: float = DEFAULT_TAIL_SECONDS,
                window: Optional[Tuple[float, float]] = None,
                ) -> List[ShardSpec]:
    """Split the study window into contiguous, balanced day shards.

    Owned ranges partition the window's days exactly; generation ranges
    extend each shard by the warm-up and tail horizons, clamped to the
    window. Requests for more shards than days are capped. ``window``
    overrides the config's ``(start_ts, end_ts)`` -- used by the 2019
    baseline, which measures the same population over a different
    calendar range.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if warmup_seconds is None:
        warmup_seconds = default_warmup_seconds(config)
    window_start, window_end = window or (config.start_ts, config.end_ts)
    day_starts = list(iter_days(window_start, window_end))
    n_days = len(day_starts)
    n_shards = min(n_shards, n_days)

    base, extra = divmod(n_days, n_shards)
    shards: List[ShardSpec] = []
    cursor = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        first_day = day_starts[cursor]
        cursor += size
        end_ts = (day_starts[cursor] if cursor < n_days
                  else day_starts[-1] + DAY)
        shards.append(ShardSpec(
            index=index,
            n_shards=n_shards,
            owned_start=None if index == 0 else first_day,
            owned_end=None if index == n_shards - 1 else end_ts,
            gen_start=max(window_start, first_day - warmup_seconds),
            gen_end=min(window_end, end_ts + tail_seconds),
        ))
    return shards


@dataclass(frozen=True)
class _ShardTask:
    """Everything a worker process needs (must stay picklable)."""

    config: StudyConfig
    spec: ShardSpec
    presence: str
    phase_override: Optional[str]
    #: Test hook: raise before generating this day (failure injection).
    fault_day: Optional[float]
    #: Chaos hook: seeded kill/transient faults (attempt-aware).
    faults: Optional[FaultPlan] = None
    #: 0-based attempt number; lets the fault injector fire on chosen
    #: attempts so tests can prove *recovery*, not just failure.
    attempt: int = 0
    #: Dataset day-index origin override (baseline windows measure a
    #: different calendar range than the config's study window).
    day0: Optional[float] = None
    #: Heartbeat file this worker touches once per ingested day; set
    #: only when the shard watchdog is enabled.
    heartbeat_path: Optional[str] = None


class InjectedShardFault(RuntimeError):
    """Raised inside a worker by the failure-injection test hook."""


def _ingest_shard(
        task: _ShardTask,
) -> Tuple[FlowDataset, PipelineStats, CoverageReport]:
    """Worker entry point: generate and measure one shard's day range."""
    # Imported here so pool workers pay the simulation imports, not the
    # parent at module-import time.
    from repro.synth.generator import CampusTraceGenerator

    config, spec = task.config, task.spec
    if task.heartbeat_path is not None:
        # First beat before the fault hook: a hang fault then freezes
        # the fingerprint, which is exactly what the watchdog detects.
        write_heartbeat(task.heartbeat_path, task.attempt, 0)
    if task.faults is not None:
        task.faults.apply(spec.index, task.attempt)
    generator = CampusTraceGenerator(config,
                                     phase_override=task.phase_override)
    excluded = generator.plan.excluded_blocks(config.excluded_operators)
    pipeline = MonitoringPipeline(
        config, excluded,
        owned_window=(spec.owned_start, spec.owned_end),
        day0=task.day0)
    days_done = 0
    for trace in generator.iter_days(spec.gen_start, spec.gen_end,
                                     presence=task.presence):
        if task.fault_day is not None and trace.day_start >= task.fault_day:
            raise InjectedShardFault(
                f"injected fault at {format_day(task.fault_day)}")
        if task.faults is not None:
            # Warm-up days included: gap-shaped resolver state must
            # match what the serial run built for these days.
            trace = task.faults.drop_log_span(trace)
        pipeline.ingest_day(trace)
        days_done += 1
        if task.heartbeat_path is not None:
            write_heartbeat(task.heartbeat_path, task.attempt, days_done)
    return pipeline.finalize(), pipeline.stats, pipeline.coverage_report()


@dataclass
class ParallelResult:
    """The merged outcome of a sharded ingest."""

    dataset: FlowDataset
    stats: PipelineStats
    shard_stats: List[PipelineStats]
    shards: List[ShardSpec]
    #: Shard indices recalled from the checkpoint store (not executed).
    resumed: List[int] = field(default_factory=list)
    #: Attempts consumed per executed shard index (1 = first try worked).
    attempts: Dict[int, int] = field(default_factory=dict)
    #: Merged telemetry coverage across all owned days.
    coverage: CoverageReport = field(default_factory=CoverageReport.empty)


class ParallelPipeline:
    """Orchestrates sharded generate-and-measure across processes."""

    def __init__(self, config: StudyConfig, workers: int = 2, *,
                 presence: str = "study",
                 phase_override: Optional[str] = None,
                 warmup_seconds: Optional[float] = None,
                 tail_seconds: float = DEFAULT_TAIL_SECONDS,
                 fault_day: Optional[float] = None,
                 faults: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 checkpoint_dir: Optional[str] = None,
                 window: Optional[Tuple[float, float]] = None,
                 day0: Optional[float] = None,
                 shard_deadline: Optional[float] = None,
                 watchdog_policy: Optional[WatchdogPolicy] = None,
                 clock: Callable[[], float] = time.monotonic):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.config = config
        self.workers = workers
        if faults is not None and faults.log_gaps:
            if warmup_seconds is None:
                warmup_seconds = default_warmup_seconds(config)
            warmup_seconds += gap_warmup_allowance(config, faults.log_gaps)
        self.shards = plan_shards(config, workers,
                                  warmup_seconds=warmup_seconds,
                                  tail_seconds=tail_seconds,
                                  window=window)
        self.retry_policy = retry_policy or RetryPolicy(
            # reprolint: allow[RL008] -- retry budget is operational; crash matrix proves byte-identical outputs across retry counts
            max_attempts=config.max_shard_retries + 1, seed=config.seed)
        self.checkpoint_dir = checkpoint_dir
        if watchdog_policy is None:
            watchdog_policy = WatchdogPolicy(deadline_seconds=shard_deadline)
        elif shard_deadline is not None:
            raise ValueError(
                "pass shard_deadline or watchdog_policy, not both")
        self.watchdog_policy = watchdog_policy
        self._clock = clock
        self._timeouts = 0
        #: Cumulative backoff requested per shard index; what the retry
        #: policy's ``total_deadline`` is charged against. Tracked as
        #: the sum of scheduled delays (never a wall clock) so the
        #: retry schedule stays bit-reproducible.
        self._retry_elapsed: Dict[int, float] = {}
        #: Accounting for the last pool run (submitted/completed/
        #: cancelled/orphaned futures); lets tests assert that a failed
        #: run leaked nothing. ``None`` until a pool run happens.
        self.last_pool_stats: Optional[Dict[str, int]] = None
        self._tasks = [
            _ShardTask(config=config, spec=spec, presence=presence,
                       phase_override=phase_override, fault_day=fault_day,
                       faults=faults, day0=day0)
            for spec in self.shards
        ]

    def run(self, progress: Optional[ProgressFn] = None) -> ParallelResult:
        """Run every shard and merge; raises :class:`ShardFailure`.

        Worker processes are always joined before this method returns,
        whether it succeeds or raises -- a failed run leaves no zombie
        workers and no partial state behind. Transient shard failures
        are retried per ``retry_policy``; with a ``checkpoint_dir``,
        completed shards are persisted as they finish and recalled on
        the next run instead of re-executed.
        """
        report = progress or (lambda message: None)
        report(f"parallel ingest: {len(self.shards)} shard(s), "
               f"{self.workers} worker(s)")

        self._timeouts = 0
        self._retry_elapsed = {}
        store = (None if self.checkpoint_dir is None
                 else CheckpointStore.for_run(self.checkpoint_dir,
                                              self.config, self.shards))
        outcomes: Dict[int, Tuple[FlowDataset, PipelineStats,
                                  CoverageReport]] = {}
        resumed: List[int] = []
        invalid_checkpoints = 0
        if store is not None:
            for index in store.completed_indices():
                if index >= len(self.shards):
                    continue
                try:
                    outcomes[index] = store.load_shard(index)
                except CheckpointError as exc:
                    # A torn/corrupt checkpoint is just missing work:
                    # discard it, count it, re-ingest the shard.
                    report(f"checkpoint for shard {index + 1} is "
                           f"corrupt; re-ingesting ({exc})")
                    store.discard(index)
                    invalid_checkpoints += 1
                    continue
                resumed.append(index)
            if resumed:
                report(f"resume: {len(resumed)} of {len(self.shards)} "
                       f"shard(s) recalled from checkpoints")

        todo = [task for task in self._tasks
                if task.spec.index not in outcomes]

        def complete(index: int,
                     outcome: Tuple[FlowDataset, PipelineStats,
                                    CoverageReport]) -> None:
            if store is not None:
                # Canonicalize before persisting: the checkpoint must be
                # byte-stable however the shard accumulated its rows.
                outcome = (outcome[0].canonicalize(), outcome[1],
                           outcome[2])
                store.save_shard(index, *outcome)
                # Mid-stage SIGKILL point for the crash-chaos harness:
                # some shards checkpointed, the stage's journal record
                # not yet written.
                maybe_crash("mid:ingest:shard")
            outcomes[index] = outcome

        if not todo:
            attempts: Dict[int, int] = {}
        elif self.workers == 1:
            attempts = self._run_inline(todo, complete, report)
        else:
            attempts = self._run_pool(todo, complete, report)

        ordered = [outcomes[spec.index] for spec in self.shards]
        datasets = [dataset for dataset, _, _ in ordered]
        shard_stats = [stats for _, stats, _ in ordered]
        coverage = CoverageReport.merged(cov for _, _, cov in ordered)
        for spec, (dataset, stats, _) in zip(self.shards, ordered):
            report(f"shard {spec.index + 1}/{spec.n_shards} "
                   f"({spec.describe()}): {len(dataset)} flows, "
                   f"attribution {stats.attribution_rate:.3f}")
        merged = FlowDataset.merge(datasets)
        report(f"merged {len(self.shards)} shard(s): {len(merged)} flows, "
               f"{merged.n_devices} devices")
        if not coverage.is_complete():
            report("coverage: telemetry gaps detected -- "
                   + ", ".join(
                       f"{source} {coverage.fraction(source):.3f}"
                       for source in ("conn", "dhcp", "dns")))
        stats = PipelineStats.merged(shard_stats)
        orphans_swept = store.orphans_swept if store is not None else 0
        if invalid_checkpoints or self._timeouts or orphans_swept:
            # Parent-side supervision counters: never checkpointed per
            # shard, folded in after the merge.
            stats = stats.merge(PipelineStats(
                checkpoints_invalid=invalid_checkpoints,
                shard_timeouts=self._timeouts,
                checkpoint_orphans_swept=orphans_swept))
        return ParallelResult(
            dataset=merged,
            stats=stats,
            shard_stats=shard_stats,
            shards=list(self.shards),
            resumed=sorted(resumed),
            attempts=attempts,
            coverage=coverage,
        )

    # -- internals ---------------------------------------------------------

    def _allows_retry(self, index: int, attempt: int) -> bool:
        """Attempt budget *and* the policy's cumulative-delay deadline."""
        return self.retry_policy.allows_retry(
            attempt, self._retry_elapsed.get(index, 0.0))

    def _backoff(self, spec: ShardSpec, attempt: int,
                 cause: BaseException, report: ProgressFn) -> None:
        elapsed = self._retry_elapsed.get(spec.index, 0.0)
        delay = self.retry_policy.delay(spec.index, attempt, elapsed)
        report(f"shard {spec.index + 1}/{spec.n_shards} attempt "
               f"{attempt + 1} failed transiently ({cause!r}); "
               f"retrying in {delay:.2f}s")
        if delay > 0:
            time.sleep(delay)
        self._retry_elapsed[spec.index] = elapsed + delay

    def _run_inline(self, tasks, complete, report) -> Dict[int, int]:
        attempts: Dict[int, int] = {}
        for task in tasks:
            attempt = 0
            while True:
                try:
                    outcome = _ingest_shard(replace(task, attempt=attempt))
                # Broad on purpose (RL004-compliant): every failure is
                # classified by the taxonomy -- transient ones retry,
                # the rest re-raise wrapped as ShardFailure.
                except Exception as exc:
                    if (is_transient(exc)
                            and self._allows_retry(task.spec.index,
                                                   attempt)):
                        self._backoff(task.spec, attempt, exc, report)
                        attempt += 1
                        continue
                    raise ShardFailure(task.spec, exc, attempt + 1) from exc
                attempts[task.spec.index] = attempt + 1
                complete(task.spec.index, outcome)
                break
        return attempts

    def _new_pool(self, n_tasks: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=min(self.workers, n_tasks))

    def _run_pool(self, tasks, complete, report) -> Dict[int, int]:
        """Pool loop with retry, rebuild-on-worker-death, and cleanup.

        Invariants: every submitted future is either collected, retried,
        or cancelled via ``shutdown(cancel_futures=True)`` before this
        method returns -- no orphaned futures, no zombie workers. With a
        watchdog deadline, the ``wait`` below polls so heartbeats are
        observed while futures are in flight; without one, it blocks
        exactly as before.
        """
        attempts = {task.spec.index: 0 for task in tasks}
        submitted = 0
        completed = 0
        pool = self._new_pool(len(tasks))
        futures: Dict[Future, _ShardTask] = {}
        #: Tasks awaiting (re)submission; drained at each loop top so a
        #: pool death during submission is handled in one place.
        pending: List[_ShardTask] = list(tasks)
        policy = self.watchdog_policy
        watchdog = ShardWatchdog(policy, clock=self._clock)
        heartbeat_dir: Optional[str] = None
        if policy.enabled:
            heartbeat_dir = tempfile.mkdtemp(prefix="repro-heartbeat-")

        def heartbeat_path(index: int) -> Optional[str]:
            if heartbeat_dir is None:
                return None
            return os.path.join(heartbeat_dir, f"shard-{index:04d}.beat")

        def reclaim(exc: BaseException) -> None:
            # The pool is dead: every in-flight future fails with it
            # too, and the true culprit is unknowable from the parent.
            # Charge an attempt to every reclaimed shard (all are
            # suspects), requeue them, and rebuild the pool -- this is
            # what puts a retried shard on a *fresh* process.
            nonlocal pool
            doomed = list(futures.values())
            futures.clear()
            pool.shutdown(wait=True)
            for victim in doomed:
                attempt = attempts[victim.spec.index]
                if not self._allows_retry(victim.spec.index, attempt):
                    raise ShardFailure(victim.spec, exc,
                                       attempt + 1) from exc
            report(f"worker pool died ({exc!r}); rebuilding with "
                   f"{len(doomed) + len(pending)} shard(s) outstanding")
            for victim in doomed:
                self._backoff(victim.spec, attempts[victim.spec.index],
                              exc, report)
                attempts[victim.spec.index] += 1
            pending.extend(doomed)
            pool = self._new_pool(len(pending))

        def reclaim_stalled(stalled: List[_ShardTask]) -> None:
            # Unlike a pool death, the watchdog *knows* the culprits: the
            # stalled shards are charged an attempt (and a consecutive
            # timeout toward their circuit breaker); in-flight siblings
            # are requeued uncharged. The wedged workers cannot be
            # cancelled through the futures API -- terminate them and
            # rebuild the pool.
            nonlocal pool
            stalled_indices = {task.spec.index for task in stalled}
            doomed = list(futures.values())
            futures.clear()
            for process in list(getattr(pool, "_processes", {}).values()):
                process.terminate()
            pool.shutdown(wait=True, cancel_futures=True)
            for victim in doomed:
                index = victim.spec.index
                if index not in stalled_indices:
                    continue
                self._timeouts += 1
                strikes = watchdog.record_timeout(index)
                cause = WatchdogTimeout(
                    f"shard {index + 1}/{victim.spec.n_shards} made no "
                    f"progress for {policy.deadline_seconds}s "
                    f"(strike {strikes})")
                if watchdog.tripped(index):
                    raise ShardFailure(victim.spec, WatchdogTimeout(
                        f"circuit breaker open: {strikes} consecutive "
                        f"watchdog timeouts"), attempts[index] + 1)
                attempt = attempts[index]
                if not self._allows_retry(index, attempt):
                    raise ShardFailure(victim.spec, cause, attempt + 1)
                self._backoff(victim.spec, attempt, cause, report)
                attempts[index] += 1
            report(f"watchdog: killed {len(stalled_indices)} stalled "
                   f"shard(s); rebuilding pool with "
                   f"{len(doomed) + len(pending)} outstanding")
            pending.extend(doomed)
            pool = self._new_pool(len(pending))

        def submit_pending() -> None:
            nonlocal submitted
            while pending:
                task = pending[0]
                try:
                    future = pool.submit(
                        _ingest_shard,
                        replace(task, attempt=attempts[task.spec.index],
                                heartbeat_path=heartbeat_path(
                                    task.spec.index)))
                except BrokenProcessPool as exc:
                    # The pool broke between our last observation and
                    # this submit (e.g. a sibling worker was killed);
                    # reclaim the in-flight shards and retry on the
                    # rebuilt pool. ``task`` stays queued.
                    reclaim(exc)
                    continue
                futures[future] = task
                watchdog.start(task.spec.index)
                submitted += 1
                pending.pop(0)

        try:
            while futures or pending:
                submit_pending()
                done, _ = wait(set(futures), return_when=FIRST_COMPLETED,
                               timeout=(policy.poll_seconds
                                        if policy.enabled else None))
                if not done:
                    # Poll tick: feed heartbeats, kill anything stalled.
                    for in_flight in futures.values():
                        index = in_flight.spec.index
                        watchdog.beat(
                            index, read_heartbeat(heartbeat_path(index)))
                    stalled = [in_flight for in_flight in futures.values()
                               if watchdog.stalled(in_flight.spec.index)]
                    if stalled:
                        reclaim_stalled(stalled)
                    continue
                future = next(iter(done))
                task = futures.pop(future)
                spec = task.spec
                try:
                    outcome = future.result()
                except BrokenProcessPool as exc:
                    futures[future] = task  # in flight too: reclaim it
                    reclaim(exc)
                    continue
                # Broad on purpose (RL004-compliant): classified by the
                # taxonomy, retried or re-raised as ShardFailure.
                except Exception as exc:
                    attempt = attempts[spec.index]
                    if (is_transient(exc)
                            and self._allows_retry(spec.index, attempt)):
                        self._backoff(spec, attempt, exc, report)
                        attempts[spec.index] += 1
                        pending.append(task)
                        continue
                    raise ShardFailure(spec, exc, attempt + 1) from exc
                watchdog.record_success(spec.index)
                complete(spec.index, outcome)
                completed += 1
        finally:
            # Success path: futures is empty and this is a plain join.
            # Failure path: cancel every sibling still queued, then join
            # -- no orphaned futures outlive the run.
            leftover = list(futures)
            pool.shutdown(wait=True, cancel_futures=True)
            if heartbeat_dir is not None:
                shutil.rmtree(heartbeat_dir, ignore_errors=True)
            self.last_pool_stats = {
                "submitted": submitted,
                "completed": completed,
                "cancelled": sum(1 for f in leftover if f.cancelled()),
                # After the join above, every future must be done (ran to
                # an outcome) or cancelled; anything else leaked.
                "orphaned": sum(1 for f in leftover if not f.done()),
            }
        return {index: count + 1 for index, count in attempts.items()}
