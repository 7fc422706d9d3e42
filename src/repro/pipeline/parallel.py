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
* :meth:`ParallelPipeline.run_shards` skips shards the caller already
  holds and hands each finished shard to a callback as it completes, so
  :class:`~repro.core.runner.JournaledRun` (the one resumable entry
  point) can persist and journal every shard before the next one lands,
  and a killed multi-hour run resumes where it died.
  :func:`merge_shards` is the one merge, shared by :meth:`run` and the
  journaled merge stage;
* with a ``shard_deadline`` (``workers > 1`` only), a
  :class:`~repro.reliability.watchdog.ShardWatchdog` watches per-shard
  heartbeat files while futures are in flight; a shard that stops
  making progress is killed and charged a transient
  :class:`~repro.reliability.watchdog.WatchdogTimeout` under the same
  retry policy, the only budget a shard has.

A single-worker run retries each shard in process through
:func:`~repro.reliability.retry.run_with_retries`. A pool run has one
loop and one reclaim path, which charges every in-flight shard after a
pool death and only the stalled ones after a watchdog kill.

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
from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from repro.config import StudyConfig
from repro.dns.mapping import DEFAULT_FRESHNESS_SECONDS
from repro.pipeline.dataset import FlowDataset
from repro.pipeline.pipeline import MonitoringPipeline, PipelineStats
from repro.reliability.coverage import CoverageReport
from repro.reliability.errors import ShardError, is_transient
from repro.reliability.faults import FaultPlan, LogGap
from repro.reliability.retry import RetryPolicy, run_with_retries
from repro.reliability.watchdog import (
    POLL_SECONDS,
    ShardWatchdog,
    WatchdogTimeout,
    read_heartbeat,
    write_heartbeat,
)
from repro.util.timeutil import DAY, format_day, iter_days

#: Days re-processed after a shard's owned range so flows whose first
#: burst falls on its last owned day can close naturally. One day is a
#: generous bound: sessions end at their day's cutoff, so a flow only
#: outlives its first day through idle-timeout chaining.
TAIL_SECONDS = DAY

ProgressFn = Callable[[str], None]

#: One finished shard: its dataset, counters and telemetry coverage.
ShardOutcome = Tuple[FlowDataset, PipelineStats, CoverageReport]

#: Receives each finished shard in the parent process, in completion
#: order, before the next one is collected.
ShardDoneFn = Callable[[int, ShardOutcome], None]


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


def plan_shards(config: StudyConfig, n_shards: int, *,
                gaps: Sequence[LogGap] = (),
                window: Optional[Tuple[float, float]] = None,
                ) -> List[ShardSpec]:
    """Split the study window into contiguous, balanced day shards.

    Owned ranges partition the window's days exactly; generation ranges
    extend each shard by the warm-up (widened by
    :func:`gap_warmup_allowance` for the planned telemetry ``gaps``)
    and tail horizons, clamped to the window. Requests for more shards
    than days are capped. ``window`` overrides the config's
    ``(start_ts, end_ts)`` -- used by the 2019 baseline, which measures
    the same population over a different calendar range.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    warmup_seconds = (default_warmup_seconds(config)
                      + gap_warmup_allowance(config, gaps))
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
            gen_end=min(window_end, end_ts + TAIL_SECONDS),
        ))
    return shards


def check_shard_deadline(workers: int,
                         shard_deadline: Optional[float]) -> None:
    """Refuse a shard deadline the watchdog could not honour.

    Only a pool run (``workers > 1``) has a watchdog, and a deadline
    that is not a finite number above 0 never fires or fires at once.
    """
    if shard_deadline is None:
        return
    if workers == 1:
        raise ValueError("a shard deadline needs workers > 1: an "
                         "in-process ingest has no watchdog")
    if not (math.isfinite(shard_deadline) and shard_deadline > 0):
        raise ValueError(f"a shard deadline must be a finite number of "
                         f"seconds above 0, got {shard_deadline!r}")


@dataclass(frozen=True)
class _ShardTask:
    """Everything a worker process needs (must stay picklable)."""

    config: StudyConfig
    spec: ShardSpec
    presence: str
    phase_override: Optional[str]
    #: Chaos hook: seeded kill/transient/fatal/hang faults and log gaps.
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


def _ingest_shard(task: _ShardTask) -> ShardOutcome:
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
    # A pool worker generates in process (iter_days never nests pools);
    # the iterator is still closed explicitly on any exit.
    with closing(generator.iter_days(spec.gen_start, spec.gen_end,
                                     presence=task.presence)) as traces:
        for trace in traces:
            if task.faults is not None:
                # Warm-up days included: gap-shaped resolver state must
                # match what the serial run built for these days.
                trace = task.faults.drop_log_span(trace)
            pipeline.ingest_day(trace)
            days_done += 1
            if task.heartbeat_path is not None:
                write_heartbeat(task.heartbeat_path, task.attempt,
                                days_done)
    return pipeline.finalize(), pipeline.stats, pipeline.coverage_report()


def merge_shards(shards: Sequence[ShardSpec],
                 outcomes: Dict[int, ShardOutcome],
                 progress: Optional[ProgressFn] = None,
                 ) -> Tuple[FlowDataset, PipelineStats, CoverageReport]:
    """Merge every planned shard's outcome, in plan order.

    The dataset merge canonicalizes, so the result does not depend on
    the order shards finished in or on whether they were held in
    memory or read back from disk.
    """
    report = progress or (lambda message: None)
    ordered = [outcomes[spec.index] for spec in shards]
    for spec, (dataset, stats, _) in zip(shards, ordered):
        report(f"shard {spec.index + 1}/{spec.n_shards} "
               f"({spec.describe()}): {len(dataset)} flows, "
               f"attribution {stats.attribution_rate:.3f}")
    merged = FlowDataset.merge([dataset for dataset, _, _ in ordered])
    report(f"merged {len(shards)} shard(s): {len(merged)} flows, "
           f"{merged.n_devices} devices")
    coverage = CoverageReport.merged(cov for _, _, cov in ordered)
    if not coverage.is_complete():
        report("coverage: telemetry gaps detected -- "
               + ", ".join(f"{source} {coverage.fraction(source):.3f}"
                           for source in ("conn", "dhcp", "dns")))
    stats = PipelineStats.merged(shard for _, shard, _ in ordered)
    return merged, stats, coverage


@dataclass
class ParallelResult:
    """The merged outcome of a sharded ingest."""

    dataset: FlowDataset
    stats: PipelineStats
    shards: List[ShardSpec]
    #: Attempts consumed per executed shard index (1 = first try worked).
    attempts: Dict[int, int] = field(default_factory=dict)
    #: Merged telemetry coverage across all owned days.
    coverage: CoverageReport = field(default_factory=CoverageReport.empty)


class ParallelPipeline:
    """Orchestrates sharded generate-and-measure across processes."""

    def __init__(self, config: StudyConfig, workers: int = 2, *,
                 presence: str = "study",
                 phase_override: Optional[str] = None,
                 faults: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 window: Optional[Tuple[float, float]] = None,
                 day0: Optional[float] = None,
                 shard_deadline: Optional[float] = None):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        check_shard_deadline(workers, shard_deadline)
        self.config = config
        self.workers = workers
        self.shards = plan_shards(
            config, workers, window=window,
            gaps=faults.log_gaps if faults is not None else ())
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=config.max_shard_retries + 1, seed=config.seed)
        self.shard_deadline = shard_deadline
        self._timeouts = 0
        #: Accounting for the last pool run (submitted/completed/
        #: cancelled/orphaned futures); lets tests assert that a failed
        #: run leaked nothing. ``None`` until a pool run happens.
        self.last_pool_stats: Optional[Dict[str, int]] = None
        self._tasks = [
            _ShardTask(config=config, spec=spec, presence=presence,
                       phase_override=phase_override, faults=faults,
                       day0=day0)
            for spec in self.shards
        ]

    def run(self, progress: Optional[ProgressFn] = None) -> ParallelResult:
        """Run every shard and merge; raises :class:`ShardFailure`."""
        outcomes: Dict[int, ShardOutcome] = {}
        attempts = self.run_shards(outcomes.__setitem__, progress)
        dataset, stats, coverage = merge_shards(self.shards, outcomes,
                                                progress)
        if self._timeouts:
            # Parent-side supervision counter, folded in after the merge.
            stats = stats.merge(PipelineStats(
                shard_timeouts=self._timeouts))
        return ParallelResult(dataset=dataset, stats=stats,
                              shards=list(self.shards),
                              attempts=attempts, coverage=coverage)

    def run_shards(self, on_shard: ShardDoneFn,
                   progress: Optional[ProgressFn] = None, *,
                   skip: Collection[int] = ()) -> Dict[int, int]:
        """Run every shard not in ``skip``; returns attempts per shard.

        Each finished shard goes to ``on_shard`` in the parent process
        as soon as it is collected. Worker processes are always joined
        before this method returns, whether it succeeds or raises -- a
        failed run leaves no zombie workers behind, and every shard
        ``on_shard`` accepted before the failure stays accepted.
        Transient shard failures are retried per ``retry_policy``.
        """
        report = progress or (lambda message: None)
        self._timeouts = 0
        todo = [task for task in self._tasks
                if task.spec.index not in skip]
        planned = len(self.shards)
        running = (f"{len(todo)} of {planned}" if len(todo) < planned
                   else str(planned))
        report(f"parallel ingest: {running} shard(s), "
               f"{self.workers} worker(s)")
        if not todo:
            return {}
        if self.workers == 1:
            return self._run_inline(todo, on_shard, report)
        return self._run_pool(todo, on_shard, report)

    # -- internals ---------------------------------------------------------

    def _run_inline(self, tasks, complete, report) -> Dict[int, int]:
        """Run each shard in process under the retry policy."""
        attempts: Dict[int, int] = {}
        for task in tasks:
            spec = task.spec
            attempt = 0

            def on_retry(failed: int, cause: BaseException,
                         delay: float) -> None:
                nonlocal attempt
                report(_retry_note(spec, failed, cause, delay))
                attempt = failed + 1

            try:
                outcome = run_with_retries(
                    self.retry_policy,
                    lambda: _ingest_shard(replace(task, attempt=attempt)),
                    scope_index=spec.index, on_retry=on_retry)
            # Broad on purpose (RL004-compliant): run_with_retries has
            # retried whatever the taxonomy calls transient; the failure
            # left over is wrapped as ShardFailure.
            except Exception as exc:
                raise ShardFailure(spec, exc, attempt + 1) from exc
            attempts[spec.index] = attempt + 1
            complete(spec.index, outcome)
        return attempts

    def _new_pool(self, n_tasks: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=min(self.workers, n_tasks))

    def _run_pool(self, tasks, complete, report) -> Dict[int, int]:
        """Pool loop with retry, rebuild-on-worker-death, and cleanup.

        Invariants: every submitted future is either collected, retried,
        or cancelled via ``shutdown(cancel_futures=True)`` before this
        method returns -- no orphaned futures, no zombie workers. With a
        watchdog deadline, the ``wait`` below polls so heartbeats are
        observed while futures are in flight; without one, it blocks.
        """
        attempts = {task.spec.index: 0 for task in tasks}
        #: Cumulative backoff requested per shard; what the policy's
        #: ``total_deadline`` is charged against. The sum of scheduled
        #: delays, never a wall clock, so the schedule is reproducible.
        backoff: Dict[int, float] = {}
        submitted = 0
        completed = 0
        pool = self._new_pool(len(tasks))
        futures: Dict[Future, _ShardTask] = {}
        #: Tasks awaiting (re)submission; drained at each loop top so a
        #: pool death during submission is handled in one place.
        pending: List[_ShardTask] = list(tasks)
        deadline = self.shard_deadline
        watchdog = ShardWatchdog(deadline)
        heartbeat_dir: Optional[str] = None
        if deadline is not None:
            heartbeat_dir = tempfile.mkdtemp(prefix="repro-heartbeat-")

        def heartbeat_path(index: int) -> Optional[str]:
            if heartbeat_dir is None:
                return None
            return os.path.join(heartbeat_dir, f"shard-{index:04d}.beat")

        def charge(task: _ShardTask, cause: BaseException) -> None:
            # Spend one attempt of the shard's retry budget on a
            # transient ``cause`` and requeue it; a spent budget fails
            # the run.
            spec = task.spec
            attempt = attempts[spec.index]
            spent = backoff.get(spec.index, 0.0)
            if not self.retry_policy.allows_retry(attempt, spent):
                raise ShardFailure(spec, cause, attempt + 1) from cause
            delay = self.retry_policy.delay(spec.index, attempt, spent)
            report(_retry_note(spec, attempt, cause, delay))
            if delay > 0:
                time.sleep(delay)
            backoff[spec.index] = spent + delay
            attempts[spec.index] = attempt + 1
            pending.append(task)

        def reclaim(charged: Dict[int, BaseException], what: str) -> None:
            # Kill the pool and requeue every in-flight shard on a fresh
            # one. Only the shards in ``charged`` spend an attempt: all
            # of them after a pool death (the culprit is unknowable from
            # the parent), only the stalled ones after a watchdog kill.
            # Wedged workers cannot be cancelled through the futures
            # API, so terminate them; a dead pool may have dropped its
            # process table already.
            nonlocal pool
            doomed = list(futures.values())
            futures.clear()
            for process in list((getattr(pool, "_processes", None)
                                 or {}).values()):
                process.terminate()
            pool.shutdown(wait=True, cancel_futures=True)
            report(f"{what}; rebuilding pool with "
                   f"{len(doomed) + len(pending)} shard(s) outstanding")
            for task in doomed:
                if task.spec.index in charged:
                    charge(task, charged[task.spec.index])
                else:
                    pending.append(task)
            pool = self._new_pool(len(pending))

        def pool_died(exc: BaseException) -> None:
            reclaim({task.spec.index: exc for task in futures.values()},
                    f"worker pool died ({exc!r})")

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
                    pool_died(exc)
                    continue
                futures[future] = task
                watchdog.start(task.spec.index)
                submitted += 1
                pending.pop(0)

        try:
            while futures or pending:
                submit_pending()
                done, _ = wait(set(futures), return_when=FIRST_COMPLETED,
                               timeout=(None if deadline is None
                                        else POLL_SECONDS))
                if not done:
                    # Poll tick: feed heartbeats, kill anything stalled.
                    stalled: Dict[int, BaseException] = {}
                    for in_flight in futures.values():
                        index = in_flight.spec.index
                        watchdog.beat(
                            index, read_heartbeat(heartbeat_path(index)))
                        if watchdog.stalled(index):
                            stalled[index] = WatchdogTimeout(
                                f"shard {index + 1}/{len(self.shards)} "
                                f"made no progress for {deadline}s")
                    if stalled:
                        self._timeouts += len(stalled)
                        reclaim(stalled, f"watchdog: killed {len(stalled)} "
                                         f"stalled shard(s)")
                    continue
                future = next(iter(done))
                task = futures.pop(future)
                spec = task.spec
                try:
                    outcome = future.result()
                except BrokenProcessPool as exc:
                    futures[future] = task  # in flight too: reclaim it
                    pool_died(exc)
                    continue
                # Broad on purpose (RL004-compliant): classified by the
                # taxonomy, retried or re-raised as ShardFailure.
                except Exception as exc:
                    if not is_transient(exc):
                        raise ShardFailure(spec, exc,
                                           attempts[spec.index] + 1) from exc
                    charge(task, exc)
                    continue
                watchdog.forget(spec.index)
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


def _retry_note(spec: ShardSpec, attempt: int, cause: BaseException,
                delay: float) -> str:
    """The progress line printed before a shard is retried."""
    return (f"shard {spec.index + 1}/{spec.n_shards} attempt "
            f"{attempt + 1} failed transiently ({cause!r}); "
            f"retrying in {delay:.2f}s")
