"""Benchmark of the ingest pipeline itself (ablation; not a paper figure).

Measures the tap -> flow-engine -> DHCP/DNS-normalization -> anonymize
path on one pre-generated week of wire events, and reports the cost of
the visitor filter.

``test_ingest_speedup_report`` compares the batch-vectorized columnar
ingest core against the row-at-a-time oracle
(:class:`tests.oracles.pipeline.RowMonitoringPipeline`; equivalence is
asserted before anything is timed -- the speedup is for bit-identical
output), times the sharded parallel run on the same window, and writes
``BENCH_ingest.json`` (override the path with ``BENCH_INGEST_JSON``)
so CI can archive throughput trajectories as a machine-readable
artifact.
"""

import gc
import json
import os
import resource
import time

import pytest

from repro import StudyConfig
from repro.pipeline.parallel import ParallelPipeline
from repro.pipeline.pipeline import MonitoringPipeline
from repro.pipeline.visitors import apply_visitor_filter, visitor_filter_mask
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import utc_ts
from tests.oracles.pipeline import RowMonitoringPipeline

_CONFIG = StudyConfig(n_students=25, seed=99,
                      start_ts=utc_ts(2020, 2, 3),
                      end_ts=utc_ts(2020, 2, 10))


@pytest.fixture(scope="module")
def week_traces():
    generator = CampusTraceGenerator(_CONFIG)
    traces = list(generator.iter_days(utc_ts(2020, 2, 3),
                                      utc_ts(2020, 2, 10)))
    excluded = generator.plan.excluded_blocks(_CONFIG.excluded_operators)
    return traces, excluded


def test_pipeline_ingest_week(benchmark, week_traces):
    traces, excluded = week_traces

    def ingest():
        pipeline = MonitoringPipeline(_CONFIG, excluded)
        for trace in traces:
            pipeline.ingest_day(trace)
        return pipeline.finalize()

    dataset = benchmark(ingest)
    assert len(dataset) > 1000
    assert dataset.n_devices > 10


def test_visitor_filter_cost(benchmark, week_traces, artifacts):
    """Filter throughput over the full bench dataset."""
    dataset = artifacts.dataset_unfiltered
    filtered = benchmark(apply_visitor_filter, dataset,
                         artifacts.config.visitor_min_days)
    assert filtered.n_devices <= dataset.n_devices


# -- columnar vs reference throughput report ---------------------------


def _reset_peak_rss() -> None:
    # Linux lets a process reset its own high-water mark; elsewhere the
    # numbers degrade to process-lifetime peaks (still monotone-safe).
    try:
        with open("/proc/self/clear_refs", "w") as fileobj:
            fileobj.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fileobj:
            for line in fileobj:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:
        pass
    return round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def _best(fn, rounds):
    """Best-of-N wall time with the collector paused (same estimator
    as the analysis benchmark: min is the least noisy)."""
    times = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            started = time.perf_counter()
            fn()
            times.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return min(times)


def _ingest(pipeline_cls, traces, excluded):
    pipeline = pipeline_cls(_CONFIG, excluded)
    for trace in traces:
        pipeline.ingest_day(trace)
    return pipeline.finalize(), pipeline.stats


def test_ingest_speedup_report(week_traces):
    """Columnar-vs-reference ingest timings, with identity asserted."""
    traces, excluded = week_traces
    bursts = sum(len(trace.bursts) for trace in traces)

    # Equivalence first: speedups below are for bit-identical output.
    _reset_peak_rss()
    col_dataset, col_stats = _ingest(MonitoringPipeline, traces, excluded)
    columnar_rss = _peak_rss_mb()
    _reset_peak_rss()
    ref_dataset, ref_stats = _ingest(RowMonitoringPipeline, traces,
                                     excluded)
    reference_rss = _peak_rss_mb()
    assert col_dataset.identical(ref_dataset)
    assert col_stats == ref_stats
    flows = col_stats.flows_closed

    columnar_seconds = _best(
        lambda: _ingest(MonitoringPipeline, traces, excluded), 2)
    reference_seconds = _best(
        lambda: _ingest(RowMonitoringPipeline, traces, excluded), 2)

    started = time.perf_counter()
    result = ParallelPipeline(_CONFIG, 4).run()
    sharded_seconds = time.perf_counter() - started
    assert result.dataset.identical(col_dataset.canonicalize())

    speedup = reference_seconds / columnar_seconds
    sharded_speedup = reference_seconds / sharded_seconds
    print(f"\nreference serial : {reference_seconds:6.2f}s "
          f"({flows / reference_seconds:,.0f} flows/s, "
          f"peak rss {reference_rss:.0f} MB)")
    print(f"columnar serial  : {columnar_seconds:6.2f}s "
          f"({flows / columnar_seconds:,.0f} flows/s, "
          f"peak rss {columnar_rss:.0f} MB) -> {speedup:.2f}x")
    print(f"columnar sharded : {sharded_seconds:6.2f}s (4 workers, "
          f"{os.cpu_count()} cpu core(s)) -> {sharded_speedup:.2f}x")

    report_path = os.environ.get("BENCH_INGEST_JSON", "BENCH_ingest.json")
    with open(report_path, "w") as fileobj:
        json.dump({
            "students": _CONFIG.n_students,
            "days": len(traces),
            "bursts": bursts,
            "flows_closed": flows,
            "dataset_flows": len(col_dataset),
            "reference": {
                "seconds": round(reference_seconds, 4),
                "flows_per_second": round(flows / reference_seconds),
                "peak_rss_mb": reference_rss,
            },
            "columnar": {
                "seconds": round(columnar_seconds, 4),
                "flows_per_second": round(flows / columnar_seconds),
                "peak_rss_mb": columnar_rss,
                "speedup_vs_reference": round(speedup, 2),
            },
            "columnar_sharded": {
                "workers": 4,
                "cpu_count": os.cpu_count(),
                "seconds": round(sharded_seconds, 4),
                "flows_per_second": round(flows / sharded_seconds),
                "speedup_vs_reference": round(sharded_speedup, 2),
            },
            "identical_to_reference": True,
        }, fileobj, indent=2)
        fileobj.write("\n")

    # The columnar core must clearly beat the row oracle even on
    # this smoke-sized week (larger runs measure higher ratios).
    assert speedup >= 2.0
