"""Kernel-vs-reference timings for the vectorized analysis layer.

Three comparisons, each against the pure-Python ``*_reference``
implementation it replaced (outputs are asserted equal before timing,
so the speedups are for identical results):

* **session stitching** -- :func:`repro.sessions.stitch.stitch_sessions`
  on the whole dataset and on the Figure 6 Facebook-platform workload;
* **signature domain tables** -- the per-signature suffix-match table
  behind every domain mask, summed over the full registry;
* **end to end** -- the full measure-and-analyze pipeline vs its
  test-side oracles: columnar ingest vs the row-at-a-time
  :class:`tests.oracles.pipeline.RowMonitoringPipeline` (a four-week
  trace window) plus ``StudyArtifacts.compute_all`` (all eight figures
  and the summary) on the kernel-backed
  :class:`~repro.analysis.context.AnalysisContext` vs the
  reference-backed
  :class:`tests.oracles.analysis.ReferenceAnalysisContext`. Until
  the columnar core (PR 8),
  ingest had no fast path and this section could only compare the
  analysis stage -- which capped the whole-pipeline speedup at 1.19x;
  the ingest term is where the Amdahl weight was.

The numbers land in ``BENCH_analysis.json`` (override the path with
``BENCH_ANALYSIS_JSON``) so CI can archive them as an artifact. The
stitching and table speedups are asserted at >= 5x, the end-to-end
ones at modest factors that leave headroom for host noise: the figure
stage contains per-day loops that are deliberately scalar on both
paths (see fig2/fig4) to keep the outputs bit-identical. Day traces
carry their bursts as columns (:class:`~repro.net.wire.BurstColumns`),
so columnar ingest reads them as they are, while the row-at-a-time
reference materializes one ``SegmentBurst`` per burst through
``BurstColumns.rows()`` on every pass.
"""

import dataclasses
import gc
import json
import os
import threading
import time

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.apps.facebook import (
    facebook_platform_signature,
    instagram_only_signature,
)
from repro.perf.kernels import domain_str_array
from repro.pipeline.pipeline import MonitoringPipeline
from repro.sessions.stitch import stitch_sessions
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import utc_ts
from tests.oracles.analysis import (
    ReferenceAnalysisContext,
    domain_table_reference,
    stitch_sessions_reference,
)
from tests.oracles.pipeline import RowMonitoringPipeline


def _best(fn, rounds):
    """Best-of-N wall time; the minimum is the least noisy estimator.

    The collector is paused while timing: the comparisons allocate
    ~100k small session tuples per round and a mid-round generational
    sweep would charge collection time to whichever side it lands on.
    """
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


def _fresh(artifacts, context_cls):
    """The same study data behind a fresh cache and a fresh context."""
    return dataclasses.replace(
        artifacts,
        context=context_cls(artifacts.dataset),
        _cache={}, _locks={}, _locks_guard=threading.Lock())


def _ingest_window(pipeline_cls, config, traces, excluded):
    """One serial measure pass over pre-generated day traces."""
    pipeline = pipeline_cls(config, excluded)
    for trace in traces:
        pipeline.ingest_day(trace)
    return pipeline.finalize(), pipeline.stats


def _stitch_comparison(dataset, flow_mask, marker_mask, rounds):
    kernel_out = stitch_sessions(dataset, flow_mask,
                                 marker_mask=marker_mask)
    reference_out = stitch_sessions_reference(dataset, flow_mask,
                                              marker_mask=marker_mask)
    assert kernel_out == reference_out
    sessions = sum(len(v) for v in kernel_out.values())
    # Don't keep ~200k session tuples alive while timing.
    del kernel_out, reference_out
    kernel = _best(
        lambda: stitch_sessions(dataset, flow_mask,
                                marker_mask=marker_mask), rounds)
    reference = _best(
        lambda: stitch_sessions_reference(dataset, flow_mask,
                                          marker_mask=marker_mask), rounds)
    return {
        "flows": int(flow_mask.sum()),
        "sessions": sessions,
        "kernel_seconds": round(kernel, 4),
        "reference_seconds": round(reference, 4),
        "speedup": round(reference / kernel, 2),
    }


def test_analysis_speedup_report(artifacts):
    dataset = artifacts.dataset
    context = AnalysisContext(dataset)

    # -- session stitching ----------------------------------------------
    full_mask = np.ones(len(dataset), dtype=bool)
    facebook_mask = context.domain_mask(facebook_platform_signature())
    instagram_mask = context.domain_mask(instagram_only_signature())
    stitching = {
        "full_dataset": _stitch_comparison(dataset, full_mask, None, 3),
        "facebook_platform": _stitch_comparison(
            dataset, facebook_mask, instagram_mask, 5),
    }

    # -- signature domain tables ----------------------------------------
    signatures = list(artifacts.signatures)
    domain_arr = domain_str_array(dataset.domains)
    for signature in signatures:
        assert np.array_equal(signature.domain_table(domain_arr),
                              domain_table_reference(signature,
                                                     dataset.domains))
    table_kernel = _best(
        lambda: [s.domain_table(domain_arr) for s in signatures], 10)
    table_reference = _best(
        lambda: [domain_table_reference(s, dataset.domains)
                 for s in signatures], 10)
    tables = {
        "signatures": len(signatures),
        "domains": len(dataset.domains),
        "kernel_seconds": round(table_kernel, 4),
        "reference_seconds": round(table_reference, 4),
        "speedup": round(table_reference / table_kernel, 2),
    }

    # -- end to end: all figures + summary ------------------------------
    kernel_results = _fresh(artifacts, AnalysisContext).compute_all()
    reference_results = _fresh(artifacts,
                               ReferenceAnalysisContext).compute_all()
    assert np.array_equal(kernel_results["fig1"].total,
                          reference_results["fig1"].total)
    assert kernel_results["summary"] == reference_results["summary"]
    analyses = len(kernel_results)
    del kernel_results, reference_results

    end_to_end_kernel = _best(
        lambda: _fresh(artifacts, AnalysisContext).compute_all(), 2)
    end_to_end_reference = _best(
        lambda: _fresh(artifacts, ReferenceAnalysisContext).compute_all(),
        2)

    # -- ingest: columnar core vs the row-at-a-time oracle ---------------
    generator = CampusTraceGenerator(artifacts.config)
    excluded = generator.plan.excluded_blocks(
        artifacts.config.excluded_operators)
    traces = list(generator.iter_days(utc_ts(2020, 2, 3),
                                      utc_ts(2020, 3, 2)))
    config = artifacts.config
    columnar_out = _ingest_window(MonitoringPipeline, config, traces,
                                  excluded)
    reference_out = _ingest_window(RowMonitoringPipeline, config, traces,
                                   excluded)
    assert columnar_out[0].identical(reference_out[0])
    assert columnar_out[1] == reference_out[1]
    ingest_flows = columnar_out[1].flows_closed
    del columnar_out, reference_out
    ingest_columnar = _best(
        lambda: _ingest_window(MonitoringPipeline, config, traces,
                               excluded), 2)
    ingest_reference = _best(
        lambda: _ingest_window(RowMonitoringPipeline, config, traces,
                               excluded), 2)

    pipeline_vector = ingest_columnar + end_to_end_kernel
    pipeline_reference = ingest_reference + end_to_end_reference
    end_to_end = {
        "analyses": analyses,
        "kernel_seconds": round(end_to_end_kernel, 4),
        "reference_seconds": round(end_to_end_reference, 4),
        "analysis_speedup": round(
            end_to_end_reference / end_to_end_kernel, 2),
        "ingest_flows": ingest_flows,
        "ingest_columnar_seconds": round(ingest_columnar, 4),
        "ingest_reference_seconds": round(ingest_reference, 4),
        "ingest_speedup": round(ingest_reference / ingest_columnar, 2),
        "speedup": round(pipeline_reference / pipeline_vector, 2),
    }

    print(f"\nstitch full dataset : "
          f"{stitching['full_dataset']['speedup']:5.1f}x "
          f"({stitching['full_dataset']['flows']:,} flows, "
          f"{stitching['full_dataset']['sessions']:,} sessions)")
    print(f"stitch facebook     : "
          f"{stitching['facebook_platform']['speedup']:5.1f}x "
          f"({stitching['facebook_platform']['flows']:,} flows)")
    print(f"signature tables    : {tables['speedup']:5.1f}x "
          f"({tables['signatures']} signatures x "
          f"{tables['domains']} domains)")
    print(f"figures stage       : "
          f"{end_to_end['analysis_speedup']:5.1f}x "
          f"(kernel {end_to_end_kernel:.2f}s, "
          f"reference {end_to_end_reference:.2f}s)")
    print(f"ingest stage        : {end_to_end['ingest_speedup']:5.1f}x "
          f"(columnar {ingest_columnar:.2f}s, "
          f"reference {ingest_reference:.2f}s, "
          f"{ingest_flows:,} flows)")
    print(f"pipeline end to end : {end_to_end['speedup']:5.1f}x "
          f"(vector {pipeline_vector:.2f}s, "
          f"reference {pipeline_reference:.2f}s)")

    report_path = os.environ.get("BENCH_ANALYSIS_JSON",
                                 "BENCH_analysis.json")
    with open(report_path, "w") as fileobj:
        json.dump({
            "dataset_flows": len(dataset),
            "n_devices": dataset.n_devices,
            "session_stitching": stitching,
            "signature_domain_tables": tables,
            "end_to_end": end_to_end,
        }, fileobj, indent=2)
        fileobj.write("\n")

    assert stitching["full_dataset"]["speedup"] >= 5.0
    # The facebook slice is a ~15ms kernel, so its ratio is far noisier
    # than the full-dataset stitch (repeated runs span ~4.5-7x on a
    # single-core host); gate it lower than the big kernels.
    assert stitching["facebook_platform"]["speedup"] >= 4.0
    assert tables["speedup"] >= 5.0
    # Modest bars with headroom for host noise. The figure stage
    # (day matrices, bincounts, the deliberately-scalar fig2/fig4 day
    # loops) is largely shared between both paths, so its gap is much
    # smaller than the per-kernel gaps; the pipeline number is
    # dominated by the ingest ratio.
    assert end_to_end["analysis_speedup"] >= 1.1
    assert end_to_end["ingest_speedup"] >= 2.0
    assert end_to_end["speedup"] >= 2.0
