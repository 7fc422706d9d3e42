"""Peak memory after ingest: the study holds one copy of the flow table.

From the last ingested day to the computed figures the flow columns
exist once: the builder hands its columns over to the finalized
dataset, and the visitor filter releases each unfiltered column as it
copies the kept flows out. The journaled runner's ingest stage
filters and saves that same table, again without a second copy.
numpy reports its buffers to ``tracemalloc``, so the bounds below are
deterministic.
"""

import tracemalloc

from repro import LockdownStudy, StudyConfig
from repro.core.runner import JournaledRun
from repro.pipeline.dataset import ARRAY_FIELDS
from repro.pipeline.pipeline import MonitoringPipeline

#: How far the peak after finalize may rise above the ingest-time
#: peak, in units of the finalized dataset's bytes. A second full copy
#: of the table alive at once reads about 1.
SLACK = 0.25


def _traced_peak_after_ingest(monkeypatch, work):
    """Run ``work`` under ``tracemalloc``; returns the peak from
    finalize onwards relative to the ingest-time peak, in units of the
    finalized dataset's bytes."""
    seen = {}
    finalize = MonitoringPipeline.finalize

    def finalize_after_ingest_peak(self):
        seen["ingest_peak"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        dataset = finalize(self)
        seen["nbytes"] = sum(getattr(dataset, name).nbytes
                             for name in ARRAY_FIELDS)
        return dataset

    monkeypatch.setattr(MonitoringPipeline, "finalize",
                        finalize_after_ingest_peak)
    tracemalloc.start()
    try:
        work()
        post_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (post_peak - seen["ingest_peak"]) / seen["nbytes"], seen["nbytes"]


def test_post_ingest_peak_within_a_quarter_dataset_of_ingest_peak(
        monkeypatch):
    def study():
        LockdownStudy(StudyConfig.ci_scale()).run().compute_all()

    rise, nbytes = _traced_peak_after_ingest(monkeypatch, study)
    assert rise <= SLACK, (
        f"peak after ingest rose by {rise:+.2f}x the dataset's "
        f"{nbytes} bytes over the ingest peak")


def test_journaled_ingest_stage_peak_within_a_quarter_dataset(
        monkeypatch, tmp_path):
    """The ingest stage of a journaled run, from finalize to its saved
    files. Eval scale: at ci scale the ingest-time peak is large next
    to the table and would hide a second copy of it."""
    run = JournaledRun.start(str(tmp_path), StudyConfig.eval_scale())
    rise, nbytes = _traced_peak_after_ingest(
        monkeypatch, lambda: run._stage_ingest(lambda message: None))
    assert rise <= SLACK, (
        f"peak of the journaled ingest stage rose by {rise:+.2f}x the "
        f"dataset's {nbytes} bytes over the ingest peak")
