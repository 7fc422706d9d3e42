"""Peak memory after ingest: the study holds one copy of the flow table.

From the last ingested day to the computed figures the flow columns
exist once: the builder hands its columns over to the finalized
dataset, and the visitor filter releases each unfiltered column as it
copies the kept flows out. numpy reports its buffers to
``tracemalloc``, so the bound below is deterministic.
"""

import tracemalloc

from repro import LockdownStudy, StudyConfig
from repro.pipeline.dataset import ARRAY_FIELDS
from repro.pipeline.pipeline import MonitoringPipeline

#: How far the peak from finalize through ``compute_all`` may rise
#: above the ingest-time peak, in units of the finalized dataset's
#: bytes. A second full copy of the table alive at once reads about 1.
SLACK = 0.25


def test_post_ingest_peak_within_a_quarter_dataset_of_ingest_peak(
        monkeypatch):
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
        artifacts = LockdownStudy(StudyConfig.ci_scale()).run()
        artifacts.compute_all()
        post_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    rise = (post_peak - seen["ingest_peak"]) / seen["nbytes"]
    assert rise <= SLACK, (
        f"peak after ingest rose by {rise:+.2f}x the dataset's "
        f"{seen['nbytes']} bytes over the ingest peak")
