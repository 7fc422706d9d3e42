"""The passive monitoring pipeline (the measurement side of Section 3).

Mirrors the DeKoven et al. infrastructure the paper runs on:

1. :class:`~repro.pipeline.tap.Tap` -- port mirror with an excluded-
   network list (high-volume operators are not captured);
2. :class:`~repro.columnar.engine.ColumnarFlowEngine` -- flow
   extraction;
3. DHCP-log normalization of dynamic client IPs to device MACs
   (:class:`~repro.columnar.leases.ColumnarLeaseIndex`);
4. DNS-log annotation of remote server IPs with domains
   (:class:`~repro.columnar.dnsindex.ColumnarDnsIndex`);
5. :class:`~repro.pipeline.anonymize.Anonymizer` -- one-way tokenization
   of device identifiers (raw MACs/IPs are discarded after processing);
6. the 14-day visitor filter.

The output is a columnar :class:`~repro.pipeline.dataset.FlowDataset`
plus per-device :class:`~repro.pipeline.dataset.DeviceProfile` records,
which every analysis module consumes.
"""

from repro.pipeline.anonymize import Anonymizer, TokenCache
from repro.pipeline.dataset import DeviceProfile, FlowDataset, FlowDatasetBuilder
from repro.pipeline.pipeline import MonitoringPipeline, PipelineStats
from repro.pipeline.store import load_dataset, save_dataset
from repro.pipeline.tap import Tap
from repro.pipeline.visitors import visitor_filter_mask

__all__ = [
    "Anonymizer",
    "DeviceProfile",
    "FlowDataset",
    "FlowDatasetBuilder",
    "MonitoringPipeline",
    "PipelineStats",
    "Tap",
    "TokenCache",
    "load_dataset",
    "save_dataset",
    "visitor_filter_mask",
]
