"""Columnar (record-batch) ingest core: the one ingest path.

Wire bursts are extracted once into parallel numpy columns
(:class:`~repro.columnar.batch.BurstBatch`), assembled into flows by a
vectorized engine (:class:`~repro.columnar.engine.ColumnarFlowEngine`),
attributed through sorted lease / DNS-epoch interval joins
(:class:`~repro.columnar.leases.ColumnarLeaseIndex`,
:class:`~repro.columnar.dnsindex.ColumnarDnsIndex`) and materialized
batch-at-a-time into the :class:`~repro.pipeline.dataset.FlowDataset`
(:class:`~repro.columnar.ingest.BatchRegistrar`).

Every component is *bit-identical* to a row-at-a-time reference
kept under ``tests/oracles/`` (a per-burst flow engine, per-IP lease
and DNS-epoch resolvers, and a per-flow registration loop): same flow
boundaries, same emission order, same degraded-mode counters, same
device/domain first-seen index assignment. The golden gates in
``tests/pipeline/test_columnar.py`` and
``tests/property/test_columnar_props.py`` hold the two together.
"""

from repro.columnar.batch import BurstBatch, FlowBatch
from repro.columnar.dnsindex import ColumnarDnsIndex
from repro.columnar.engine import ColumnarFlowEngine
from repro.columnar.ingest import BatchRegistrar
from repro.columnar.leases import ColumnarLeaseIndex

__all__ = [
    "BurstBatch",
    "FlowBatch",
    "BatchRegistrar",
    "ColumnarDnsIndex",
    "ColumnarFlowEngine",
    "ColumnarLeaseIndex",
]
