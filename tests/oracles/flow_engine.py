"""The columnar flow engine behind the scalar FlowEngine's row API.

The bit-identity gates feed one list of ``SegmentBurst`` rows to both
:class:`repro.zeek.engine.FlowEngine` and this adapter and compare the
``ConnRecord`` lists they return, call for call.
"""

from typing import Iterable, List, Optional

from repro.columnar.batch import BurstBatch
from repro.columnar.engine import ColumnarFlowEngine
from repro.net.wire import BurstColumns, SegmentBurst
from repro.zeek.conn import ConnRecord


class RowColumnarFlowEngine(ColumnarFlowEngine):
    """:class:`ColumnarFlowEngine` with ``process``/``flush`` on rows."""

    def process(self, bursts: Iterable[SegmentBurst]) -> List[ConnRecord]:
        """Row-object twin of :meth:`process_batch`."""
        batch = BurstBatch.from_bursts(BurstColumns.from_rows(bursts))
        return self.process_batch(batch).to_conn_records()

    def flush(self, now: Optional[float] = None) -> List[ConnRecord]:
        """Row-object twin of :meth:`flush_batch`."""
        return self.flush_batch(now).to_conn_records()
