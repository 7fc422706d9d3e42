"""Row-at-a-time dataset builder oracle.

:class:`RowFlowDatasetBuilder` adds :meth:`~RowFlowDatasetBuilder.add_flow`
to :class:`repro.pipeline.dataset.FlowDatasetBuilder`: one flow per
call, appended to list tails and folded into its device profile field
by field. It is the row pipeline's builder
(:class:`tests.oracles.pipeline.RowMonitoringPipeline`), so the golden
ingest gates hold the production ``add_flow_batch`` profile folding to
this scalar one; unit tests use it to build small datasets by hand.
"""

from typing import Dict, List, Optional

import numpy as np

from repro.pipeline.dataset import (
    ARRAY_FIELDS,
    COLUMN_DTYPES,
    PROTO_TCP,
    PROTO_UDP,
    FlowDataset,
    FlowDatasetBuilder,
)
from repro.util.timeutil import DAY

_PROTO_CODES = {"tcp": PROTO_TCP, "udp": PROTO_UDP}


class RowFlowDatasetBuilder(FlowDatasetBuilder):
    """:class:`FlowDatasetBuilder` with a per-flow ``add_flow``."""

    def __init__(self, day0: float):
        super().__init__(day0)
        self._tail: Dict[str, List] = {name: [] for name in ARRAY_FIELDS}

    def add_flow(self, *, ts: float, duration: float, device_idx: int,
                 resp_h: int, resp_p: int, proto: str, orig_bytes: int,
                 resp_bytes: int, domain_idx: int,
                 user_agent: Optional[str]) -> None:
        """Append one annotated flow and update its device profile."""
        day = int((ts - self.day0) // DAY)
        row = {"ts": ts, "duration": duration, "device": device_idx,
               "resp_h": resp_h, "resp_p": resp_p,
               "proto": _PROTO_CODES[proto], "orig_bytes": orig_bytes,
               "resp_bytes": resp_bytes, "domain": domain_idx, "day": day}
        for name, value in row.items():
            self._tail[name].append(value)

        profile = self._devices[device_idx]
        profile.flow_count += 1
        profile.total_bytes += orig_bytes + resp_bytes
        profile.days_seen.add(day)
        end_day = int((ts + duration - self.day0) // DAY)
        if end_day != day:
            profile.days_seen.add(end_day)
        profile.first_ts = min(profile.first_ts, ts)
        profile.last_ts = max(profile.last_ts, ts + duration)
        if user_agent is not None:
            profile.user_agents.add(user_agent)

    def __len__(self) -> int:
        return super().__len__() + len(self._tail["ts"])

    def finalize(self) -> FlowDataset:
        """Land the scalar rows as one batch, then freeze."""
        if self._tail["ts"]:
            self._append_rows({
                name: np.array(values, dtype=COLUMN_DTYPES[name])
                for name, values in self._tail.items()})
            self._tail = {name: [] for name in ARRAY_FIELDS}
        return super().finalize()
