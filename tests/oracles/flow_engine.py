"""Flow-assembly oracles: the per-burst engine and a row adapter.

:class:`FlowEngine` is the sequential per-burst scan whose semantics
:class:`repro.columnar.engine.ColumnarFlowEngine` reproduces in batch.
Consumes time-ordered :class:`~repro.net.wire.SegmentBurst` events and
assembles them into connections keyed by five-tuple, exactly as Zeek's
connection tracking does:

* bursts sharing a five-tuple accumulate into one open flow;
* a teardown burst (``is_final``) closes the flow;
* a gap longer than the idle timeout splits the five-tuple into two
  flows (UDP "connections" and abandoned TCP sessions);
* :meth:`FlowEngine.flush` force-closes idle flows (end of capture).

The bit-identity gates feed one list of ``SegmentBurst`` rows to both
:class:`FlowEngine` and :class:`RowColumnarFlowEngine` and compare the
``ConnRecord`` lists they return, call for call.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.columnar.batch import BurstBatch, FlowBatch
from repro.columnar.engine import ColumnarFlowEngine
from repro.net.wire import BurstColumns, SegmentBurst
from repro.zeek.conn import ConnRecord

FiveTuple = Tuple[int, int, int, int, str]


@dataclass(frozen=True)
class HttpRecord:
    """One plaintext HTTP request's metadata, as in Zeek's http.log."""

    ts: float
    orig_h: int
    orig_p: int
    resp_h: int
    resp_p: int
    host: Optional[str]
    user_agent: Optional[str]


@dataclass
class _OpenFlow:
    first_ts: float
    last_ts: float
    orig_bytes: int
    resp_bytes: int
    user_agent: Optional[str]
    http_host: Optional[str]


class FlowEngine:
    """Stateful burst-to-flow assembly."""

    def __init__(self, idle_timeout: float = 600.0):
        if idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        self.idle_timeout = float(idle_timeout)
        self._open: Dict[FiveTuple, _OpenFlow] = {}
        self._next_uid = 0
        self._last_burst_ts = float("-inf")
        self._http_records: List[HttpRecord] = []

    @property
    def open_flow_count(self) -> int:
        return len(self._open)

    def drain_http(self) -> List[HttpRecord]:
        """Return and clear the accumulated http.log records."""
        drained = self._http_records
        self._http_records = []
        return drained

    def process(self, bursts) -> List[ConnRecord]:
        """Feed time-ordered bursts; returns flows that closed."""
        closed: List[ConnRecord] = []
        for burst in bursts:
            if burst.ts < self._last_burst_ts - 1.0:
                raise ValueError(
                    f"bursts out of order: {burst.ts} after {self._last_burst_ts}"
                )
            self._last_burst_ts = max(self._last_burst_ts, burst.ts)
            self._ingest(burst, closed)
        return closed

    def _ingest(self, burst: SegmentBurst, out: List[ConnRecord]) -> None:
        key = burst.five_tuple
        flow = self._open.get(key)

        if flow is not None and burst.ts - flow.last_ts > self.idle_timeout:
            # Same five-tuple after a long silence: a new connection.
            out.append(self._close(key, flow))
            flow = None

        if flow is None:
            flow = _OpenFlow(
                first_ts=burst.ts,
                last_ts=burst.ts,
                orig_bytes=burst.orig_bytes,
                resp_bytes=burst.resp_bytes,
                user_agent=burst.user_agent,
                http_host=burst.http_host,
            )
            self._open[key] = flow
        else:
            flow.last_ts = max(flow.last_ts, burst.ts)
            flow.orig_bytes += burst.orig_bytes
            flow.resp_bytes += burst.resp_bytes
            if flow.user_agent is None and burst.user_agent is not None:
                flow.user_agent = burst.user_agent
            if flow.http_host is None and burst.http_host is not None:
                flow.http_host = burst.http_host

        if burst.http_host is not None or burst.user_agent is not None:
            # Plaintext request metadata: one http.log line per sighting.
            self._http_records.append(HttpRecord(
                ts=burst.ts,
                orig_h=burst.client_ip,
                orig_p=burst.client_port,
                resp_h=burst.server_ip,
                resp_p=burst.server_port,
                host=burst.http_host,
                user_agent=burst.user_agent,
            ))

        if burst.is_final:
            out.append(self._close(key, flow))

    def flush(self, now: Optional[float] = None) -> List[ConnRecord]:
        """Close flows idle at ``now`` (all open flows when None)."""
        closed: List[ConnRecord] = []
        for key in list(self._open):
            flow = self._open[key]
            if now is None or now - flow.last_ts > self.idle_timeout:
                closed.append(self._close(key, flow))
        closed.sort(key=lambda record: record.ts)
        return closed

    def _close(self, key: FiveTuple, flow: _OpenFlow) -> ConnRecord:
        del self._open[key]
        uid = self._next_uid
        self._next_uid += 1
        client_ip, client_port, server_ip, server_port, proto = key
        return ConnRecord(
            uid=uid,
            ts=flow.first_ts,
            duration=max(0.0, flow.last_ts - flow.first_ts),
            orig_h=client_ip,
            orig_p=client_port,
            resp_h=server_ip,
            resp_p=server_port,
            proto=proto,
            orig_bytes=flow.orig_bytes,
            resp_bytes=flow.resp_bytes,
            user_agent=flow.user_agent,
            http_host=flow.http_host,
        )


def to_conn_records(flows: FlowBatch) -> List[ConnRecord]:
    """Materialize a :class:`FlowBatch` as ConnRecord rows."""
    table = flows.proto_table
    return [
        ConnRecord(
            uid=int(flows.uid[i]),
            ts=float(flows.ts[i]),
            duration=float(flows.duration[i]),
            orig_h=int(flows.orig_h[i]),
            orig_p=int(flows.orig_p[i]),
            resp_h=int(flows.resp_h[i]),
            resp_p=int(flows.resp_p[i]),
            proto=table[int(flows.proto[i])],
            orig_bytes=int(flows.orig_bytes[i]),
            resp_bytes=int(flows.resp_bytes[i]),
            user_agent=(None if flows.ua[i] < 0
                        else flows.ua_table[int(flows.ua[i])]),
            http_host=(None if flows.host[i] < 0
                       else flows.host_table[int(flows.host[i])]),
        )
        for i in range(flows.n)
    ]


class RowColumnarFlowEngine(ColumnarFlowEngine):
    """:class:`ColumnarFlowEngine` with the per-burst engine's row API:
    ``process``/``flush`` on rows and materialized ``drain_http``."""

    def __init__(self, idle_timeout: float = 600.0) -> None:
        super().__init__(idle_timeout)
        self._http_pending: List[Tuple[BurstBatch, np.ndarray]] = []

    def process_batch(self, batch: BurstBatch) -> FlowBatch:
        closed = super().process_batch(batch)
        http = (batch.ua_id >= 0) | (batch.host_id >= 0)
        if http.any():
            self._http_pending.append((batch, http))
        return closed

    def drain_http_count(self) -> int:
        self._http_pending = []
        return super().drain_http_count()

    def process(self, bursts: Iterable[SegmentBurst]) -> List[ConnRecord]:
        """Row-object twin of :meth:`process_batch`."""
        batch = BurstBatch.from_bursts(BurstColumns.from_rows(bursts))
        return to_conn_records(self.process_batch(batch))

    def flush(self, now: Optional[float] = None) -> List[ConnRecord]:
        """Row-object twin of :meth:`flush_batch`."""
        return to_conn_records(self.flush_batch(now))

    def drain_http(self) -> List[HttpRecord]:
        """Materialize and clear pending http.log records."""
        records: List[HttpRecord] = []
        for batch, mask in self._http_pending:
            for i in np.flatnonzero(mask):
                ua_id = batch.ua_id[i]
                host_id = batch.host_id[i]
                records.append(HttpRecord(
                    ts=float(batch.ts[i]),
                    orig_h=int(batch.client_ip[i]),
                    orig_p=int(batch.client_port[i]),
                    resp_h=int(batch.server_ip[i]),
                    resp_p=int(batch.server_port[i]),
                    host=batch.host_table[host_id] if host_id >= 0 else None,
                    user_agent=batch.ua_table[ua_id] if ua_id >= 0 else None,
                ))
        self.drain_http_count()
        return records
