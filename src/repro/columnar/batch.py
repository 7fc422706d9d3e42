"""Record batches: the parallel column sets of the columnar ingest path.

Two batch shapes cross the columnar ingest path:

* :class:`BurstBatch` -- one day's wire bursts, built by
  :meth:`BurstBatch.from_bursts` from the
  :class:`~repro.net.wire.BurstColumns` a day trace carries. The
  numeric columns pass through untouched and the string columns are
  dictionary-encoded. The generator emits those columns directly, so
  no per-burst Python object exists between generation and ingest.
* :class:`FlowBatch` -- closed flows in *emission order* (the exact
  order a sequential per-burst scan closes them), produced by
  :class:`~repro.columnar.engine.ColumnarFlowEngine` and consumed by
  :class:`~repro.columnar.ingest.BatchRegistrar`.

Low-cardinality string columns (protocol names, user agents, HTTP
hosts) are dictionary-encoded: an int id column plus a batch-local
string table, with ``-1`` standing for None.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:
    from repro.net.wire import BurstColumns


def _encode_strings(values: Union[np.ndarray, Sequence[Optional[str]]]
                    ) -> Tuple[np.ndarray, List[str]]:
    """Dictionary-encode a nullable string column.

    Returns ``(ids, table)``: ``ids[i] == -1`` where ``values[i]`` is
    None, otherwise an index into ``table``. The table is sorted
    (np.unique), which is fine -- ids are batch-local and only ever
    dereferenced back through the table.
    """
    obj = np.asarray(values, dtype=object)
    ids = np.full(len(obj), -1, dtype=np.int32)
    present = obj != None  # noqa: E711  (elementwise null test)
    if present.any():
        uniq, inverse = np.unique(obj[present].astype(str), return_inverse=True)
        ids[present] = inverse.astype(np.int32)
        return ids, [str(name) for name in uniq]
    return ids, []


def _encode_protocols(protos: np.ndarray) -> Tuple[np.ndarray, List[str]]:
    """Dictionary-encode the (tiny-cardinality) protocol column.

    One vectorized equality sweep per distinct protocol beats a full
    unicode conversion + sort: the column holds a handful of distinct
    interned strings ("tcp", "udp"), never None. Each sweep after the
    first runs over the rows still unmatched only. Table order is
    first appearance.
    """
    ids = np.zeros(len(protos), dtype=np.int64)
    if not len(protos):
        return ids, []
    table = [str(protos[0])]
    rest = np.flatnonzero(protos != table[0])
    while rest.size:
        name = str(protos[rest[0]])
        mask = protos[rest] == name
        ids[rest[mask]] = len(table)
        table.append(name)
        rest = rest[~mask]
    return ids, table


class BurstBatch:
    """One day (or chunk) of wire bursts as parallel columns."""

    __slots__ = ("n", "ts", "client_ip", "client_port", "server_ip",
                 "server_port", "proto_id", "proto_table", "orig_bytes",
                 "resp_bytes", "ua_id", "ua_table", "host_id",
                 "host_table", "is_final")

    def __init__(self, *, ts: np.ndarray, client_ip: np.ndarray,
                 client_port: np.ndarray, server_ip: np.ndarray,
                 server_port: np.ndarray, proto_id: np.ndarray,
                 proto_table: List[str], orig_bytes: np.ndarray,
                 resp_bytes: np.ndarray, ua_id: np.ndarray,
                 ua_table: List[str], host_id: np.ndarray,
                 host_table: List[str], is_final: np.ndarray) -> None:
        self.n = len(ts)
        self.ts = ts
        self.client_ip = client_ip
        self.client_port = client_port
        self.server_ip = server_ip
        self.server_port = server_port
        self.proto_id = proto_id
        self.proto_table = proto_table
        self.orig_bytes = orig_bytes
        self.resp_bytes = resp_bytes
        self.ua_id = ua_id
        self.ua_table = ua_table
        self.host_id = host_id
        self.host_table = host_table
        self.is_final = is_final

    @classmethod
    def from_bursts(cls, bursts: "BurstColumns") -> "BurstBatch":
        """The ingest form of a day's burst columns.

        Numeric columns are shared as they are (nothing downstream
        writes to a batch column); the three string columns are
        dictionary-encoded into id columns plus batch-local tables.
        """
        ua_id, ua_table = _encode_strings(bursts.user_agent)
        host_id, host_table = _encode_strings(bursts.http_host)
        proto_id, proto_table = _encode_protocols(bursts.proto)
        return cls(
            ts=bursts.ts,
            client_ip=bursts.client_ip,
            client_port=bursts.client_port,
            server_ip=bursts.server_ip,
            server_port=bursts.server_port,
            proto_id=proto_id,
            proto_table=proto_table,
            orig_bytes=bursts.orig_bytes,
            resp_bytes=bursts.resp_bytes,
            ua_id=ua_id,
            ua_table=ua_table,
            host_id=host_id,
            host_table=host_table,
            is_final=bursts.is_final,
        )

    def compress(self, mask: np.ndarray) -> "BurstBatch":
        """A new batch holding only the masked rows (tables shared)."""
        # One mask scan for all fourteen columns, not one per gather.
        idx = np.flatnonzero(mask) if mask.dtype == bool else mask
        return BurstBatch(
            ts=self.ts[idx],
            client_ip=self.client_ip[idx],
            client_port=self.client_port[idx],
            server_ip=self.server_ip[idx],
            server_port=self.server_port[idx],
            proto_id=self.proto_id[idx],
            proto_table=self.proto_table,
            orig_bytes=self.orig_bytes[idx],
            resp_bytes=self.resp_bytes[idx],
            ua_id=self.ua_id[idx],
            ua_table=self.ua_table,
            host_id=self.host_id[idx],
            host_table=self.host_table,
            is_final=self.is_final[idx],
        )


class FlowBatch:
    """Closed flows in sequential-scan emission order.

    ``proto`` holds engine-global protocol codes (``0`` tcp, ``1``
    udp, >=2 for anything else) indexing ``proto_table``; ``ua`` and
    ``host`` are engine-global string ids into ``ua_table`` /
    ``host_table``, ``-1`` for None -- object arrays never ride the
    hot path.
    """

    __slots__ = ("n", "uid", "ts", "duration", "orig_h", "orig_p",
                 "resp_h", "resp_p", "proto", "proto_table",
                 "orig_bytes", "resp_bytes", "ua", "ua_table",
                 "host", "host_table")

    def __init__(self, *, uid: np.ndarray, ts: np.ndarray,
                 duration: np.ndarray, orig_h: np.ndarray,
                 orig_p: np.ndarray, resp_h: np.ndarray,
                 resp_p: np.ndarray, proto: np.ndarray,
                 proto_table: List[str], orig_bytes: np.ndarray,
                 resp_bytes: np.ndarray, ua: np.ndarray,
                 ua_table: List[str], host: np.ndarray,
                 host_table: List[str]) -> None:
        self.n = len(ts)
        self.uid = uid
        self.ts = ts
        self.duration = duration
        self.orig_h = orig_h
        self.orig_p = orig_p
        self.resp_h = resp_h
        self.resp_p = resp_p
        self.proto = proto
        self.proto_table = proto_table
        self.orig_bytes = orig_bytes
        self.resp_bytes = resp_bytes
        self.ua = ua
        self.ua_table = ua_table
        self.host = host
        self.host_table = host_table

    @classmethod
    def empty(cls, proto_table: List[str], ua_table: List[str],
              host_table: List[str]) -> "FlowBatch":
        return cls(
            uid=np.zeros(0, dtype=np.int64),
            ts=np.zeros(0, dtype=np.float64),
            duration=np.zeros(0, dtype=np.float64),
            orig_h=np.zeros(0, dtype=np.int64),
            orig_p=np.zeros(0, dtype=np.int64),
            resp_h=np.zeros(0, dtype=np.int64),
            resp_p=np.zeros(0, dtype=np.int64),
            proto=np.zeros(0, dtype=np.int64),
            proto_table=proto_table,
            orig_bytes=np.zeros(0, dtype=np.int64),
            resp_bytes=np.zeros(0, dtype=np.int64),
            ua=np.zeros(0, dtype=np.int64),
            ua_table=ua_table,
            host=np.zeros(0, dtype=np.int64),
            host_table=host_table,
        )

    def compress(self, mask: np.ndarray) -> "FlowBatch":
        """A new batch holding only the masked rows (tables shared)."""
        idx = np.flatnonzero(mask) if mask.dtype == bool else mask
        return FlowBatch(
            uid=self.uid[idx],
            ts=self.ts[idx],
            duration=self.duration[idx],
            orig_h=self.orig_h[idx],
            orig_p=self.orig_p[idx],
            resp_h=self.resp_h[idx],
            resp_p=self.resp_p[idx],
            proto=self.proto[idx],
            proto_table=self.proto_table,
            orig_bytes=self.orig_bytes[idx],
            resp_bytes=self.resp_bytes[idx],
            ua=self.ua[idx],
            ua_table=self.ua_table,
            host=self.host[idx],
            host_table=self.host_table,
        )
