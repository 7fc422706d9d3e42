"""Batch flow assembly: Zeek-style connection tracking over columns.

Flows are keyed by five-tuple: bursts sharing a key accumulate into one
open flow, a teardown burst (``is_final``) closes it, and a gap longer
than the idle timeout splits the key into two flows. The semantics are
those of a sequential per-burst scan (kept as the test-side oracle in
``tests/oracles/flow_engine.py``); one
:meth:`ColumnarFlowEngine.process_batch` call does what that scan does
for a whole day of bursts:

1. bursts are stably sorted by five-tuple key (two packed uint64
   words), grouping each key's bursts while preserving time order;
2. flow boundaries inside each group are found by a monotone fixpoint:
   starting from the group starts and post-teardown positions, a
   segmented running max (seeded with any carried-over open flow's
   ``last_ts``) exposes idle gaps wider than the timeout, each newly
   split boundary can only shrink running maxima and reveal further
   splits, and the iteration converges to exactly the boundary set the
   sequential scalar scan produces (the sequential assignment is the
   unique fixpoint);
3. per-flow aggregates (first/last ts, byte sums, first non-None
   user agent and Host header) come from ``reduceat`` over the sorted
   columns;
4. closed flows are emitted in the scalar engine's exact order by
   sorting on ``(trigger burst index, gap-split-before-teardown)``,
   where a gap split is triggered by the first burst of the *next*
   flow on the same key and a teardown by the flow's own final burst.

Flows still open at the end of a batch are carried in a small columnar
open-flow table whose ``seq`` column encodes the scalar engine's dict
insertion order (continuations keep their seq; re-created keys get a
fresh one), which is what makes :meth:`flush_batch` reproduce the
scalar flush's stable ``(first_ts, insertion order)`` emission and
uid assignment.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.columnar.batch import BurstBatch, FlowBatch
from repro.perf.kernels import segmented_running_max

#: Five-tuple key packed into two int64 words: (client_ip << 32 |
#: server_ip, client_port << 32 | server_port << 16 | proto_code).
#: Signed on purpose: every component fits well under 63 bits, and
#: staying in int64 end-to-end means packing and unpacking are plain
#: shifts on the batch columns -- no astype copies anywhere.
KEY_DTYPE = np.dtype([("hi", "<i8"), ("lo", "<i8")])


class _OpenTable:
    """Columnar open-flow state carried between batches."""

    __slots__ = ("key", "first_ts", "last_ts", "orig_bytes", "resp_bytes",
                 "ua", "host", "seq")

    def __init__(self, key: np.ndarray, first_ts: np.ndarray,
                 last_ts: np.ndarray, orig_bytes: np.ndarray,
                 resp_bytes: np.ndarray, ua: np.ndarray,
                 host: np.ndarray, seq: np.ndarray) -> None:
        self.key = key
        self.first_ts = first_ts
        self.last_ts = last_ts
        self.orig_bytes = orig_bytes
        self.resp_bytes = resp_bytes
        self.ua = ua
        self.host = host
        self.seq = seq

    def __len__(self) -> int:
        return len(self.key)

    @classmethod
    def empty(cls) -> "_OpenTable":
        return cls(
            key=np.zeros(0, dtype=KEY_DTYPE),
            first_ts=np.zeros(0, dtype=np.float64),
            last_ts=np.zeros(0, dtype=np.float64),
            orig_bytes=np.zeros(0, dtype=np.int64),
            resp_bytes=np.zeros(0, dtype=np.int64),
            ua=np.zeros(0, dtype=np.int64),
            host=np.zeros(0, dtype=np.int64),
            seq=np.zeros(0, dtype=np.int64),
        )

    def take(self, index: np.ndarray) -> "_OpenTable":
        return _OpenTable(
            key=self.key[index], first_ts=self.first_ts[index],
            last_ts=self.last_ts[index], orig_bytes=self.orig_bytes[index],
            resp_bytes=self.resp_bytes[index], ua=self.ua[index],
            host=self.host[index], seq=self.seq[index])

    @classmethod
    def concat(cls, parts: List["_OpenTable"]) -> "_OpenTable":
        return cls(*(np.concatenate([getattr(p, name) for p in parts])
                     for name in cls.__slots__))


class ColumnarFlowEngine:
    """Stateful burst-to-flow assembly over record batches."""

    def __init__(self, idle_timeout: float = 600.0) -> None:
        if idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        self.idle_timeout = float(idle_timeout)
        self._open = _OpenTable.empty()
        self._next_uid = 0
        self._last_burst_ts = float("-inf")
        self._seq_base = 0
        self._proto_codes: Dict[str, int] = {"tcp": 0, "udp": 1}
        self._proto_table: List[str] = ["tcp", "udp"]
        # Engine-global string interning for user agents and HTTP
        # hosts: every batch-local table remaps to these ids once, and
        # open-table state / FlowBatch columns stay int64 throughout.
        self._ua_codes: Dict[str, int] = {}
        self._ua_table: List[str] = []
        self._host_codes: Dict[str, int] = {}
        self._host_table: List[str] = []
        self._http_count = 0

    @property
    def open_flow_count(self) -> int:
        return len(self._open)

    # -- protocol interning ------------------------------------------------

    def _engine_protos(self, batch: BurstBatch) -> np.ndarray:
        """Per-burst engine-global protocol codes (tcp=0, udp=1)."""
        remap = np.empty(max(len(batch.proto_table), 1), dtype=np.int64)
        for local, name in enumerate(batch.proto_table):
            code = self._proto_codes.get(name)
            if code is None:
                code = len(self._proto_table)
                self._proto_codes[name] = code
                self._proto_table.append(name)
            remap[local] = code
        return remap[batch.proto_id]

    @staticmethod
    def _intern(local_table: List[str], local_ids: np.ndarray,
                codes: Dict[str, int], table: List[str]) -> np.ndarray:
        """Remap batch-local string ids to engine-global ids (-1 None)."""
        remap = np.empty(len(local_table) + 1, dtype=np.int64)
        remap[-1] = -1  # id -1 indexes here: None stays -1
        for local, name in enumerate(local_table):
            code = codes.get(name)
            if code is None:
                code = len(table)
                codes[name] = code
                table.append(name)
            remap[local] = code
        return remap[local_ids]

    # -- batch processing --------------------------------------------------

    def process_batch(self, batch: BurstBatch) -> FlowBatch:
        """Feed one time-ordered batch; returns the flows that closed."""
        n = batch.n
        if n == 0:
            return FlowBatch.empty(self._proto_table, self._ua_table,
                                   self._host_table)
        ts = batch.ts

        # Out-of-order guard, identical to the scalar engine's check of
        # each burst against the running high-water mark.
        hwm = np.maximum.accumulate(ts)
        prev_hwm = np.empty(n, dtype=np.float64)
        prev_hwm[0] = self._last_burst_ts
        prev_hwm[1:] = hwm[:-1]
        bad = ts < prev_hwm - 1.0
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(
                f"bursts out of order: {float(ts[i])} after "
                f"{float(prev_hwm[i])}"
            )
        self._last_burst_ts = max(self._last_burst_ts, float(hwm[-1]))

        # Plaintext request sightings: one http.log line each.
        self._http_count += int(np.count_nonzero(
            (batch.ua_id >= 0) | (batch.host_id >= 0)))

        proto = self._engine_protos(batch)
        # The five-tuple key as two contiguous int64 columns; the
        # structured KEY_DTYPE form exists only at the (small) open
        # table join and open-table storage -- contiguous words keep
        # every bulk shift/compare SIMD-friendly.
        hi = (batch.client_ip << 32) | batch.server_ip
        lo = ((batch.client_port << 32)
              | (batch.server_port << 16) | proto)

        # lexsort((lo, hi)) is the same stable permutation as a stable
        # argsort of the structured key, at a fraction of the cost.
        order = np.lexsort((lo, hi))
        hio = hi[order]
        loo = lo[order]
        tso = ts[order]
        fino = batch.is_final[order]
        oidx = order  # lexsort yields intp == int64; no copy needed

        newseg = np.empty(n, dtype=bool)
        newseg[0] = True
        newseg[1:] = ((hio[1:] != hio[:-1]) | (loo[1:] != loo[:-1]))
        seg_first = np.flatnonzero(newseg)
        nseg = seg_first.size

        # Join each key group against the carried open-flow table.
        carried_row = np.full(nseg, -1, dtype=np.int64)
        open_table = self._open
        if len(open_table):
            osort = np.lexsort((open_table.key["lo"],
                                open_table.key["hi"]))
            okeys = open_table.key[osort]
            qk = self._pack(hio[seg_first], loo[seg_first])
            pos = np.searchsorted(okeys, qk)
            posc = np.minimum(pos, len(okeys) - 1)
            hit = okeys[posc] == qk
            carried_row[hit] = osort[posc[hit]]
        has_carried = carried_row >= 0
        if len(open_table):
            carried_last = np.where(
                has_carried,
                open_table.last_ts[np.maximum(carried_row, 0)],
                -np.inf)
        else:
            carried_last = np.full(nseg, -np.inf)
        # A carried flow idle past the timeout closes on its key's first
        # burst (a gap split); otherwise the first flow continues it.
        carried_gap = has_carried & (tso[seg_first] - carried_last
                                     > self.idle_timeout)
        cont = has_carried & ~carried_gap

        # Boundary fixpoint (see module docstring). ``vals`` seeds the
        # running max of continuation groups with the carried last_ts.
        vals = tso.copy()
        cont_first = seg_first[cont]
        vals[cont_first] = np.maximum(tso[cont_first], carried_last[cont])
        boundary = newseg.copy()
        boundary[1:] |= fino[:-1]
        while True:
            fid = np.cumsum(boundary) - 1
            run = segmented_running_max(vals, fid)
            prev_run = np.empty(n, dtype=np.float64)
            prev_run[0] = -np.inf
            prev_run[1:] = run[:-1]
            inner = ~boundary
            gap = np.zeros(n, dtype=bool)
            gap[inner] = tso[inner] - prev_run[inner] > self.idle_timeout
            if not gap.any():
                break
            boundary |= gap

        # Per-flow aggregates over the sorted columns.
        fs = np.flatnonzero(boundary)
        nf = fs.size
        fe = np.empty(nf, dtype=np.int64)
        fe[:-1] = fs[1:]
        fe[-1] = n
        # Segment (key-group) id per flow -- NOT fid, which numbers
        # flows: consecutive flows sharing a segment share a key.
        fl_seg = (np.cumsum(newseg) - 1)[fs]
        fl_hi = hio[fs]
        fl_lo = loo[fs]
        fl_first = tso[fs].copy()
        fl_last = run[fe - 1]
        fl_orig = np.add.reduceat(batch.orig_bytes[order], fs)
        fl_resp = np.add.reduceat(batch.resp_bytes[order], fs)
        fl_final = fino[fe - 1]
        fl_first_idx = oidx[fs]

        positions = np.arange(n, dtype=np.int64)
        uao = self._intern(batch.ua_table, batch.ua_id,
                           self._ua_codes, self._ua_table)[order]
        hosto = self._intern(batch.host_table, batch.host_id,
                             self._host_codes, self._host_table)[order]
        fl_ua = self._first_present(uao, positions, fs)
        fl_host = self._first_present(hosto, positions, fs)

        # Merge carried state into each continuation group's first flow.
        cont_flows = fid[cont_first]
        cont_rows = carried_row[cont]
        if cont_rows.size:
            fl_first[cont_flows] = open_table.first_ts[cont_rows]
            fl_orig[cont_flows] += open_table.orig_bytes[cont_rows]
            fl_resp[cont_flows] += open_table.resp_bytes[cont_rows]
            carried_ua = open_table.ua[cont_rows]
            override = carried_ua >= 0
            fl_ua[cont_flows[override]] = carried_ua[override]
            carried_host = open_table.host[cont_rows]
            override = carried_host >= 0
            fl_host[cont_flows[override]] = carried_host[override]

        # Closures and their emission triggers.
        has_next = np.zeros(nf, dtype=bool)
        has_next[:-1] = fl_seg[1:] == fl_seg[:-1]
        closed_gap = ~fl_final & has_next
        closed = fl_final | closed_gap
        trigger = np.where(fl_final, oidx[np.maximum(fe - 1, 0)], 0)
        gap_flows = np.flatnonzero(closed_gap)
        trigger[gap_flows] = oidx[fs[gap_flows + 1]]
        sub = fl_final.astype(np.int64)

        # Carried flows killed outright by a gap on their key's first
        # burst today: emitted from carried state alone.
        kill_rows = carried_row[carried_gap]
        kill_trigger = oidx[seg_first[carried_gap]]

        out = self._emit(
            open_table, kill_rows, kill_trigger,
            fl_hi, fl_lo, fl_first, fl_last, fl_orig, fl_resp, fl_ua,
            fl_host, closed, trigger, sub)

        # Rebuild the carried table: unconsumed old rows survive; each
        # group's last flow stays open unless its final burst closed it.
        consumed = carried_row[has_carried]
        survivors = np.ones(len(open_table), dtype=bool)
        survivors[consumed] = False
        open_mask = ~closed
        seq = self._seq_base + fl_first_idx
        still_open_cont = open_mask[cont_flows]
        seq[cont_flows[still_open_cont]] = \
            open_table.seq[cont_rows[still_open_cont]]
        self._seq_base += n
        today = _OpenTable(
            key=self._pack(fl_hi[open_mask], fl_lo[open_mask]),
            first_ts=fl_first[open_mask],
            last_ts=fl_last[open_mask],
            orig_bytes=fl_orig[open_mask],
            resp_bytes=fl_resp[open_mask],
            ua=fl_ua[open_mask],
            host=fl_host[open_mask],
            seq=seq[open_mask],
        )
        self._open = _OpenTable.concat(
            [open_table.take(np.flatnonzero(survivors)), today])
        return out

    @staticmethod
    def _first_present(ids: np.ndarray, positions: np.ndarray,
                       fs: np.ndarray) -> np.ndarray:
        """Per-flow first non-None id (scalar fill-if-None rule)."""
        n = len(ids)
        guarded = np.where(ids >= 0, positions, n)
        first_pos = np.minimum.reduceat(guarded, fs)
        out = np.full(len(fs), -1, dtype=np.int64)
        present = first_pos < n
        if present.any():
            out[present] = ids[first_pos[present]]
        return out

    @staticmethod
    def _pack(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Two int64 key words as one sortable structured array."""
        key = np.empty(len(hi), dtype=KEY_DTYPE)
        key["hi"] = hi
        key["lo"] = lo
        return key

    def _emit(self, open_table: "_OpenTable", kill_rows: np.ndarray,
              kill_trigger: np.ndarray, fl_hi: np.ndarray,
              fl_lo: np.ndarray, fl_first: np.ndarray,
              fl_last: np.ndarray, fl_orig: np.ndarray,
              fl_resp: np.ndarray, fl_ua: np.ndarray,
              fl_host: np.ndarray, closed: np.ndarray,
              trigger: np.ndarray, sub: np.ndarray) -> FlowBatch:
        """Assemble all of a batch's closures in scalar emission order."""
        ci = np.flatnonzero(closed)
        nk = len(kill_rows)
        uid = self._next_uid + np.arange(nk + ci.size, dtype=np.int64)
        self._next_uid += nk + ci.size
        if nk == 0:
            # Common case: no carried kills -- one composed gather per
            # column, no concatenation pass.
            take = ci[np.lexsort((sub[ci], trigger[ci]))]
            return self._flow_batch(
                fl_hi[take], fl_lo[take], fl_first[take], fl_last[take],
                fl_orig[take], fl_resp[take], fl_ua[take], fl_host[take],
                uid)
        trig = np.concatenate([kill_trigger, trigger[ci]])
        subs = np.concatenate([np.zeros(nk, dtype=np.int64), sub[ci]])
        emit = np.lexsort((subs, trig))
        kpos = np.flatnonzero(emit < nk)
        fpos = np.flatnonzero(emit >= nk)
        ktake = kill_rows[emit[kpos]]
        ftake = ci[emit[fpos] - nk]

        def merge(kcol: np.ndarray, fcol: np.ndarray) -> np.ndarray:
            out = np.empty(len(emit), dtype=fcol.dtype)
            out[kpos] = kcol[ktake]
            out[fpos] = fcol[ftake]
            return out

        return self._flow_batch(
            merge(open_table.key["hi"], fl_hi),
            merge(open_table.key["lo"], fl_lo),
            merge(open_table.first_ts, fl_first),
            merge(open_table.last_ts, fl_last),
            merge(open_table.orig_bytes, fl_orig),
            merge(open_table.resp_bytes, fl_resp),
            merge(open_table.ua, fl_ua),
            merge(open_table.host, fl_host),
            uid)

    def _flow_batch(self, hi: np.ndarray, lo: np.ndarray,
                    first: np.ndarray, last: np.ndarray,
                    orig: np.ndarray, resp: np.ndarray, ua: np.ndarray,
                    host: np.ndarray, uid: np.ndarray) -> FlowBatch:
        return FlowBatch(
            uid=uid,
            ts=first,
            duration=np.maximum(0.0, last - first),
            orig_h=hi >> 32,
            orig_p=lo >> 32,
            resp_h=hi & 0xFFFFFFFF,
            resp_p=(lo >> 16) & 0xFFFF,
            proto=lo & 0xFFFF,
            proto_table=self._proto_table,
            orig_bytes=orig,
            resp_bytes=resp,
            ua=ua,
            ua_table=self._ua_table,
            host=host,
            host_table=self._host_table,
        )

    def flush_batch(self, now: Optional[float] = None) -> FlowBatch:
        """Close flows idle at ``now`` (all open flows when None).

        Uids are assigned in dict-insertion (seq) order and rows
        emitted sorted by ``(first_ts, seq)`` -- both exactly as the
        scalar engine's flush.
        """
        open_table = self._open
        total = len(open_table)
        if total == 0:
            return FlowBatch.empty(self._proto_table, self._ua_table,
                                   self._host_table)
        if now is None:
            close = np.ones(total, dtype=bool)
        else:
            close = now - open_table.last_ts > self.idle_timeout
        if not close.any():
            return FlowBatch.empty(self._proto_table, self._ua_table,
                                   self._host_table)
        idx = np.flatnonzero(close)
        seq = open_table.seq[idx]
        uid_rank = np.empty(len(idx), dtype=np.int64)
        uid_rank[np.argsort(seq, kind="stable")] = \
            np.arange(len(idx), dtype=np.int64)
        uid = self._next_uid + uid_rank
        emit = np.lexsort((seq, open_table.first_ts[idx]))
        take = idx[emit]
        batch = self._flow_batch(
            open_table.key["hi"][take], open_table.key["lo"][take],
            open_table.first_ts[take],
            open_table.last_ts[take], open_table.orig_bytes[take],
            open_table.resp_bytes[take], open_table.ua[take],
            open_table.host[take], uid[emit])
        self._next_uid += len(idx)
        self._open = open_table.take(np.flatnonzero(~close))
        return batch

    # -- http.log sightings ------------------------------------------------

    def drain_http_count(self) -> int:
        """Count and clear pending http.log sightings."""
        count = self._http_count
        self._http_count = 0
        return count
