"""Vectorized server-IP -> domain lookback over per-IP epoch tables.

Ingest keeps per-IP annotation epochs -- same-qname observations
within the freshness window refresh the open epoch, anything else
(different qname, or a stale gap wider than the window) opens a new
one. Splitting on stale gaps keeps the effective lookback bounded by
the freshness window. Epochs land in one flat
:class:`~repro.columnar.entrylog.EntryLog`. Batch queries locate the
latest epoch whose first observation is at or before each flow start
through its point-in-time index, then apply the freshness (or
gap-discounted freshness) predicate to the epoch's live ``last_seen``.

The gap-discount identity the degraded batch path relies on: a
per-flow lookup would clip gap spans to the flow's ``(last_seen, ts)``
interval and then merge overlaps, which computes ``|union(gaps) n
(last_seen, ts)|``. Merging the global span list once and clipping per
flow computes the same measure, so one merged span loop serves the
whole batch.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.columnar.entrylog import EntryLog
from repro.dns.mapping import DEFAULT_FRESHNESS_SECONDS
from repro.dns.records import DnsColumns
from repro.reliability.errors import CATEGORY_ORDER, RecordError


def merge_spans(spans: Sequence[Tuple[float, float]],
                ) -> List[Tuple[float, float]]:
    """Union of intervals as a sorted list of disjoint spans."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class ColumnarDnsIndex:
    """Point-in-time IP -> domain lookup with batch (vectorized) queries."""

    def __init__(self,
                 freshness_seconds: float = DEFAULT_FRESHNESS_SECONDS
                 ) -> None:
        if freshness_seconds <= 0:
            raise ValueError("freshness_seconds must be positive")
        self.freshness_seconds = float(freshness_seconds)
        #: Epochs: ``start`` is the first sighting, ``until`` the last
        #: (``last_seen``), ``label`` the name id.
        self._log = EntryLog()
        self.name_table: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._record_count = 0

    # -- ingest ------------------------------------------------------------

    def ingest_batch(self, records: DnsColumns) -> None:
        """Incorporate a batch of queries' answers (time-ordered per IP).

        The per-IP epoch state machine collapses to pairwise tests
        because a processed observation always leaves its epoch's
        ``last_seen`` equal to its own timestamp (refresh and
        new-epoch alike): within one IP's observation stream, entry
        ``i`` opens a new epoch iff it is the IP's first sighting, its
        qname differs from entry ``i-1``'s, or the gap since entry
        ``i-1`` exceeds the freshness window. Ends with the same index
        state as ingesting the records one at a time. An out-of-order
        answer raises the RecordError that one-at-a-time ingest would
        raise first, before any epoch of the batch is written.
        """
        n = len(records)
        if not n:
            return
        self._record_count += n
        # Intern in one dict pass: a new qname takes the next id, in
        # first-occurrence order, so the name table grows exactly as
        # the per-record loop would.
        name_ids = self._name_ids
        nids_r = np.array([name_ids.setdefault(name, len(name_ids))
                           for name in records.qname.tolist()],
                          dtype=np.int64)
        self.name_table.extend(islice(name_ids, len(self.name_table), None))
        counts = records.answer_count
        total = len(records.answers)
        if total == 0:
            return
        log = self._log
        ips = records.answers
        tss = np.repeat(records.ts, counts)
        nids = np.repeat(nids_r, counts)

        order = np.argsort(ips, kind="stable")
        ips_s = ips[order]
        tss_s = tss[order]
        nids_s = nids[order]
        first = np.empty(total, dtype=bool)
        first[0] = True
        first[1:] = ips_s[1:] != ips_s[:-1]
        group_first = np.flatnonzero(first)

        # Previous-observation state: the prior in-batch entry, or the
        # IP's existing open epoch for each group's first entry.
        prev_ts = np.empty(total, dtype=np.float64)
        prev_nid = np.empty(total, dtype=np.int64)
        prev_ts[1:] = tss_s[:-1]
        prev_nid[1:] = nids_s[:-1]
        tails = np.fromiter(
            map(log.tail.get, ips_s[group_first].tolist(), repeat(-1)),
            np.int64, count=group_first.size)
        known = tails >= 0
        safe = np.maximum(tails, 0)
        prev_ts[group_first] = np.where(
            known, log.until[safe] if log.size else -np.inf, -np.inf)
        prev_nid[group_first] = np.where(
            known, log.label[safe] if log.size else -1, -1)

        bad = tss_s < prev_ts
        if bad.any():
            # Raise for the offender the scalar loop would hit first:
            # the smallest flat (arrival) index among the violations.
            pos = int(np.flatnonzero(bad)[np.argmin(order[bad])])
            raise RecordError(
                f"DNS log out of order for answer {int(ips_s[pos])}: "
                f"{float(tss_s[pos])} < {float(prev_ts[pos])}",
                source="dns", category=CATEGORY_ORDER)

        boundary = (nids_s != prev_nid) | (tss_s - prev_ts
                                           > self.freshness_seconds)

        # Runs: maximal stretches of one IP's stream folding into a
        # single epoch. Run breaks are boundaries OR group firsts --
        # a group-leading run with no boundary refreshes the IP's
        # pre-existing open epoch instead of creating one, but still
        # must not be merged with the previous group's last run.
        rb = boundary | first
        run_starts = np.flatnonzero(rb)
        run_ends = np.empty(run_starts.size, dtype=np.int64)
        run_ends[:-1] = run_starts[1:] - 1
        run_ends[-1] = total - 1
        run_last = tss_s[run_ends]  # epoch last_seen = run's final ts

        refresh_runs = np.flatnonzero(~boundary[run_starts])
        if refresh_runs.size:
            refresh_tails = np.fromiter(
                map(log.tail.__getitem__,
                    ips_s[run_starts[refresh_runs]].tolist()),
                np.int64, count=refresh_runs.size)
            log.until[refresh_tails] = run_last[refresh_runs]

        # Append new epochs in flat (arrival) order -- the order the
        # scalar loop would have created them -- so the entry log and
        # every tail pointer land byte-identical.
        new_runs = np.flatnonzero(boundary[run_starts])
        perm = np.argsort(order[run_starts[new_runs]], kind="stable")
        pos = run_starts[new_runs[perm]]
        log.extend(ips_s[pos], tss_s[pos], run_last[new_runs[perm]],
                   nids_s[pos])

    # -- batch queries -----------------------------------------------------

    def domain_ids_at(self, ips: np.ndarray, tss: np.ndarray) -> np.ndarray:
        """Name-table ids each ``(ip, ts)`` was serving, -1 unknown.

        Uses the latest epoch starting at or before ``ts`` within the
        freshness window; a flow predating any observation of its
        server IP stays unannotated (the dnsless-media case the paper
        handles with published IP ranges instead).
        """
        idx, valid = self._log.locate(ips, tss)
        out = np.full(len(ips), -1, dtype=np.int32)
        if valid.any():
            ok = valid & (tss - self._log.until[idx]
                          <= self.freshness_seconds)
            out[ok] = self._log.label[idx[ok]]
        return out

    def domain_ids_at_degraded(
            self, ips: np.ndarray, tss: np.ndarray,
            gaps: Sequence[Tuple[float, float]]) -> np.ndarray:
        """Gap-aware lookup: discount DNS outage seconds from staleness.

        During a DNS log gap no observation *could* have refreshed the
        epoch, so seconds the gaps overlap with ``(last_seen, ts]`` do
        not count against the freshness budget. Callers count every
        rescue; outside gaps the answer is :meth:`domain_ids_at`'s.
        """
        idx, valid = self._log.locate(ips, tss)
        out = np.full(len(ips), -1, dtype=np.int32)
        if not valid.any():
            return out
        last = self._log.until[idx]
        stale = tss - last
        covered = np.zeros(len(ips), dtype=np.float64)
        for start, end in merge_spans(gaps):
            covered += np.clip(np.minimum(end, tss) - np.maximum(start, last),
                               0.0, None)
        ok = valid & (stale - covered <= self.freshness_seconds)
        out[ok] = self._log.label[idx[ok]]
        return out

    @property
    def record_count(self) -> int:
        return self._record_count

    def __len__(self) -> int:
        return len(self._log.tail)
