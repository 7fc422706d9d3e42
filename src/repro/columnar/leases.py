"""Vectorized IP->MAC attribution: an interval join over lease arrays.

Ingest is a per-record state machine (renewals extend the open
binding, foreign grants truncate it); bindings accumulate into one
flat :class:`~repro.columnar.entrylog.EntryLog`, and whole query
batches locate "the last binding of this IP whose start <= ts" in one
pass over its point-in-time index.

Holdover (:meth:`ColumnarLeaseIndex.mac_ids_at_stale`) shares the
located entry and only changes the expiry predicate.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.columnar.entrylog import EntryLog
from repro.dhcp.log import DhcpLogRecord
from repro.net.mac import MacAddress
from repro.reliability.errors import CATEGORY_ORDER, RecordError


class ColumnarLeaseIndex:
    """Point-in-time IP->MAC lookup with batch (vectorized) queries."""

    def __init__(self) -> None:
        #: Bindings: ``until`` is the lease end, ``label`` the mac id.
        self._log = EntryLog()
        self.mac_table: List[MacAddress] = []
        self._mac_ids: Dict[int, int] = {}
        self._record_count = 0

    # -- ingest (per record) -----------------------------------------------

    def _intern_mac(self, mac: MacAddress) -> int:
        mid = self._mac_ids.get(mac.value)
        if mid is None:
            mid = len(self.mac_table)
            self._mac_ids[mac.value] = mid
            self.mac_table.append(mac)
        return mid

    def ingest(self, record: DhcpLogRecord) -> None:
        """Incorporate one ACK. Records must arrive in time order per IP."""
        self._record_count += 1
        log = self._log
        tail = log.tail.get(record.ip)
        if tail is not None and record.ts < log.start[tail]:
            raise RecordError(
                f"DHCP log out of order for IP {record.ip}: "
                f"{record.ts} < {log.start[tail]}",
                source="dhcp", category=CATEGORY_ORDER)
        mid = self._intern_mac(record.mac)
        if tail is not None:
            end = float(log.until[tail])
            if log.label[tail] == mid and record.ts <= end:
                # Renewal: extend the open binding.
                log.until[tail] = max(end, record.lease_end)
                return
            if end > record.ts:
                log.until[tail] = record.ts
        log.append(record.ip, record.ts, record.lease_end, mid)

    # -- batch queries -----------------------------------------------------

    def mac_ids_at(self, ips: np.ndarray, tss: np.ndarray) -> np.ndarray:
        """MAC-table ids bound to each ``(ip, ts)``, -1 where unbound."""
        idx, valid = self._log.locate(ips, tss)
        out = np.full(len(ips), -1, dtype=np.int32)
        if valid.any():
            ok = valid & (tss < self._log.until[idx])
            out[ok] = self._log.label[idx[ok]]
        return out

    def mac_ids_at_stale(self, ips: np.ndarray, tss: np.ndarray,
                         staleness_seconds: float) -> np.ndarray:
        """Degraded lookup: like :meth:`mac_ids_at`, but each binding
        stays answerable ``staleness_seconds`` past its logged expiry
        (used only for flows inside a known DHCP log gap)."""
        idx, valid = self._log.locate(ips, tss)
        out = np.full(len(ips), -1, dtype=np.int32)
        if valid.any():
            ends = self._log.until[idx]
            ok = valid & ((tss < ends) | (tss - ends <= staleness_seconds))
            out[ok] = self._log.label[idx[ok]]
        return out

    @property
    def record_count(self) -> int:
        return self._record_count

    def __len__(self) -> int:
        return len(self._log.tail)
