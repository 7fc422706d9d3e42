"""A simulated campus DHCP server.

Implements the allocation behaviour that makes IP->MAC normalization
non-trivial downstream:

* addresses come from finite residential pools;
* a client renewing within its lease keeps its address (the common
  case -- devices hold an IP for days);
* expired addresses return to the free list and are **reused** by other
  clients (least-recently-freed first), so one IP maps to different
  MACs over the study;
* every ACK (grant or renewal) is appended to the DHCP log.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.dhcp.lease import Lease
from repro.dhcp.log import DhcpLogRecord
from repro.net.ip import Prefix
from repro.net.mac import MacAddress


class PoolExhaustedError(RuntimeError):
    """Raised when no address is free in any pool."""


class DhcpServer:
    """Lease management over one or more address pools."""

    #: A client renews when less than this fraction of its lease remains
    #: (DHCP's T1 is nominally half the lease time).
    RENEW_FRACTION = 0.5

    def __init__(self, pools: Iterable[Prefix], lease_seconds: float):
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        self.lease_seconds = float(lease_seconds)
        self._fresh: List[Tuple[int, int]] = [
            (prefix.first + 1, prefix.last - 1) for prefix in pools
        ]  # skip network/broadcast addresses
        if not self._fresh:
            raise ValueError("at least one pool is required")
        self._reusable: Deque[int] = deque()
        self._leases: Dict[MacAddress, Lease] = {}
        self._expiry_heap: List[Tuple[float, int, MacAddress]] = []
        self._log: List[DhcpLogRecord] = []

    # -- client interface ----------------------------------------------

    def acquire(self, mac: MacAddress, ts: float) -> Lease:
        """Return the client's lease at ``ts``, granting or renewing.

        A client with a still-valid lease keeps its address; the lease
        is extended when past the renewal threshold. An expired (or
        absent) client gets a fresh address.
        """
        self._reclaim_expired(ts)
        current = self._leases.get(mac)
        if current is not None and current.active_at(ts):
            remaining = current.end - ts
            if remaining < self.lease_seconds * self.RENEW_FRACTION:
                renewed = current.renewed(ts, self.lease_seconds)
                self._grant(renewed, log_ts=ts)
            return self._leases[mac]

        ip = self._next_free_ip(ts)
        lease = Lease(mac=mac, ip=ip, start=ts, end=ts + self.lease_seconds)
        self._grant(lease, log_ts=ts)
        return lease

    def lease_of(self, mac: MacAddress, ts: float) -> Optional[Lease]:
        """Return the active lease for a MAC, or None."""
        lease = self._leases.get(mac)
        if lease is not None and lease.active_at(ts):
            return lease
        return None

    # -- log access ------------------------------------------------------

    def drain_log(self) -> List[DhcpLogRecord]:
        """Return and clear the accumulated ACK records."""
        drained = self._log
        self._log = []
        return drained

    # -- internals -------------------------------------------------------

    def _grant(self, lease: Lease, log_ts: float) -> None:
        self._leases[lease.mac] = lease
        heapq.heappush(self._expiry_heap, (lease.end, lease.ip, lease.mac))
        self._log.append(DhcpLogRecord(
            ts=log_ts, mac=lease.mac, ip=lease.ip, lease_end=lease.end))

    def _reclaim_expired(self, ts: float) -> None:
        while self._expiry_heap and self._expiry_heap[0][0] <= ts:
            end, ip, mac = heapq.heappop(self._expiry_heap)
            lease = self._leases.get(mac)
            if lease is None or lease.ip != ip or lease.end > end:
                # Stale entry: the lease was renewed (a newer heap entry
                # exists) or the address already moved on.
                continue
            del self._leases[mac]
            self._reusable.append(ip)

    def _next_free_ip(self, ts: float) -> int:
        for index, (cursor, last) in enumerate(self._fresh):
            if cursor <= last:
                self._fresh[index] = (cursor + 1, last)
                return cursor
        if self._reusable:
            return self._reusable.popleft()
        raise PoolExhaustedError(
            f"all pools exhausted at ts={ts}: grow client_pools or shorten leases"
        )
