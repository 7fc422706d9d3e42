"""IP->MAC normalization from DHCP logs (the measurement side).

Reconstructs, purely from ACK records, which MAC held each dynamic IP
at any instant. Because the campus pools reuse addresses, the resolver
keeps a *time-ordered binding history per IP* and answers point
queries by bisection -- the exact operation the paper's pipeline
performs to attribute flows to devices (Section 3).
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dhcp.log import DhcpLogRecord
from repro.net.mac import MacAddress
from repro.reliability.errors import CATEGORY_ORDER, RecordError


class IpMacResolver:
    """Point-in-time IP->MAC lookup built from DHCP ACK records."""

    def __init__(self) -> None:
        # ip -> parallel arrays (start_ts, end_ts, mac), sorted by start.
        self._starts: Dict[int, List[float]] = defaultdict(list)
        self._ends: Dict[int, List[float]] = defaultdict(list)
        self._macs: Dict[int, List[MacAddress]] = defaultdict(list)
        self._record_count = 0

    @classmethod
    def from_records(cls, records: Iterable[DhcpLogRecord]) -> "IpMacResolver":
        """Build a resolver by ingesting a full log."""
        resolver = cls()
        for record in records:
            resolver.ingest(record)
        return resolver

    def ingest(self, record: DhcpLogRecord) -> None:
        """Incorporate one ACK. Records must arrive in time order per IP.

        A renewal by the same MAC extends the current binding; a grant
        to a different MAC truncates the previous binding at the grant
        instant (the server only reassigns after expiry, but truncating
        keeps the history consistent even with overlapping logs).
        """
        starts = self._starts[record.ip]
        ends = self._ends[record.ip]
        macs = self._macs[record.ip]
        self._record_count += 1

        if starts and record.ts < starts[-1]:
            raise RecordError(
                f"DHCP log out of order for IP {record.ip}: "
                f"{record.ts} < {starts[-1]}",
                source="dhcp", category=CATEGORY_ORDER)
        if macs and macs[-1] == record.mac and record.ts <= ends[-1]:
            # Renewal: extend the open binding.
            ends[-1] = max(ends[-1], record.lease_end)
            return
        if ends and ends[-1] > record.ts:
            ends[-1] = record.ts
        starts.append(record.ts)
        ends.append(record.lease_end)
        macs.append(record.mac)

    def mac_at(self, ip: int, ts: float) -> Optional[MacAddress]:
        """Return the MAC bound to ``ip`` at ``ts``, or None."""
        starts = self._starts.get(ip)
        if not starts:
            return None
        index = bisect.bisect_right(starts, ts) - 1
        if index < 0:
            return None
        if ts < self._ends[ip][index]:
            return self._macs[ip][index]
        return None

    def mac_at_stale(self, ip: int, ts: float,
                     staleness_seconds: float) -> Optional[MacAddress]:
        """Degraded lookup: hold the last lease over a bounded window.

        Used only for timestamps inside a known DHCP log gap (see
        :mod:`repro.pipeline.pipeline`): the renewal ACK that would have
        extended the lease may exist but never have been logged. The
        last binding stays answerable for ``staleness_seconds`` past its
        logged expiry -- unless a *different* MAC was since granted the
        address, which proves the hold-over wrong.
        """
        starts = self._starts.get(ip)
        if not starts:
            return None
        index = bisect.bisect_right(starts, ts) - 1
        if index < 0:
            return None
        end = self._ends[ip][index]
        if ts < end or ts - end <= staleness_seconds:
            return self._macs[ip][index]
        return None

    def bindings_of(self, ip: int) -> Tuple[Tuple[float, float, MacAddress], ...]:
        """Full binding history of one IP (inspection/testing)."""
        return tuple(zip(self._starts.get(ip, ()),
                         self._ends.get(ip, ()),
                         self._macs.get(ip, ())))

    @property
    def record_count(self) -> int:
        """Number of ACKs ingested."""
        return self._record_count

    def __len__(self) -> int:
        """Number of distinct IPs with binding history."""
        return len(self._starts)
