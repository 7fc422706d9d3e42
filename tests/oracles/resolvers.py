"""DHCP and DNS join oracles: per-IP resolvers and scalar adapters.

:class:`IpMacResolver` and :class:`IpDomainResolver` keep each IP's
binding (or DNS-epoch) history in Python lists and answer one point
query at a time by bisection -- the per-flow lookups the paper's
pipeline performs (Section 3). The columnar indexes
(:class:`repro.columnar.leases.ColumnarLeaseIndex`,
:class:`repro.columnar.dnsindex.ColumnarDnsIndex`) answer whole query
batches; :class:`RowLeaseIndex` and :class:`RowDnsIndex` put the
resolvers' scalar API on them so the equivalence gates can compare
the two answer for answer. :class:`RowDnsIndex` also keeps the
per-record DNS ingest that ``ColumnarDnsIndex.ingest_batch`` is held
to.
"""

import bisect
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.dnsindex import ColumnarDnsIndex
from repro.columnar.leases import ColumnarLeaseIndex
from repro.dhcp.log import DhcpLogRecord
from repro.dns.mapping import DEFAULT_FRESHNESS_SECONDS
from repro.dns.records import DnsLogRecord
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


class IpDomainResolver:
    """Point-in-time server-IP -> domain lookup built from DNS logs."""

    def __init__(self, freshness_seconds: float = DEFAULT_FRESHNESS_SECONDS):
        if freshness_seconds <= 0:
            raise ValueError("freshness_seconds must be positive")
        self.freshness_seconds = float(freshness_seconds)
        # Per answer address, parallel arrays per *annotation epoch*
        # (a maximal run of observations of the same qname with no gap
        # wider than the freshness window): the epoch's first
        # observation (bisection key), its latest observation (freshness
        # anchor), and the qname. Splitting on stale gaps keeps the
        # resolver's effective lookback bounded by the freshness window.
        self._times: Dict[int, List[float]] = defaultdict(list)
        self._last_seen: Dict[int, List[float]] = defaultdict(list)
        self._names: Dict[int, List[str]] = defaultdict(list)
        self._record_count = 0

    @classmethod
    def from_records(cls, records: Iterable[DnsLogRecord],
                     freshness_seconds: float = DEFAULT_FRESHNESS_SECONDS,
                     ) -> "IpDomainResolver":
        resolver = cls(freshness_seconds)
        for record in records:
            resolver.ingest(record)
        return resolver

    def ingest(self, record: DnsLogRecord) -> None:
        """Incorporate one query's answers (records in time order per IP)."""
        self._record_count += 1
        for address in record.answers:
            times = self._times[address]
            last_seen = self._last_seen[address]
            names = self._names[address]
            if last_seen and record.ts < last_seen[-1]:
                # Structured (and a ValueError subclass, so pre-taxonomy
                # callers still catch it): an out-of-order stream is a
                # per-record defect, not a resolver bug.
                raise RecordError(
                    f"DNS log out of order for answer {address}: "
                    f"{record.ts} < {last_seen[-1]}",
                    source="dns", category=CATEGORY_ORDER)
            if (names and names[-1] == record.qname
                    and record.ts - last_seen[-1] <= self.freshness_seconds):
                last_seen[-1] = record.ts  # refresh the open epoch
            else:
                times.append(record.ts)
                last_seen.append(record.ts)
                names.append(record.qname)

    def domain_at(self, ip: int, ts: float) -> Optional[str]:
        """Domain the address served at ``ts``, or None when unknown.

        Uses the latest observation at or before ``ts`` within the
        freshness window; a flow predating any observation of its
        server IP stays unannotated (exactly the dnsless-media case the
        paper handles with published IP ranges instead).
        """
        times = self._times.get(ip)
        if not times:
            return None
        index = bisect.bisect_right(times, ts) - 1
        if index < 0:
            return None
        if ts - self._last_seen[ip][index] > self.freshness_seconds:
            return None
        return self._names[ip][index]

    def domain_at_degraded(
            self, ip: int, ts: float,
            gaps: Sequence[Tuple[float, float]]) -> Optional[str]:
        """Gap-aware lookup: discount DNS outage seconds from staleness.

        During a DNS log gap no observation *could* have refreshed the
        epoch, so seconds the gap overlaps with ``(last_seen, ts]`` do
        not count against the freshness budget. This is an explicit
        degraded marker -- callers count every rescue -- rather than a
        silent global widening of lookback; outside gaps behaviour is
        exactly :meth:`domain_at`.
        """
        times = self._times.get(ip)
        if not times:
            return None
        index = bisect.bisect_right(times, ts) - 1
        if index < 0:
            return None
        last_seen = self._last_seen[ip][index]
        stale = ts - last_seen
        if stale <= self.freshness_seconds:
            return self._names[ip][index]
        # Merge overlapping gap spans before summing so double-declared
        # outages cannot double-discount.
        clipped = sorted(
            (max(start, last_seen), min(end, ts))
            for start, end in gaps if end > last_seen and start < ts)
        covered = 0.0
        cursor = float("-inf")
        for start, end in clipped:
            if end <= cursor:
                continue
            covered += end - max(start, cursor)
            cursor = end
        if stale - covered <= self.freshness_seconds:
            return self._names[ip][index]
        return None

    def observed_ips(self) -> Tuple[int, ...]:
        """All answer addresses seen (inspection/testing)."""
        return tuple(self._times)

    @property
    def record_count(self) -> int:
        return self._record_count

    def __len__(self) -> int:
        return len(self._times)


class RowLeaseIndex(ColumnarLeaseIndex):
    """:class:`ColumnarLeaseIndex` with :class:`IpMacResolver`'s
    point-query API."""

    def mac_at(self, ip: int, ts: float) -> Optional[MacAddress]:
        mid = self.mac_ids_at(np.array([ip], dtype=np.int64),
                              np.array([ts], dtype=np.float64))[0]
        return None if mid < 0 else self.mac_table[int(mid)]

    def mac_at_stale(self, ip: int, ts: float,
                     staleness_seconds: float) -> Optional[MacAddress]:
        mid = self.mac_ids_at_stale(np.array([ip], dtype=np.int64),
                                    np.array([ts], dtype=np.float64),
                                    staleness_seconds)[0]
        return None if mid < 0 else self.mac_table[int(mid)]


class RowDnsIndex(ColumnarDnsIndex):
    """:class:`ColumnarDnsIndex` with :class:`IpDomainResolver`'s
    per-record ingest and point-query API."""

    def _intern_name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.name_table)
            self._name_ids[name] = nid
            self.name_table.append(name)
        return nid

    def ingest(self, record: DnsLogRecord) -> None:
        """Incorporate one query's answers (time-ordered per IP)."""
        self._record_count += 1
        log = self._log
        # Every logged qname is interned, answers or not, in
        # first-occurrence order -- the name table batch ingest builds.
        nid = self._intern_name(record.qname)
        for address in record.answers:
            tail = log.tail.get(address)
            if tail is not None and record.ts < log.until[tail]:
                raise RecordError(
                    f"DNS log out of order for answer {address}: "
                    f"{record.ts} < {log.until[tail]}",
                    source="dns", category=CATEGORY_ORDER)
            if (tail is not None and log.label[tail] == nid
                    and record.ts - log.until[tail]
                    <= self.freshness_seconds):
                log.until[tail] = record.ts  # refresh the open epoch
            else:
                log.append(address, record.ts, record.ts, nid)

    def domain_at(self, ip: int, ts: float) -> Optional[str]:
        nid = self.domain_ids_at(np.array([ip], dtype=np.int64),
                                 np.array([ts], dtype=np.float64))[0]
        return None if nid < 0 else self.name_table[int(nid)]

    def domain_at_degraded(
            self, ip: int, ts: float,
            gaps: Sequence[Tuple[float, float]]) -> Optional[str]:
        nid = self.domain_ids_at_degraded(
            np.array([ip], dtype=np.int64),
            np.array([ts], dtype=np.float64), gaps)[0]
        return None if nid < 0 else self.name_table[int(nid)]

    def observed_ips(self) -> Tuple[int, ...]:
        """All answer addresses seen."""
        return tuple(self._log.tail)
