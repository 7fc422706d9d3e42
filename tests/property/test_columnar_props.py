"""Property-based equivalence: columnar indexes vs reference loops.

Each columnar structure (interval-join lease index, per-IP DNS epoch
tables, batch flow engine) must answer every query exactly as its
row-at-a-time reference twin on *randomly generated* inputs covering
the awkward regions: overlapping leases, expired leases queried inside
staleness holdover, DNS epochs split by stale gaps, flows interleaved
across batch boundaries and idle timeouts, and index entries changed or
joined by later ingest after a query has already indexed them.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.dhcp.log import DhcpLogRecord
from repro.dns.records import DnsColumns, DnsLogRecord
from repro.net.mac import MacAddress
from repro.net.wire import SegmentBurst
from tests.oracles.flow_engine import FlowEngine, RowColumnarFlowEngine
from tests.oracles.resolvers import (
    IpDomainResolver,
    IpMacResolver,
    RowDnsIndex,
    RowLeaseIndex,
)

# -- DHCP lease interval join ---------------------------------------------

#: (ip index, time delta, lease duration, mac index) -- deltas keep the
#: stream globally time-ordered; short durations make expiry and
#: holdover regions common rather than rare.
_lease_event = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.0, max_value=4000.0),
    st.floats(min_value=1.0, max_value=3000.0),
    st.integers(min_value=0, max_value=4),
)

_query_point = st.tuples(
    st.integers(min_value=0, max_value=4),       # ip index (incl. unseen)
    st.floats(min_value=-500.0, max_value=30_000.0),
)


#: (ip index, seconds back from the stream clock at query time) --
#: negative values probe past the newest record.
_recent_query = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=-12_000.0, max_value=20_000.0),
)

_cuts = st.lists(st.integers(min_value=1, max_value=39), max_size=4,
                 unique=True)


def _chunks(items, cuts):
    edges = sorted({cut for cut in cuts if cut < len(items)})
    return [items[lo:hi]
            for lo, hi in zip([0] + edges, edges + [len(items)])]


def _lease_records(events):
    clock = 0.0
    records = []
    for ip_idx, delta, duration, mac_idx in events:
        clock += delta
        records.append(DhcpLogRecord(
            ts=clock, mac=MacAddress(0x9C1A0000_0000 + mac_idx),
            ip=0x0A00_0000 + ip_idx, lease_end=clock + duration))
    return records


class TestLeaseIndexProperties:
    @given(st.lists(_lease_event, max_size=40),
           st.lists(_query_point, min_size=1, max_size=25),
           st.floats(min_value=0.0, max_value=5000.0))
    @settings(max_examples=200)
    def test_interval_join_equals_reference(self, events, queries,
                                            staleness):
        reference = IpMacResolver()
        columnar = RowLeaseIndex()
        for record in _lease_records(events):
            reference.ingest(record)
            columnar.ingest(record)

        ips = np.array([0x0A00_0000 + q[0] for q in queries],
                       dtype=np.int64)
        tss = np.array([q[1] for q in queries], dtype=np.float64)
        fresh_ids = columnar.mac_ids_at(ips, tss)
        stale_ids = columnar.mac_ids_at_stale(ips, tss, staleness)
        for i, (ip, ts) in enumerate(zip(ips.tolist(), tss.tolist())):
            assert columnar.mac_at(ip, ts) == reference.mac_at(ip, ts)
            expected = reference.mac_at(ip, ts)
            got = (None if fresh_ids[i] < 0
                   else columnar.mac_table[int(fresh_ids[i])])
            assert got == expected
            expected_stale = reference.mac_at_stale(ip, ts, staleness)
            got_stale = (None if stale_ids[i] < 0
                         else columnar.mac_table[int(stale_ids[i])])
            assert got_stale == expected_stale

    @given(st.lists(_lease_event, max_size=40), _cuts,
           st.lists(_recent_query, min_size=1, max_size=10),
           st.floats(min_value=0.0, max_value=5000.0))
    @example(  # a binding renewed after a query indexed it
        events=[(0, 0.0, 1000.0, 0), (0, 500.0, 1000.0, 0)], cuts=[1],
        queries=[(0, -700.0)], staleness=0.0)
    @example(  # a binding truncated by a foreign grant after indexing
        events=[(0, 0.0, 1000.0, 0), (0, 500.0, 1000.0, 1)], cuts=[1],
        queries=[(0, 100.0), (0, -200.0)], staleness=600.0)
    @example(  # equal (ip, start) keys split across batches
        events=[(0, 10.0, 1000.0, 0), (0, 0.0, 1000.0, 1)], cuts=[1],
        queries=[(0, 0.0), (0, -2000.0)], staleness=1500.0)
    @settings(max_examples=200)
    def test_interleaved_ingest_and_query_equals_reference(
            self, events, cuts, queries, staleness):
        reference = IpMacResolver()
        columnar = RowLeaseIndex()
        clock = 0.0
        for chunk in _chunks(_lease_records(events), cuts):
            for record in chunk:
                reference.ingest(record)
                columnar.ingest(record)
                clock = record.ts
            ips = np.array([0x0A00_0000 + q[0] for q in queries],
                           dtype=np.int64)
            tss = np.array([clock - q[1] for q in queries],
                           dtype=np.float64)
            fresh_ids = columnar.mac_ids_at(ips, tss)
            stale_ids = columnar.mac_ids_at_stale(ips, tss, staleness)
            for i, (ip, ts) in enumerate(zip(ips.tolist(), tss.tolist())):
                got = (None if fresh_ids[i] < 0
                       else columnar.mac_table[int(fresh_ids[i])])
                assert got == reference.mac_at(ip, ts)
                got_stale = (None if stale_ids[i] < 0
                             else columnar.mac_table[int(stale_ids[i])])
                assert got_stale == reference.mac_at_stale(ip, ts,
                                                           staleness)


# -- DNS epoch tables ------------------------------------------------------

_dns_event = st.tuples(
    st.floats(min_value=0.0, max_value=40_000.0),      # time delta
    st.integers(min_value=0, max_value=3),             # qname index
    st.lists(st.integers(min_value=0, max_value=3),    # answer ip indexes
             min_size=0, max_size=3, unique=True),
)

_gap_span = st.tuples(st.floats(min_value=0.0, max_value=200_000.0),
                      st.floats(min_value=1.0, max_value=100_000.0))


def _dns_records(events):
    clock = 0.0
    records = []
    for delta, name_idx, answers in events:
        clock += delta
        records.append(DnsLogRecord(
            ts=clock, client_ip=0x0A000001, qname=f"site{name_idx}.edu",
            answers=tuple(0x08080800 + a for a in answers), ttl=300.0))
    return records


class TestDnsIndexProperties:
    # A small freshness window makes stale-gap splits common.
    FRESHNESS = 9000.0

    def _build(self, events, batch):
        reference = IpDomainResolver(freshness_seconds=self.FRESHNESS)
        columnar = RowDnsIndex(freshness_seconds=self.FRESHNESS)
        records = _dns_records(events)
        for record in records:
            reference.ingest(record)
        if batch:
            columnar.ingest_batch(DnsColumns.from_rows(records))
        else:
            for record in records:
                columnar.ingest(record)
        return reference, columnar

    @given(st.lists(_dns_event, max_size=40),
           st.lists(_query_point, min_size=1, max_size=25),
           st.booleans())
    @settings(max_examples=200)
    def test_lookback_equals_reference(self, events, queries, batch):
        reference, columnar = self._build(events, batch)
        ips = np.array([0x08080800 + q[0] for q in queries],
                       dtype=np.int64)
        tss = np.array([q[1] for q in queries], dtype=np.float64)
        ids = columnar.domain_ids_at(ips, tss)
        for i, (ip, ts) in enumerate(zip(ips.tolist(), tss.tolist())):
            expected = reference.domain_at(ip, ts)
            assert columnar.domain_at(ip, ts) == expected
            got = (None if ids[i] < 0
                   else columnar.name_table[int(ids[i])])
            assert got == expected

    @given(st.lists(_dns_event, max_size=40),
           st.lists(_query_point, min_size=1, max_size=15),
           st.lists(_gap_span, max_size=4),
           st.booleans())
    @settings(max_examples=150)
    def test_degraded_lookback_equals_reference(self, events, queries,
                                                spans, batch):
        reference, columnar = self._build(events, batch)
        gaps = [(start, start + length) for start, length in spans]
        ips = np.array([0x08080800 + q[0] for q in queries],
                       dtype=np.int64)
        tss = np.array([q[1] for q in queries], dtype=np.float64)
        ids = columnar.domain_ids_at_degraded(ips, tss, gaps)
        for i, (ip, ts) in enumerate(zip(ips.tolist(), tss.tolist())):
            expected = reference.domain_at_degraded(ip, ts, gaps)
            assert columnar.domain_at_degraded(ip, ts, gaps) == expected
            got = (None if ids[i] < 0
                   else columnar.name_table[int(ids[i])])
            assert got == expected

    @given(st.lists(_dns_event, max_size=40), _cuts,
           st.lists(_recent_query, min_size=1, max_size=10),
           st.lists(_gap_span, max_size=3), st.booleans())
    @example(  # an epoch refreshed after a query indexed it
        events=[(0.0, 0, [0]), (100.0, 0, [0])], cuts=[1],
        queries=[(0, -8950.0)], spans=[], batch=True)
    @example(  # equal (ip, start) keys split across batches
        events=[(10.0, 0, [0, 1]), (0.0, 1, [0])], cuts=[1],
        queries=[(0, 0.0), (1, 0.0), (0, -9500.0)],
        spans=[(5000.0, 5000.0)], batch=False)
    @settings(max_examples=200)
    def test_interleaved_ingest_and_query_equals_reference(
            self, events, cuts, queries, spans, batch):
        reference = IpDomainResolver(freshness_seconds=self.FRESHNESS)
        columnar = RowDnsIndex(freshness_seconds=self.FRESHNESS)
        gaps = [(start, start + length) for start, length in spans]
        clock = 0.0
        for chunk in _chunks(_dns_records(events), cuts):
            for record in chunk:
                reference.ingest(record)
                clock = record.ts
            if batch:
                columnar.ingest_batch(DnsColumns.from_rows(chunk))
            else:
                for record in chunk:
                    columnar.ingest(record)
            ips = np.array([0x08080800 + q[0] for q in queries],
                           dtype=np.int64)
            tss = np.array([clock - q[1] for q in queries],
                           dtype=np.float64)
            ids = columnar.domain_ids_at(ips, tss)
            degraded = columnar.domain_ids_at_degraded(ips, tss, gaps)
            for i, (ip, ts) in enumerate(zip(ips.tolist(), tss.tolist())):
                got = (None if ids[i] < 0
                       else columnar.name_table[int(ids[i])])
                assert got == reference.domain_at(ip, ts)
                got_degraded = (None if degraded[i] < 0
                                else columnar.name_table[int(degraded[i])])
                assert got_degraded == reference.domain_at_degraded(
                    ip, ts, gaps)

    @given(st.lists(_dns_event, max_size=40))
    @settings(max_examples=100)
    def test_batch_ingest_equals_scalar_ingest(self, events):
        _, scalar = self._build(events, batch=False)
        _, batched = self._build(events, batch=True)
        assert scalar.record_count == batched.record_count
        assert len(scalar) == len(batched)
        assert sorted(scalar.observed_ips()) == sorted(batched.observed_ips())
        # The whole index state, not just its answers: name table,
        # entry log columns and tail pointers.
        assert scalar.name_table == batched.name_table
        for name in ("ip", "start", "until", "label"):
            size = scalar._log.size
            assert batched._log.size == size
            assert (getattr(scalar._log, name)[:size].tolist()
                    == getattr(batched._log, name)[:size].tolist())
        assert scalar._log.tail == batched._log.tail


# -- Flow engine -----------------------------------------------------------

#: (key index, time delta, is_final, has user agent, has host) over a
#: tiny key space so flows collide, interleave, continue across batch
#: boundaries and get idle-killed.
_burst_event = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.0, max_value=500.0),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)

_KEYS = [
    (0x0A000001, 40001, 0x08080808, 443, "tcp"),
    (0x0A000001, 40002, 0x08080808, 80, "tcp"),
    (0x0A000002, 50001, 0x08080404, 443, "udp"),
    (0x0A000002, 40001, 0x08080808, 443, "tcp"),
]


def _bursts(events):
    clock = 0.0
    bursts = []
    for key_idx, delta, final, has_ua, has_host in events:
        clock += delta
        cip, cport, sip, sport, proto = _KEYS[key_idx]
        bursts.append(SegmentBurst(
            ts=clock, client_ip=cip, client_port=cport, server_ip=sip,
            server_port=sport, proto=proto, orig_bytes=10, resp_bytes=20,
            user_agent=f"ua-{key_idx}" if has_ua else None,
            http_host=f"host{key_idx}.edu" if has_host else None,
            is_final=final))
    return bursts


class TestFlowEngineProperties:
    @given(st.lists(_burst_event, max_size=60),
           st.lists(st.integers(min_value=1, max_value=59), max_size=3,
                    unique=True))
    @settings(max_examples=200)
    def test_batched_assembly_equals_scalar(self, events, cuts):
        """Any chunking of the stream yields the scalar engine's exact
        ConnRecords (uids included) and flush behaviour."""
        bursts = _bursts(events)
        reference = FlowEngine(idle_timeout=600.0)
        columnar = RowColumnarFlowEngine(idle_timeout=600.0)
        clock = 0.0
        for chunk in _chunks(bursts, cuts):
            assert columnar.process(chunk) == reference.process(chunk)
            if chunk:
                clock = max(clock, chunk[-1].ts)
            # Mid-stream idle flush, then the terminal flush-all.
            assert (columnar.flush(clock + 50.0)
                    == reference.flush(clock + 50.0))
            assert columnar.open_flow_count == reference.open_flow_count
        assert columnar.flush(None) == reference.flush(None)
        assert columnar.open_flow_count == reference.open_flow_count == 0
        assert columnar.drain_http() == reference.drain_http()
