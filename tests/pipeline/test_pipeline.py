"""Tests for the monitoring pipeline against a hand-built day trace."""

from dataclasses import dataclass, field
from typing import List

import numpy as np
import pytest

from repro.columnar.batch import BurstBatch
from repro.config import StudyConfig
from repro.dhcp.log import DhcpLogRecord
from repro.dns.records import DnsColumns, DnsLogRecord
from repro.net.ip import Prefix
from repro.net.mac import MacAddress
from repro.net.wire import BurstColumns, SegmentBurst
from repro.pipeline.pipeline import MonitoringPipeline
from repro.pipeline.visitors import apply_visitor_filter, visitor_filter_mask
from repro.util.timeutil import DAY

MAC_A = MacAddress.parse("9c:1a:00:00:00:01")
MAC_B = MacAddress.parse("02:aa:bb:cc:dd:ee")
CLIENT_A = 0x64400001
CLIENT_B = 0x64400002
SERVER = 0x32000001
EXCLUDED_SERVER = 0x3C000001


@dataclass
class FakeTrace:
    day_start: float
    dhcp_records: List[DhcpLogRecord] = field(default_factory=list)
    dns_records: DnsColumns = field(
        default_factory=lambda: DnsColumns.from_rows([]))
    bursts: BurstColumns = field(
        default_factory=lambda: BurstColumns.from_rows([]))


def _config():
    return StudyConfig(n_students=1, seed=0)


def _burst(ts, client=CLIENT_A, server=SERVER, port=50000, orig=100,
           resp=200, final=True, ua=None):
    return SegmentBurst(
        ts=ts, client_ip=client, client_port=port, server_ip=server,
        server_port=443, proto="tcp", orig_bytes=orig, resp_bytes=resp,
        user_agent=ua, is_final=final)


def _day(day_index=0, bursts=(), dns_records=(), **kwargs):
    start = StudyConfig().start_ts + day_index * DAY
    return FakeTrace(day_start=start, bursts=BurstColumns.from_rows(bursts),
                     dns_records=DnsColumns.from_rows(dns_records),
                     **kwargs)


def _lease(ts, mac=MAC_A, ip=CLIENT_A):
    return DhcpLogRecord(ts=ts, mac=mac, ip=ip, lease_end=ts + DAY)


def _dns(ts, qname="zoom.us", answers=(SERVER,)):
    return DnsLogRecord(ts=ts, client_ip=CLIENT_A, qname=qname,
                        answers=tuple(answers), ttl=300.0)


class TestIngest:
    def test_basic_attribution_and_annotation(self):
        start = StudyConfig().start_ts
        pipe = MonitoringPipeline(_config())
        pipe.ingest_day(_day(
            dhcp_records=[_lease(start)],
            dns_records=[_dns(start + 5)],
            bursts=[_burst(start + 10)],
        ))
        dataset = pipe.finalize()
        assert len(dataset) == 1
        assert dataset.n_devices == 1
        assert dataset.domains[dataset.domain[0]] == "zoom.us"
        assert dataset.devices[0].oui == 0x9C1A00

    def test_unattributed_flow_dropped(self):
        start = StudyConfig().start_ts
        pipe = MonitoringPipeline(_config())
        pipe.ingest_day(_day(bursts=[_burst(start + 10)]))
        dataset = pipe.finalize()
        assert len(dataset) == 0
        assert pipe.stats.flows_unattributed == 1

    def test_excluded_network_dropped_at_tap(self):
        start = StudyConfig().start_ts
        pipe = MonitoringPipeline(
            _config(), excluded_prefixes=[Prefix(0x3C000000, 8)])
        pipe.ingest_day(_day(
            dhcp_records=[_lease(start)],
            bursts=[_burst(start + 10, server=EXCLUDED_SERVER),
                    _burst(start + 20)],
        ))
        dataset = pipe.finalize()
        assert len(dataset) == 1
        assert dataset.resp_h[0] == SERVER
        assert pipe.tap.dropped_bursts == 1

    def test_ip_reuse_attributes_correctly(self):
        """The same client IP maps to different devices over time."""
        start = StudyConfig().start_ts
        pipe = MonitoringPipeline(_config())
        pipe.ingest_day(_day(0,
            dhcp_records=[DhcpLogRecord(start, MAC_A, CLIENT_A,
                                        start + 3600)],
            bursts=[_burst(start + 10, port=1)],
        ))
        pipe.ingest_day(_day(1,
            dhcp_records=[DhcpLogRecord(start + DAY, MAC_B, CLIENT_A,
                                        start + DAY + 3600)],
            bursts=[_burst(start + DAY + 10, port=2)],
        ))
        dataset = pipe.finalize()
        assert dataset.n_devices == 2
        assert dataset.devices[0].oui == 0x9C1A00
        assert dataset.devices[1].is_locally_administered

    def test_flow_spanning_days_stays_open(self):
        start = StudyConfig().start_ts
        pipe = MonitoringPipeline(_config())
        pipe.ingest_day(_day(0,
            dhcp_records=[_lease(start)],
            bursts=[_burst(start + DAY - 100, final=False)],
        ))
        assert pipe.stats.flows_closed == 0
        pipe.ingest_day(_day(1, bursts=[_burst(start + DAY + 50)]))
        dataset = pipe.finalize()
        assert len(dataset) == 1
        assert dataset.duration[0] == pytest.approx(150.0)

    def test_user_agent_reaches_profile(self):
        start = StudyConfig().start_ts
        pipe = MonitoringPipeline(_config())
        pipe.ingest_day(_day(
            dhcp_records=[_lease(start)],
            bursts=[_burst(start + 10, ua="Mozilla/5.0 (iPhone)")],
        ))
        dataset = pipe.finalize()
        assert "Mozilla/5.0 (iPhone)" in dataset.devices[0].user_agents

    def test_stats_counters(self):
        start = StudyConfig().start_ts
        pipe = MonitoringPipeline(_config())
        pipe.ingest_day(_day(
            dhcp_records=[_lease(start)],
            dns_records=[_dns(start + 1)],
            bursts=[_burst(start + 10)],
        ))
        assert pipe.stats.days_ingested == 1
        assert pipe.stats.dhcp_records == 1
        assert pipe.stats.dns_records == 1
        assert pipe.stats.bursts_seen == 1
        assert pipe.stats.attribution_rate == 1.0


class TestVisitorFilter:
    def _dataset_with_device_days(self, day_lists):
        start = StudyConfig().start_ts
        pipe = MonitoringPipeline(_config())
        leases, bursts = {}, {}
        for device_offset, days in enumerate(day_lists):
            mac = MacAddress(0x9C1A0000_0000 + device_offset)
            ip = CLIENT_A + device_offset
            for day in days:
                ts = start + day * DAY
                leases.setdefault(day, []).append(
                    DhcpLogRecord(ts, mac, ip, ts + 3600))
                bursts.setdefault(day, []).append(
                    _burst(ts + 10, client=ip, port=40000 + day))
        for day in sorted(leases):
            pipe.ingest_day(_day(day, dhcp_records=leases[day],
                                 bursts=bursts[day]))
        return pipe.finalize()

    def test_threshold(self):
        dataset = self._dataset_with_device_days([
            list(range(20)),   # resident: 20 active days
            list(range(5)),    # visitor: 5 active days
        ])
        mask = visitor_filter_mask(dataset, min_days=14)
        assert list(mask) == [True, False]

    def test_distinct_days_not_span(self):
        """A device seen twice 30 days apart has 2 active days, not 30."""
        dataset = self._dataset_with_device_days([[0, 30]])
        assert not visitor_filter_mask(dataset, min_days=14)[0]

    def test_apply_filter_removes_flows(self):
        dataset = self._dataset_with_device_days([
            list(range(20)), list(range(3))])
        filtered = apply_visitor_filter(dataset, min_days=14)
        assert len(filtered) == 20
        kept_devices = set(filtered.device)
        assert kept_devices == {0}

    def test_min_days_validated(self):
        dataset = self._dataset_with_device_days([[0]])
        with pytest.raises(ValueError):
            visitor_filter_mask(dataset, min_days=0)


class TestFinalizeHttpDrain:
    def test_finalize_counts_undrained_http_records(self):
        """Regression: http.log records accumulated after the last
        end-of-day drain must still be counted by finalize()."""
        start = StudyConfig().start_ts
        pipe = MonitoringPipeline(_config())
        kept = pipe.tap.filter_batch(BurstBatch.from_bursts(
            BurstColumns.from_rows([_burst(start + 10, ua="curl/8")])))
        pipe.flow_engine.process_batch(kept)
        pipe.finalize()
        assert pipe.stats.http_records == 1

    def test_day_pass_and_finalize_do_not_double_count(self):
        start = StudyConfig().start_ts
        pipe = MonitoringPipeline(_config())
        pipe.ingest_day(_day(
            dhcp_records=[_lease(start)],
            bursts=[_burst(start + 10, ua="curl/8")],
        ))
        pipe.finalize()
        assert pipe.stats.http_records == 1


class TestTokenCacheStats:
    def test_hits_misses_and_size_reported(self):
        start = StudyConfig().start_ts
        pipe = MonitoringPipeline(_config())
        pipe.ingest_day(_day(
            dhcp_records=[_lease(start),
                          _lease(start, mac=MAC_B, ip=CLIENT_B)],
            bursts=[_burst(start + 10, port=1),
                    _burst(start + 20, port=2),
                    _burst(start + 30, client=CLIENT_B, port=3)],
        ))
        pipe.finalize()
        assert pipe.stats.anon_cache_misses == 2
        assert pipe.stats.anon_cache_hits == 1
        assert pipe.anon_cache_size == 2
        assert pipe.stats.anon_cache_hit_rate == pytest.approx(1 / 3)

    def test_unattributed_flows_never_touch_the_cache(self):
        start = StudyConfig().start_ts
        pipe = MonitoringPipeline(_config())
        pipe.ingest_day(_day(bursts=[_burst(start + 10)]))
        pipe.finalize()
        assert pipe.anon_cache_size == 0
        assert pipe.stats.anon_cache_hit_rate == 1.0
