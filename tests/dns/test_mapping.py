"""Tests for IP->domain annotation from DNS logs."""

import pytest

from repro.dns.records import DnsLogRecord
from tests.oracles.resolvers import IpDomainResolver

IP1, IP2 = 0x32000001, 0x32000002


def _query(ts, qname, answers, ttl=300.0):
    return DnsLogRecord(ts=ts, client_ip=0x64400001, qname=qname,
                        answers=tuple(answers), ttl=ttl)


class TestDomainAt:
    def test_basic_annotation(self):
        resolver = IpDomainResolver.from_records(
            [_query(100.0, "zoom.us", [IP1])])
        assert resolver.domain_at(IP1, 100.0) == "zoom.us"
        assert resolver.domain_at(IP1, 101.0) == "zoom.us"

    def test_no_observation_before_flow(self):
        resolver = IpDomainResolver.from_records(
            [_query(100.0, "zoom.us", [IP1])])
        assert resolver.domain_at(IP1, 99.0) is None

    def test_unknown_ip(self):
        resolver = IpDomainResolver()
        assert resolver.domain_at(IP1, 0.0) is None

    def test_refresh_keeps_epoch_start(self):
        """A later observation of the same qname must not erase history
        (regression: flows between observations lost annotation)."""
        resolver = IpDomainResolver.from_records([
            _query(100.0, "zoom.us", [IP1]),
            _query(5000.0, "zoom.us", [IP1]),
        ])
        assert resolver.domain_at(IP1, 2500.0) == "zoom.us"

    def test_domain_change_creates_epoch(self):
        resolver = IpDomainResolver.from_records([
            _query(100.0, "a.example.com", [IP1]),
            _query(5000.0, "b.example.com", [IP1]),
        ])
        assert resolver.domain_at(IP1, 4999.0) == "a.example.com"
        assert resolver.domain_at(IP1, 5000.0) == "b.example.com"

    def test_freshness_window(self):
        resolver = IpDomainResolver(freshness_seconds=1000.0)
        resolver.ingest(_query(0.0, "zoom.us", [IP1]))
        assert resolver.domain_at(IP1, 999.0) == "zoom.us"
        assert resolver.domain_at(IP1, 1001.0) is None

    def test_refresh_extends_freshness(self):
        resolver = IpDomainResolver(freshness_seconds=1000.0)
        resolver.ingest(_query(0.0, "zoom.us", [IP1]))
        resolver.ingest(_query(900.0, "zoom.us", [IP1]))
        assert resolver.domain_at(IP1, 1800.0) == "zoom.us"

    def test_stale_gap_splits_epoch(self):
        """A re-observation after more than a freshness window starts a
        new epoch rather than retroactively vouching for the gap: the
        resolver's lookback must stay bounded by the window (sharded
        ingest rebuilds its state from exactly that much warm-up)."""
        resolver = IpDomainResolver(freshness_seconds=1000.0)
        resolver.ingest(_query(0.0, "zoom.us", [IP1]))
        resolver.ingest(_query(5000.0, "zoom.us", [IP1]))
        assert resolver.domain_at(IP1, 3000.0) is None
        assert resolver.domain_at(IP1, 5000.0) == "zoom.us"

    def test_multiple_answers_all_annotated(self):
        resolver = IpDomainResolver.from_records(
            [_query(0.0, "zoom.us", [IP1, IP2])])
        assert resolver.domain_at(IP1, 1.0) == "zoom.us"
        assert resolver.domain_at(IP2, 1.0) == "zoom.us"

    def test_out_of_order_rejected(self):
        resolver = IpDomainResolver()
        resolver.ingest(_query(100.0, "a.example.com", [IP1]))
        with pytest.raises(ValueError):
            resolver.ingest(_query(50.0, "b.example.com", [IP1]))

    def test_counters(self):
        resolver = IpDomainResolver.from_records([
            _query(0.0, "a.example.com", [IP1, IP2]),
            _query(1.0, "b.example.com", [IP1]),
        ])
        assert resolver.record_count == 2
        assert set(resolver.observed_ips()) == {IP1, IP2}

    def test_validation(self):
        with pytest.raises(ValueError):
            IpDomainResolver(freshness_seconds=0)
