"""Serialization tests for DNS log records."""

import io

import pytest

from repro.dns.records import DnsLogRecord, read_dns_log, write_dns_log
from tests.reliability.nonfinite import (
    NON_FINITE,
    assert_refused_once,
    with_raw_value,
)


class TestSerialization:
    def test_round_trip(self):
        records = [
            DnsLogRecord(ts=10.5, client_ip=0x64400001, qname="zoom.us",
                         answers=(0x32000001, 0x32000002), ttl=300.0),
            DnsLogRecord(ts=11.5, client_ip=0x64400002,
                         qname="tiktok.com", answers=(0x32000003,),
                         ttl=60.0),
        ]
        buffer = io.StringIO()
        assert write_dns_log(records, buffer) == 2
        buffer.seek(0)
        assert list(read_dns_log(buffer)) == records

    def test_blank_lines_skipped(self):
        record = DnsLogRecord(1.0, 1, "a.example.com", (2,), 60.0)
        buffer = io.StringIO("\n" + record.to_json() + "\n   \n")
        assert list(read_dns_log(buffer)) == [record]


class TestNumericValidation:
    @pytest.mark.parametrize("field,raw", [
        *((field, raw) for field in ("ts", "ttl") for raw in NON_FINITE),
        ("ttl", "-1.0"),  # a TTL must also not be negative
    ])
    def test_non_finite_refused(self, field, raw):
        good = DnsLogRecord(1.0, 1, "a.example.com", (2,), 60.0).to_json()
        assert_refused_once(read_dns_log, good,
                            with_raw_value(good, field, raw), "dns")
