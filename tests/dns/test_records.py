"""Serialization tests for DNS log records.

A DNS log file is read the way replay reads it: each line through
``DnsLogRecord.from_json`` under ``read_jsonl_records``.
"""

import io

import pytest

from repro.dns.records import DnsLogRecord
from repro.reliability.parsing import read_jsonl_records
from tests.reliability.nonfinite import (
    NON_FINITE,
    assert_refused_once,
    with_raw_value,
)


def _read(text):
    return list(read_jsonl_records(io.StringIO(text),
                                   DnsLogRecord.from_json, source="dns"))


class TestSerialization:
    def test_round_trip(self):
        records = [
            DnsLogRecord(ts=10.5, client_ip=0x64400001, qname="zoom.us",
                         answers=(0x32000001, 0x32000002), ttl=300.0),
            DnsLogRecord(ts=11.5, client_ip=0x64400002,
                         qname="tiktok.com", answers=(0x32000003,),
                         ttl=60.0),
        ]
        text = "".join(record.to_json() + "\n" for record in records)
        assert _read(text) == records

    def test_blank_lines_skipped(self):
        record = DnsLogRecord(1.0, 1, "a.example.com", (2,), 60.0)
        assert _read("\n" + record.to_json() + "\n   \n") == [record]


class TestNumericValidation:
    @pytest.mark.parametrize("field,raw", [
        *((field, raw) for field in ("ts", "ttl") for raw in NON_FINITE),
        ("ttl", "-1.0"),  # a TTL must also not be negative
    ])
    def test_non_finite_refused(self, field, raw):
        good = DnsLogRecord(1.0, 1, "a.example.com", (2,), 60.0).to_json()
        assert_refused_once(DnsLogRecord.from_json, good,
                            with_raw_value(good, field, raw), "dns")
