"""Serialization tests for DHCP log records.

A DHCP log file is read the way replay reads it: each line through
``DhcpLogRecord.from_json`` under ``read_jsonl_records``.
"""

import io

from repro.dhcp.lease import Lease
from repro.dhcp.log import DhcpLogRecord
from repro.net.mac import MacAddress
from repro.reliability.parsing import read_jsonl_records
from tests.reliability.nonfinite import (
    NON_FINITE,
    assert_refused_once,
    with_raw_value,
)

import pytest


def _read(text, **kwargs):
    return list(read_jsonl_records(io.StringIO(text),
                                   DhcpLogRecord.from_json, source="dhcp",
                                   **kwargs))


class TestLease:
    def test_active_window(self):
        lease = Lease(MacAddress(1), 10, 0.0, 100.0)
        assert lease.active_at(0.0)
        assert lease.active_at(99.9)
        assert not lease.active_at(100.0)

    def test_positive_duration_required(self):
        with pytest.raises(ValueError):
            Lease(MacAddress(1), 10, 100.0, 100.0)

    def test_renewed(self):
        lease = Lease(MacAddress(1), 10, 0.0, 100.0)
        renewed = lease.renewed(50.0, 200.0)
        assert renewed.end == 250.0
        assert renewed.ip == lease.ip

    def test_renew_expired_rejected(self):
        lease = Lease(MacAddress(1), 10, 0.0, 100.0)
        with pytest.raises(ValueError):
            lease.renewed(150.0, 200.0)


class TestLogSerialization:
    def test_round_trip(self):
        records = [
            DhcpLogRecord(ts=1.5, mac=MacAddress(0x9C1A00123456),
                          ip=0x0A000001, lease_end=3601.5),
            DhcpLogRecord(ts=2.5, mac=MacAddress(0x020000000001),
                          ip=0x0A000002, lease_end=3602.5),
        ]
        text = "".join(record.to_json() + "\n" for record in records)
        assert _read(text) == records

    def test_blank_lines_skipped(self):
        text = "\n" + DhcpLogRecord(1.0, MacAddress(5), 9, 2.0).to_json()
        assert len(_read(text + "\n\n")) == 1


class TestParseModes:
    def test_strict_raises_structured_record_error(self):
        from repro.reliability.errors import CATEGORY_FIELD, RecordError

        with pytest.raises(RecordError) as excinfo:
            _read('{"ts": 1.0}\n')
        assert excinfo.value.source == "dhcp"
        assert excinfo.value.category == CATEGORY_FIELD

    def test_lenient_quarantines_and_continues(self):
        from repro.reliability.quarantine import QuarantineSink

        good = DhcpLogRecord(1.0, MacAddress(5), 9, 2.0)
        sink = QuarantineSink()
        parsed = _read("garbage\n" + good.to_json() + "\n   \n",
                       mode="lenient", sink=sink)
        assert parsed == [good]
        assert sink.malformed("dhcp") == 1
        assert sink.blank("dhcp") == 1


class TestNumericValidation:
    @pytest.mark.parametrize("field", ["ts", "lease_end"])
    @pytest.mark.parametrize("raw", NON_FINITE)
    def test_non_finite_refused(self, field, raw):
        good = DhcpLogRecord(ts=1.0, mac=MacAddress(1), ip=10,
                             lease_end=100.0).to_json()
        assert_refused_once(DhcpLogRecord.from_json, good,
                            with_raw_value(good, field, raw), "dhcp")
