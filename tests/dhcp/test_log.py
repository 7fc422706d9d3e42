"""Serialization tests for DHCP log records."""

import io

from repro.dhcp.lease import Lease
from repro.dhcp.log import DhcpLogRecord, read_dhcp_log, write_dhcp_log
from repro.net.mac import MacAddress
from tests.reliability.nonfinite import (
    NON_FINITE,
    assert_refused_once,
    with_raw_value,
)

import pytest


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
        buffer = io.StringIO()
        assert write_dhcp_log(records, buffer) == 2
        buffer.seek(0)
        parsed = list(read_dhcp_log(buffer))
        assert parsed == records

    def test_blank_lines_skipped(self):
        buffer = io.StringIO(
            "\n" + DhcpLogRecord(1.0, MacAddress(5), 9, 2.0).to_json() + "\n\n")
        assert len(list(read_dhcp_log(buffer))) == 1


class TestParseModes:
    def test_strict_raises_structured_record_error(self):
        from repro.reliability.errors import CATEGORY_FIELD, RecordError

        buffer = io.StringIO('{"ts": 1.0}\n')
        with pytest.raises(RecordError) as excinfo:
            list(read_dhcp_log(buffer))
        assert excinfo.value.source == "dhcp"
        assert excinfo.value.category == CATEGORY_FIELD

    def test_lenient_quarantines_and_continues(self):
        from repro.reliability.quarantine import QuarantineSink

        good = DhcpLogRecord(1.0, MacAddress(5), 9, 2.0)
        buffer = io.StringIO("garbage\n" + good.to_json() + "\n   \n")
        sink = QuarantineSink()
        parsed = list(read_dhcp_log(buffer, mode="lenient", sink=sink))
        assert parsed == [good]
        assert sink.malformed("dhcp") == 1
        assert sink.blank("dhcp") == 1


class TestNumericValidation:
    @pytest.mark.parametrize("field", ["ts", "lease_end"])
    @pytest.mark.parametrize("raw", NON_FINITE)
    def test_non_finite_refused(self, field, raw):
        good = DhcpLogRecord(ts=1.0, mac=MacAddress(1), ip=10,
                             lease_end=100.0).to_json()
        assert_refused_once(read_dhcp_log, good,
                            with_raw_value(good, field, raw), "dhcp")
