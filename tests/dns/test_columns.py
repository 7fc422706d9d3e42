"""Tests for the column form of the DNS log."""

import gzip
import hashlib
import os

import numpy as np
import pytest

from repro.config import StudyConfig
from repro.dns.records import DnsColumns, DnsLogRecord
from repro.io.tracedir import DNS_FILE, export_traces
from repro.reliability.faults import FaultPlan, LogGap
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import DAY, utc_ts

_DAY = utc_ts(2020, 2, 5)


@pytest.fixture(scope="module")
def trace():
    return CampusTraceGenerator(StudyConfig(n_students=8, seed=5)
                                ).generate_day(_DAY)


def _records():
    return [
        DnsLogRecord(10.5, 0x64400001, "zoom.us", (0x32000001, 0x32000002),
                     300.0),
        DnsLogRecord(11.0, 0x64400002, "a.example.com", (), 60.0),
        DnsLogRecord(11.5, 0x64400002, "tiktok.com", (0x32000003,), 60.0),
        DnsLogRecord(12.0, 0x64400001, "zoom.us", (0x32000002, 0x32000004,
                                                   0x32000001), 300.0),
    ]


class TestRoundTrip:
    def test_rows_round_trip(self):
        records = _records()
        assert list(DnsColumns.from_rows(records).rows()) == records

    def test_generated_day_round_trips_repr_identically(self, trace):
        rows = list(trace.dns_records.rows())
        assert len(rows) == 872
        again = DnsColumns.from_rows(rows)
        assert [repr(r) for r in again.rows()] == [repr(r) for r in rows]
        for name in DnsColumns.__slots__:
            column = getattr(trace.dns_records, name)
            assert getattr(again, name).dtype == column.dtype
            assert getattr(again, name).tolist() == column.tolist()

    def test_empty(self):
        columns = DnsColumns.from_rows([])
        assert len(columns) == 0
        assert list(columns.rows()) == []

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            DnsColumns(ts=[1.0], client_ip=[1], qname=["a"],
                       answer_count=[2], answers=[5], ttl=[60.0])


class TestTake:
    @pytest.mark.parametrize("index", [
        [3, 0], [1], [], [0, 1, 2, 3], [2, 2]])
    def test_positions(self, index):
        records = _records()
        taken = DnsColumns.from_rows(records).take(np.array(index, dtype=int))
        assert list(taken.rows()) == [records[i] for i in index]

    def test_mask(self):
        records = _records()
        mask = np.array([True, False, True, True])
        taken = DnsColumns.from_rows(records).take(mask)
        assert list(taken.rows()) == [records[0], records[2], records[3]]


class TestDropLogSpan:
    def test_keeps_exactly_the_records_outside_the_gaps(self, trace):
        gaps = (LogGap("dns", _DAY + 3 * 3600.0, _DAY + 5 * 3600.0),
                LogGap("dns", _DAY + 12 * 3600.0, _DAY + 12.5 * 3600.0),
                LogGap("dhcp", _DAY + 4 * 3600.0, _DAY + 20 * 3600.0))
        gapped = FaultPlan(log_gaps=gaps).drop_log_span(trace)
        dns_gaps = [gap for gap in gaps if gap.source == "dns"]
        expected = [record for record in trace.dns_records.rows()
                    if not any(gap.contains(record.ts) for gap in dns_gaps)]
        assert 0 < len(expected) < len(trace.dns_records)
        assert list(gapped.dns_records.rows()) == expected
        assert gapped.log_gaps == gaps

    def test_clean_day_is_the_same_object(self, trace):
        gap = LogGap("dns", _DAY + DAY, _DAY + DAY + 60.0)
        assert FaultPlan(log_gaps=(gap,)).drop_log_span(trace) is trace


class TestExport:
    #: sha256 of the decompressed ``dns.jsonl.gz`` of the day above, as
    #: written when the generator still built one record object per
    #: query: the column form must export the same bytes.
    DNS_SHA256 = (
        "7ebcbb4de9428ba54724e6da49e3bbe7c2503d44c94abd6f18ebcec5c7197ff2")

    def test_dns_file_bytes_pinned(self, trace, tmp_path):
        export_traces([trace], str(tmp_path))
        with gzip.open(os.path.join(tmp_path, "2020-02-05", DNS_FILE),
                       "rb") as fileobj:
            data = fileobj.read()
        assert data.count(b"\n") == 872
        assert hashlib.sha256(data).hexdigest() == self.DNS_SHA256
