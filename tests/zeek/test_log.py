"""Serialization tests for connection logs."""

import io

import pytest

from repro.zeek.conn import ConnRecord
from repro.zeek.log import conn_to_json, read_conn_log, write_conn_log
from tests.reliability.nonfinite import (
    NON_FINITE,
    assert_refused_once,
    with_raw_value,
)


def _conn(uid=1, ua=None):
    return ConnRecord(
        uid=uid, ts=100.5, duration=12.25, orig_h=0x64400001,
        orig_p=51515, resp_h=0x32000001, resp_p=443, proto="tcp",
        orig_bytes=1111, resp_bytes=2222, user_agent=ua)


class TestConnRecord:
    def test_derived_fields(self):
        conn = _conn()
        assert conn.end == 112.75
        assert conn.total_bytes == 3333


class TestSerialization:
    def test_round_trip(self):
        records = [_conn(1), _conn(2, ua="Mozilla/5.0 (iPad)")]
        buffer = io.StringIO()
        assert write_conn_log(records, buffer) == 2
        buffer.seek(0)
        assert list(read_conn_log(buffer)) == records

    def test_user_agent_omitted_when_none(self):
        buffer = io.StringIO()
        write_conn_log([_conn()], buffer)
        assert "user_agent" not in buffer.getvalue()

    def test_blank_lines_skipped(self):
        buffer = io.StringIO()
        write_conn_log([_conn()], buffer)
        buffer.write("\n\n")
        buffer.seek(0)
        assert len(list(read_conn_log(buffer))) == 1


class TestParseModes:
    def test_strict_raises_structured_record_error(self):
        import pytest

        from repro.reliability.errors import RecordError

        buffer = io.StringIO('{"uid": 1}\n')
        with pytest.raises(RecordError) as excinfo:
            list(read_conn_log(buffer))
        assert excinfo.value.source == "conn"
        assert isinstance(excinfo.value, ValueError)  # back-compat

    def test_lenient_quarantines_and_continues(self):
        from repro.reliability.quarantine import QuarantineSink

        buffer = io.StringIO()
        write_conn_log([_conn(1)], buffer)
        buffer.write("not json\n")
        write_conn_log([_conn(2)], buffer)
        buffer.write("\n")
        buffer.seek(0)
        sink = QuarantineSink()
        parsed = list(read_conn_log(buffer, mode="lenient", sink=sink))
        assert [record.uid for record in parsed] == [1, 2]
        assert sink.malformed("conn") == 1
        assert sink.blank("conn") == 1

    def test_unknown_mode_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            list(read_conn_log(io.StringIO(""), mode="relaxed"))


class TestNumericValidation:
    @pytest.mark.parametrize("field", ["ts", "duration"])
    @pytest.mark.parametrize("raw", NON_FINITE)
    def test_non_finite_refused(self, field, raw):
        good = conn_to_json(_conn())
        assert_refused_once(read_conn_log, good,
                            with_raw_value(good, field, raw), "conn")
