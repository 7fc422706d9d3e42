"""Tests for wire-level record types."""

import numpy as np
import pytest

from repro.net.wire import BurstColumns, SegmentBurst


class TestSegmentBurst:
    def test_five_tuple(self):
        burst = SegmentBurst(
            ts=1.0, client_ip=10, client_port=20, server_ip=30,
            server_port=443, proto="tcp", orig_bytes=1, resp_bytes=2)
        assert burst.five_tuple == (10, 20, 30, 443, "tcp")

    def test_defaults(self):
        burst = SegmentBurst(
            ts=1.0, client_ip=10, client_port=20, server_ip=30,
            server_port=443, proto="udp", orig_bytes=1, resp_bytes=2)
        assert burst.user_agent is None
        assert burst.http_host is None
        assert not burst.is_final


def _rows():
    return [
        SegmentBurst(ts=5.0, client_ip=10, client_port=20, server_ip=30,
                     server_port=443, proto="tcp", orig_bytes=1,
                     resp_bytes=2, user_agent="ua", http_host="a.com"),
        SegmentBurst(ts=1.0, client_ip=11, client_port=21, server_ip=31,
                     server_port=53, proto="udp", orig_bytes=3,
                     resp_bytes=4, is_final=True),
        SegmentBurst(ts=3.0, client_ip=12, client_port=22, server_ip=32,
                     server_port=80, proto="tcp", orig_bytes=5,
                     resp_bytes=6, http_host="b.com"),
    ]


class TestBurstColumns:
    def test_round_trip_keeps_order(self):
        rows = _rows()
        columns = BurstColumns.from_rows(rows)
        assert len(columns) == 3
        assert list(columns.rows()) == rows
        # Never sorted: a disordered log stays disordered.
        assert columns.ts.tolist() == [5.0, 1.0, 3.0]

    def test_column_types(self):
        columns = BurstColumns.from_rows(_rows())
        assert columns.ts.dtype == np.float64
        for name in ("client_ip", "client_port", "server_ip",
                     "server_port", "orig_bytes", "resp_bytes"):
            assert getattr(columns, name).dtype == np.int64
        assert columns.is_final.dtype == np.bool_
        assert columns.user_agent.tolist() == ["ua", None, None]
        assert columns.http_host.tolist() == ["a.com", None, "b.com"]
        assert columns.proto.tolist() == ["tcp", "udp", "tcp"]

    def test_rows_are_python_scalars(self):
        burst = next(BurstColumns.from_rows(_rows()).rows())
        assert type(burst.ts) is float
        assert type(burst.client_ip) is int
        assert type(burst.is_final) is bool

    def test_take(self):
        columns = BurstColumns.from_rows(_rows())
        taken = columns.take(np.array([1, 2, 0]))
        assert list(taken.rows()) == [_rows()[1], _rows()[2], _rows()[0]]

    def test_empty(self):
        columns = BurstColumns.from_rows([])
        assert len(columns) == 0
        assert list(columns.rows()) == []

    def test_ragged_columns_rejected(self):
        columns = BurstColumns.from_rows(_rows())
        fields = {name: getattr(columns, name)
                  for name in BurstColumns.__slots__}
        fields["http_host"] = fields["http_host"][:2]
        with pytest.raises(ValueError):
            BurstColumns(**fields)
