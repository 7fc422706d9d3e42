"""Tests for BurstBatch.from_bursts, the per-day columnar ingest entry."""

import numpy as np

from repro.columnar.batch import BurstBatch
from repro.net.wire import BurstColumns, SegmentBurst


def _columns():
    def burst(ts, proto="tcp", ua=None, host=None, final=False):
        return SegmentBurst(ts=ts, client_ip=10, client_port=20,
                            server_ip=30, server_port=443, proto=proto,
                            orig_bytes=int(ts), resp_bytes=2,
                            user_agent=ua, http_host=host, is_final=final)
    return BurstColumns.from_rows([
        burst(1.0, proto="udp", ua="b-agent", host="x.com"),
        burst(2.0, ua="a-agent"),
        burst(3.0, host="x.com"),
        burst(4.0, proto="udp", ua="b-agent", final=True),
    ])


class TestFromBursts:
    def test_numeric_columns_shared(self):
        columns = _columns()
        batch = BurstBatch.from_bursts(columns)
        assert batch.n == 4
        for name in ("ts", "client_ip", "client_port", "server_ip",
                     "server_port", "orig_bytes", "resp_bytes", "is_final"):
            assert getattr(batch, name) is getattr(columns, name)

    def test_strings_dictionary_encoded(self):
        batch = BurstBatch.from_bursts(_columns())
        # Protocols in first-appearance order; nullable columns sorted,
        # with -1 for None.
        assert batch.proto_table == ["udp", "tcp"]
        assert batch.proto_id.tolist() == [0, 1, 1, 0]
        assert batch.ua_table == ["a-agent", "b-agent"]
        assert batch.ua_id.tolist() == [1, 0, -1, 1]
        assert batch.host_table == ["x.com"]
        assert batch.host_id.tolist() == [0, -1, 0, -1]

    def test_empty(self):
        batch = BurstBatch.from_bursts(BurstColumns.from_rows([]))
        assert batch.n == 0
        assert batch.proto_table == [] and batch.ua_table == []
        assert batch.proto_id.dtype == np.int64
