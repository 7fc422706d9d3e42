"""Tests for the flow-assembly engine."""

import pytest

from repro.net.wire import SegmentBurst
from tests.oracles.flow_engine import FlowEngine


def _burst(ts, orig=100, resp=200, final=False, ua=None, port=55000,
           server=0x32000001, proto="tcp"):
    return SegmentBurst(
        ts=ts, client_ip=0x64400001, client_port=port,
        server_ip=server, server_port=443, proto=proto,
        orig_bytes=orig, resp_bytes=resp, user_agent=ua, is_final=final)


class TestAssembly:
    def test_single_connection(self):
        engine = FlowEngine(idle_timeout=60)
        flows = engine.process([
            _burst(0.0, orig=100, resp=200),
            _burst(10.0, orig=50, resp=75),
            _burst(30.0, orig=25, resp=25, final=True),
        ])
        assert len(flows) == 1
        flow = flows[0]
        assert flow.ts == 0.0
        assert flow.duration == 30.0
        assert flow.orig_bytes == 175
        assert flow.resp_bytes == 300

    def test_interleaved_connections(self):
        engine = FlowEngine(idle_timeout=60)
        flows = engine.process([
            _burst(0.0, port=1111),
            _burst(1.0, port=2222),
            _burst(2.0, port=1111, final=True),
            _burst(3.0, port=2222, final=True),
        ])
        assert len(flows) == 2
        assert {flow.orig_p for flow in flows} == {1111, 2222}

    def test_idle_timeout_splits(self):
        engine = FlowEngine(idle_timeout=60)
        flows = engine.process([
            _burst(0.0),
            _burst(30.0),
            _burst(300.0),  # > idle timeout after last activity
        ])
        assert len(flows) == 1  # first connection closed by the gap
        assert flows[0].duration == 30.0
        assert engine.open_flow_count == 1

    def test_user_agent_captured_once(self):
        engine = FlowEngine(idle_timeout=60)
        flows = engine.process([
            _burst(0.0, ua="Mozilla/5.0 (iPhone)"),
            _burst(5.0, final=True),
        ])
        assert flows[0].user_agent == "Mozilla/5.0 (iPhone)"

    def test_user_agent_from_later_burst(self):
        engine = FlowEngine(idle_timeout=60)
        flows = engine.process([
            _burst(0.0),
            _burst(5.0, ua="agent"),
            _burst(6.0, final=True),
        ])
        assert flows[0].user_agent == "agent"

    def test_udp_and_tcp_distinct_flows(self):
        engine = FlowEngine(idle_timeout=60)
        flows = engine.process([
            _burst(0.0, proto="tcp", final=True),
            _burst(0.5, proto="udp", final=True),
        ])
        assert len(flows) == 2
        assert {flow.proto for flow in flows} == {"tcp", "udp"}

    def test_out_of_order_rejected(self):
        engine = FlowEngine(idle_timeout=60)
        with pytest.raises(ValueError):
            engine.process([_burst(100.0), _burst(50.0)])

    def test_small_jitter_tolerated(self):
        engine = FlowEngine(idle_timeout=60)
        engine.process([_burst(100.0), _burst(99.5)])  # within 1s slack

    def test_uids_unique_and_increasing(self):
        engine = FlowEngine(idle_timeout=60)
        flows = engine.process([
            _burst(0.0, port=1, final=True),
            _burst(1.0, port=2, final=True),
            _burst(2.0, port=3, final=True),
        ])
        uids = [flow.uid for flow in flows]
        assert uids == sorted(uids)
        assert len(set(uids)) == 3


class TestFlush:
    def test_flush_all(self):
        engine = FlowEngine(idle_timeout=60)
        engine.process([_burst(0.0, port=1), _burst(1.0, port=2)])
        flows = engine.flush(None)
        assert len(flows) == 2
        assert engine.open_flow_count == 0

    def test_flush_only_idle(self):
        engine = FlowEngine(idle_timeout=60)
        engine.process([_burst(0.0, port=1), _burst(100.0, port=2)])
        flows = engine.flush(130.0)
        assert len(flows) == 1
        assert flows[0].orig_p == 1
        assert engine.open_flow_count == 1

    def test_flush_sorted_by_start(self):
        engine = FlowEngine(idle_timeout=60)
        engine.process([_burst(5.0, port=2), _burst(7.0, port=1)])
        flows = engine.flush(None)
        assert [flow.ts for flow in flows] == [5.0, 7.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowEngine(idle_timeout=0)


class TestConservation:
    def test_bytes_conserved(self):
        """Total bytes in equals total bytes out across close paths."""
        engine = FlowEngine(idle_timeout=30)
        bursts = []
        total = 0
        for index in range(50):
            orig, resp = index * 3 + 1, index * 5 + 2
            total += orig + resp
            bursts.append(_burst(float(index * 20), orig=orig, resp=resp,
                                 port=40000 + index % 7,
                                 final=(index % 11 == 0)))
        flows = engine.process(bursts) + engine.flush(None)
        assert sum(flow.total_bytes for flow in flows) == total
