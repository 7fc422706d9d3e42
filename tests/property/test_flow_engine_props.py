"""Property-based tests for the flow engine."""

from hypothesis import given, settings, strategies as st

from repro.net.wire import SegmentBurst
from tests.oracles.flow_engine import FlowEngine

_burst_spec = st.tuples(
    st.floats(min_value=0, max_value=10_000),   # time offset
    st.integers(min_value=0, max_value=3),      # client port slot
    st.integers(min_value=0, max_value=2),      # server slot
    st.integers(min_value=1, max_value=10_000), # orig bytes
    st.integers(min_value=1, max_value=10_000), # resp bytes
    st.booleans(),                              # is_final
)


def _make_bursts(specs):
    specs = sorted(specs, key=lambda spec: spec[0])
    return [
        SegmentBurst(
            ts=offset,
            client_ip=0x64400001,
            client_port=40_000 + port_slot,
            server_ip=0x32000001 + server_slot,
            server_port=443,
            proto="tcp",
            orig_bytes=orig,
            resp_bytes=resp,
            is_final=final,
        )
        for offset, port_slot, server_slot, orig, resp, final in specs
    ]


class TestFlowEngineProperties:
    @given(st.lists(_burst_spec, max_size=60),
           st.floats(min_value=1, max_value=5000))
    @settings(max_examples=200)
    def test_bytes_conserved(self, specs, idle_timeout):
        bursts = _make_bursts(specs)
        engine = FlowEngine(idle_timeout=idle_timeout)
        flows = engine.process(bursts) + engine.flush(None)
        assert sum(f.orig_bytes for f in flows) == sum(
            b.orig_bytes for b in bursts)
        assert sum(f.resp_bytes for f in flows) == sum(
            b.resp_bytes for b in bursts)

    @given(st.lists(_burst_spec, max_size=60))
    @settings(max_examples=100)
    def test_flow_spans_within_observation_window(self, specs):
        bursts = _make_bursts(specs)
        engine = FlowEngine(idle_timeout=120)
        flows = engine.process(bursts) + engine.flush(None)
        if not bursts:
            assert flows == []
            return
        lo = min(b.ts for b in bursts)
        hi = max(b.ts for b in bursts)
        for flow in flows:
            assert lo <= flow.ts <= hi
            assert flow.ts + flow.duration <= hi

    @given(st.lists(_burst_spec, max_size=60))
    @settings(max_examples=100)
    def test_same_five_tuple_flows_disjoint(self, specs):
        """Two flows on one five-tuple never overlap in time."""
        bursts = _make_bursts(specs)
        engine = FlowEngine(idle_timeout=60)
        flows = engine.process(bursts) + engine.flush(None)
        by_tuple = {}
        for flow in flows:
            key = (flow.orig_h, flow.orig_p, flow.resp_h, flow.resp_p,
                   flow.proto)
            by_tuple.setdefault(key, []).append(flow)
        for group in by_tuple.values():
            group.sort(key=lambda f: f.ts)
            for left, right in zip(group, group[1:]):
                assert left.ts + left.duration <= right.ts

    @given(st.lists(_burst_spec, max_size=60))
    @settings(max_examples=100)
    def test_every_burst_lands_in_some_flow(self, specs):
        bursts = _make_bursts(specs)
        engine = FlowEngine(idle_timeout=60)
        flows = engine.process(bursts) + engine.flush(None)
        assert len(flows) <= len(bursts)
        assert engine.open_flow_count == 0
        if bursts:
            assert flows
