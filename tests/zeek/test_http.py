"""Tests for HTTP metadata extraction (the http.log path)."""

from repro.net.wire import BurstColumns, SegmentBurst
from tests.oracles.flow_engine import FlowEngine


def _burst(ts, ua=None, host=None, port=55000, final=False):
    return SegmentBurst(
        ts=ts, client_ip=0x64400001, client_port=port,
        server_ip=0x32000001, server_port=80, proto="tcp",
        orig_bytes=100, resp_bytes=200, user_agent=ua, http_host=host,
        is_final=final)


class TestEngineHttpEmission:
    def test_plaintext_burst_emits_record(self):
        engine = FlowEngine(idle_timeout=60)
        engine.process([
            _burst(0.0, ua="Mozilla/5.0 (iPad)", host="weather.com"),
            _burst(5.0, final=True),
        ])
        records = engine.drain_http()
        assert len(records) == 1
        assert records[0].host == "weather.com"
        assert records[0].user_agent == "Mozilla/5.0 (iPad)"

    def test_tls_bursts_emit_nothing(self):
        engine = FlowEngine(idle_timeout=60)
        engine.process([_burst(0.0), _burst(1.0, final=True)])
        assert engine.drain_http() == []

    def test_drain_clears(self):
        engine = FlowEngine(idle_timeout=60)
        engine.process([_burst(0.0, host="a.com", final=True)])
        assert len(engine.drain_http()) == 1
        assert engine.drain_http() == []

    def test_host_lifted_into_conn_record(self):
        engine = FlowEngine(idle_timeout=60)
        flows = engine.process([
            _burst(0.0, host="weather.com"),
            _burst(5.0, final=True),
        ])
        assert flows[0].http_host == "weather.com"

    def test_host_from_later_burst(self):
        engine = FlowEngine(idle_timeout=60)
        flows = engine.process([
            _burst(0.0),
            _burst(2.0, host="weather.com"),
            _burst(5.0, final=True),
        ])
        assert flows[0].http_host == "weather.com"


class TestPipelineHostFallback:
    def test_host_annotates_when_dns_missing(self):
        """A plaintext flow with no DNS history still gets a domain."""
        from repro import StudyConfig
        from repro.dhcp.log import DhcpLogRecord
        from repro.net.mac import MacAddress
        from repro.pipeline.pipeline import MonitoringPipeline
        from tests.pipeline.test_pipeline import FakeTrace

        config = StudyConfig(n_students=1, seed=0)
        start = config.start_ts
        pipeline = MonitoringPipeline(config)
        trace = FakeTrace(
            day_start=start,
            dhcp_records=[DhcpLogRecord(
                start, MacAddress.parse("9c:1a:00:00:00:01"),
                0x64400001, start + 86400.0)],
            bursts=BurstColumns.from_rows(
                [_burst(start + 10, host="weather.com", final=True)]),
        )
        pipeline.ingest_day(trace)
        dataset = pipeline.finalize()
        assert dataset.domains[dataset.domain[0]] == "weather.com"
        assert pipeline.stats.flows_host_annotated == 1
        assert pipeline.stats.http_records == 1
