"""Log-file round-trip: serialize generated logs, re-ingest from disk.

The paper's pipeline consumes *files*: the DHCP and DNS logs it joins
flows against. This test proves the serialization layer is lossless
end to end: generating a day, writing both log streams to disk,
reading them back, and measuring through the pipeline yields a
bit-identical dataset.
"""

import dataclasses
import io

import numpy as np
import pytest

from repro import StudyConfig
from repro.dhcp.log import read_dhcp_log, write_dhcp_log
from repro.dns.records import DnsColumns, read_dns_log, write_dns_log
from repro.pipeline.pipeline import MonitoringPipeline
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import utc_ts

_CONFIG = StudyConfig(n_students=5, seed=77)


@pytest.fixture(scope="module")
def day_trace():
    generator = CampusTraceGenerator(_CONFIG)
    trace = generator.generate_day(utc_ts(2020, 2, 4))
    excluded = generator.plan.excluded_blocks(_CONFIG.excluded_operators)
    return trace, excluded


class TestRoundTrip:
    def test_dhcp_log_file_round_trip(self, day_trace, tmp_path):
        trace, _ = day_trace
        path = tmp_path / "dhcp.jsonl"
        with open(path, "w") as fileobj:
            write_dhcp_log(trace.dhcp_records, fileobj)
        with open(path) as fileobj:
            parsed = list(read_dhcp_log(fileobj))
        assert parsed == trace.dhcp_records

    def test_dns_log_file_round_trip(self, day_trace, tmp_path):
        trace, _ = day_trace
        path = tmp_path / "dns.jsonl"
        with open(path, "w") as fileobj:
            write_dns_log(trace.dns_records.rows(), fileobj)
        with open(path) as fileobj:
            parsed = list(read_dns_log(fileobj))
        assert parsed == list(trace.dns_records.rows())

    def test_pipeline_identical_after_round_trip(self, day_trace,
                                                 tmp_path):
        trace, excluded = day_trace

        dhcp_buffer = io.StringIO()
        dns_buffer = io.StringIO()
        write_dhcp_log(trace.dhcp_records, dhcp_buffer)
        write_dns_log(trace.dns_records.rows(), dns_buffer)
        dhcp_buffer.seek(0)
        dns_buffer.seek(0)
        replayed = dataclasses.replace(
            trace,
            dhcp_records=list(read_dhcp_log(dhcp_buffer)),
            dns_records=DnsColumns.from_rows(read_dns_log(dns_buffer)),
        )

        def measure(source):
            pipeline = MonitoringPipeline(_CONFIG, excluded)
            pipeline.ingest_day(source)
            return pipeline.finalize()

        original = measure(trace)
        round_tripped = measure(replayed)
        assert len(original) == len(round_tripped)
        assert np.array_equal(original.ts, round_tripped.ts)
        assert np.array_equal(original.total_bytes,
                              round_tripped.total_bytes)
        assert np.array_equal(original.domain, round_tripped.domain)
        assert ([p.token for p in original.devices]
                == [p.token for p in round_tripped.devices])
