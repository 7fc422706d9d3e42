"""Tests for trace-directory export and replay."""

import gzip
import json
import os

import numpy as np
import pytest

from repro import StudyConfig
from repro.io.tracedir import (
    DHCP_FILE,
    DNS_FILE,
    FORMAT_VERSION,
    MANIFEST_NAME,
    WIRE_FILE,
    burst_from_json,
    burst_to_json,
    export_traces,
    ingest_trace_dir,
    iter_trace_days,
    read_manifest,
)
from repro.net.wire import SegmentBurst
from repro.pipeline.pipeline import MonitoringPipeline
from repro.reliability.errors import CATEGORY_VALUE, RecordError
from repro.reliability.faults import corrupt_log_lines
from repro.reliability.quarantine import QuarantineSink
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import utc_ts
from tests.reliability.nonfinite import (
    NON_FINITE,
    assert_refused_once,
    with_raw_value,
)

_CONFIG = StudyConfig(n_students=5, seed=31)


@pytest.fixture(scope="module")
def generated():
    generator = CampusTraceGenerator(_CONFIG)
    traces = list(generator.iter_days(utc_ts(2020, 2, 3),
                                      utc_ts(2020, 2, 6)))
    excluded = generator.plan.excluded_blocks(_CONFIG.excluded_operators)
    return traces, excluded


class TestBurstSerialization:
    def test_round_trip(self):
        burst = SegmentBurst(
            ts=12.5, client_ip=0x64400001, client_port=40123,
            server_ip=0x32000001, server_port=443, proto="udp",
            orig_bytes=111, resp_bytes=222,
            user_agent="Mozilla/5.0 (iPad)", is_final=True)
        assert burst_from_json(burst_to_json(burst)) == burst

    def test_optional_fields_omitted(self):
        burst = SegmentBurst(
            ts=1.0, client_ip=1, client_port=2, server_ip=3,
            server_port=4, proto="tcp", orig_bytes=5, resp_bytes=6)
        line = burst_to_json(burst)
        assert "ua" not in json.loads(line)
        assert burst_from_json(line) == burst


_GOOD_WIRE = {"ts": 1.0, "ch": "100.64.0.1", "cp": 40000,
              "sh": "50.0.0.1", "sp": 443, "pr": "tcp", "ob": 5, "rb": 6}

#: Optional wire fields with a value of the wrong type or range.
_MALFORMED_OPTIONALS = [
    ("ua", 5), ("ua", ["Mozilla"]), ("ua", {"name": "x"}),
    ("hh", ["x"]), ("hh", 7.5), ("hh", True),
    ("fin", "no"), ("fin", "1"), ("fin", 2), ("fin", -1), ("fin", 0.5),
    ("fin", None), ("fin", [1]),
]


class TestBurstParserValidation:
    @pytest.mark.parametrize("key,value", _MALFORMED_OPTIONALS)
    def test_malformed_optional_field_rejected(self, key, value):
        line = json.dumps({**_GOOD_WIRE, key: value})
        with pytest.raises(RecordError) as info:
            burst_from_json(line, line_no=3)
        assert info.value.source == "wire"
        assert info.value.category == CATEGORY_VALUE
        assert info.value.line_no == 3
        assert info.value.line == line

    @pytest.mark.parametrize("value,expected", [
        (0, False), (1, True), (False, False), (True, True)])
    def test_final_flag_accepts_only_0_1_false_true(self, value, expected):
        line = json.dumps({**_GOOD_WIRE, "fin": value})
        assert burst_from_json(line).is_final is expected

    def test_null_headers_read_as_absent(self):
        line = json.dumps({**_GOOD_WIRE, "ua": None, "hh": None})
        burst = burst_from_json(line)
        assert burst.user_agent is None and burst.http_host is None
        assert burst.is_final is False

    @pytest.mark.parametrize("raw", NON_FINITE)
    def test_non_finite_ts_refused(self, raw):
        good = json.dumps(_GOOD_WIRE)
        assert_refused_once(burst_from_json, good,
                            with_raw_value(good, "ts", raw), "wire")


#: Each replay stream's file in a day directory.
_STREAM_FILES = {"dhcp": DHCP_FILE, "dns": DNS_FILE, "wire": WIRE_FILE}


class TestMalformedWireReplay:
    """Malformed lines in any of a day's three trace files fail strict
    replay, and lenient replay quarantines and counts each exactly once
    per stream."""

    @staticmethod
    def _mangle(generated, root, sources=tuple(_STREAM_FILES)):
        """Export one day, then corrupt the files of ``sources`` in place.

        Wire lines get the malformed optional fields; DHCP and DNS lines
        get the fault injector's truncations, garbage, dropped fields
        and non-objects. Returns source -> (line count, 1-based numbers
        of the corrupted lines).
        """
        traces, _ = generated
        export_traces(traces[:1], root)
        day_dir = os.path.join(root, read_manifest(root)["days"][0])
        mangled = {}
        for source in sources:
            path = os.path.join(day_dir, _STREAM_FILES[source])
            with gzip.open(path, "rt") as fileobj:
                lines = fileobj.read().splitlines()
            if source == "wire":
                touched = [10 * offset + 5
                           for offset in range(len(_MALFORMED_OPTIONALS))]
                for index, (key, value) in zip(touched,
                                               _MALFORMED_OPTIONALS):
                    lines[index] = json.dumps({**json.loads(lines[index]),
                                               key: value})
            else:
                lines, touched = corrupt_log_lines(lines, 0.1, seed=5)
            assert touched
            with gzip.open(path, "wt") as fileobj:
                fileobj.write("\n".join(lines) + "\n")
            mangled[source] = (len(lines),
                               sorted(index + 1 for index in touched))
        return mangled

    def test_strict_replay_raises(self, generated, tmp_path):
        for source in _STREAM_FILES:
            root = str(tmp_path / source)
            _, touched = self._mangle(generated, root, (source,))[source]
            pipeline = MonitoringPipeline(_CONFIG, generated[1])
            with pytest.raises(RecordError) as info:
                ingest_trace_dir(pipeline, root)
            assert info.value.source == source
            assert info.value.line_no == touched[0]
            if source == "wire":
                assert info.value.category == CATEGORY_VALUE

    def test_lenient_replay_quarantines_each_once(self, generated,
                                                  tmp_path):
        root = str(tmp_path / "traces")
        mangled = self._mangle(generated, root)
        sink = QuarantineSink(max_samples=1000)
        pipeline = MonitoringPipeline(_CONFIG, generated[1])
        assert ingest_trace_dir(pipeline, root, mode="lenient",
                                sink=sink) == 1
        assert sink.malformed() == sum(
            len(touched) for _, touched in mangled.values())
        assert sink.blank() == 0
        for source, (_, touched) in mangled.items():
            assert sink.malformed(source) == len(touched)
            assert sorted(record.line_no
                          for record in sink.samples(source)) == touched
            assert getattr(pipeline.stats,
                           f"quarantined_{source}") == len(touched)
        assert sink.count("wire", CATEGORY_VALUE) == len(mangled["wire"][1])
        day = next(iter_trace_days(root, mode="lenient",
                                   sink=QuarantineSink()))
        for source, records in (("dhcp", day.dhcp_records),
                                ("dns", day.dns_records),
                                ("wire", day.bursts)):
            total, touched = mangled[source]
            assert len(records) == total - len(touched)


class TestExportAndReplay:
    def test_export_layout(self, generated, tmp_path):
        traces, _ = generated
        root = str(tmp_path / "traces")
        assert export_traces(traces, root) == 3
        manifest = read_manifest(root)
        assert manifest["days"] == ["2020-02-03", "2020-02-04",
                                    "2020-02-05"]
        for label in manifest["days"]:
            for name in ("wire.jsonl.gz", "dhcp.jsonl.gz", "dns.jsonl.gz"):
                assert os.path.exists(os.path.join(root, label, name))

    def test_round_trip_records(self, generated, tmp_path):
        traces, _ = generated
        root = str(tmp_path / "traces")
        export_traces(traces, root)
        replayed = list(iter_trace_days(root))
        assert len(replayed) == len(traces)
        for original, restored in zip(traces, replayed):
            assert restored.day_start == original.day_start
            assert restored.dhcp_records == original.dhcp_records
            assert (list(restored.dns_records.rows())
                    == list(original.dns_records.rows()))
            assert (list(restored.bursts.rows())
                    == list(original.bursts.rows()))

    def test_replay_equivalent_to_live_ingest(self, generated, tmp_path):
        traces, excluded = generated
        root = str(tmp_path / "traces")
        export_traces(traces, root)

        live = MonitoringPipeline(_CONFIG, excluded)
        for trace in traces:
            live.ingest_day(trace)
        live_dataset = live.finalize()

        replay = MonitoringPipeline(_CONFIG, excluded)
        assert ingest_trace_dir(replay, root) == 3
        replay_dataset = replay.finalize()

        assert len(replay_dataset) == len(live_dataset)
        assert np.array_equal(replay_dataset.ts, live_dataset.ts)
        assert np.array_equal(replay_dataset.total_bytes,
                              live_dataset.total_bytes)
        assert np.array_equal(replay_dataset.domain, live_dataset.domain)
        assert ([p.token for p in replay_dataset.devices]
                == [p.token for p in live_dataset.devices])

    def test_version_guard(self, generated, tmp_path):
        traces, _ = generated
        root = str(tmp_path / "traces")
        export_traces(traces, root)
        manifest_path = os.path.join(root, MANIFEST_NAME)
        with open(manifest_path) as fileobj:
            payload = json.load(fileobj)
        payload["format_version"] = FORMAT_VERSION + 1
        with open(manifest_path, "w") as fileobj:
            json.dump(payload, fileobj)
        with pytest.raises(ValueError):
            read_manifest(root)

    def test_extra_manifest_fields(self, generated, tmp_path):
        traces, _ = generated
        root = str(tmp_path / "traces")
        export_traces(traces, root, extra_manifest={"seed": 31})
        assert read_manifest(root)["seed"] == 31
