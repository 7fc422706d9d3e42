"""Tests for dataset persistence."""

import json

import numpy as np
import pytest

from repro.net.mac import MacAddress
from repro.pipeline.anonymize import Anonymizer
from repro.pipeline.dataset import NO_DOMAIN
from repro.pipeline.store import FORMAT_VERSION, load_dataset, save_dataset
from tests.oracles.dataset import RowFlowDatasetBuilder


@pytest.fixture()
def dataset():
    builder = RowFlowDatasetBuilder(day0=1000.0)
    anonymizer = Anonymizer("s")
    for i in range(20):
        idx = builder.device_index(
            anonymizer.device(MacAddress(0x9C1A0000_0000 + i % 3)))
        builder.add_flow(
            ts=1000.0 + i * 500, duration=float(i), device_idx=idx,
            resp_h=0x32000000 + i, resp_p=443,
            proto="tcp" if i % 2 else "udp",
            orig_bytes=i * 10, resp_bytes=i * 20 + 1,
            domain_idx=(NO_DOMAIN if i % 5 == 0
                        else builder.domain_index(f"site{i % 4}.com")),
            user_agent="UA" if i % 7 == 0 else None)
    return builder.finalize()


class TestRoundTrip:
    def test_arrays_identical(self, dataset, tmp_path):
        path = str(tmp_path / "flows")
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        for field in ("ts", "duration", "device", "resp_h", "resp_p",
                      "proto", "orig_bytes", "resp_bytes", "domain",
                      "day"):
            assert np.array_equal(getattr(dataset, field),
                                  getattr(loaded, field)), field
        assert loaded.day0 == dataset.day0
        assert loaded.domains == dataset.domains

    def test_profiles_identical(self, dataset, tmp_path):
        path = str(tmp_path / "flows.npz")
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert len(loaded.devices) == len(dataset.devices)
        for original, restored in zip(dataset.devices, loaded.devices):
            assert restored.token == original.token
            assert restored.oui == original.oui
            assert restored.days_seen == original.days_seen
            assert restored.user_agents == original.user_agents
            assert restored.flow_count == original.flow_count
            assert restored.total_bytes == original.total_bytes
            assert restored.first_ts == original.first_ts

    def test_analysis_equivalence(self, dataset, tmp_path):
        """Aggregations on the loaded dataset match the original."""
        from repro.analysis.common import per_device_day_bytes
        path = str(tmp_path / "flows")
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert np.array_equal(
            per_device_day_bytes(dataset, 200),
            per_device_day_bytes(loaded, 200))

    def test_version_check(self, dataset, tmp_path):
        path = str(tmp_path / "flows")
        save_dataset(dataset, path)
        sidecar = tmp_path / "flows.npz.meta.json"
        payload = json.loads(sidecar.read_text())
        payload["format_version"] = FORMAT_VERSION + 1
        sidecar.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_missing_sidecar(self, dataset, tmp_path):
        path = str(tmp_path / "flows")
        save_dataset(dataset, path)
        (tmp_path / "flows.npz.meta.json").unlink()
        with pytest.raises(FileNotFoundError):
            load_dataset(path)
