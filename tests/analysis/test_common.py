"""Tests for analysis helpers on hand-built datasets."""

import numpy as np
import pytest

from repro import constants
from repro.analysis.common import (
    day_timestamps,
    month_day_mask,
    per_device_day_bytes,
    post_shutdown_device_mask,
    study_day_count,
)
from repro.analysis.context import AnalysisContext
from repro.net.mac import MacAddress
from repro.pipeline.anonymize import Anonymizer
from repro.pipeline.dataset import NO_DOMAIN
from repro.util.timeutil import DAY, utc_ts
from tests.oracles.dataset import RowFlowDatasetBuilder


def _dataset(rows, day0=constants.STUDY_START):
    """rows: (mac_value, ts, total_bytes)."""
    builder = RowFlowDatasetBuilder(day0=day0)
    anonymizer = Anonymizer("s")
    for mac_value, ts, total_bytes in rows:
        idx = builder.device_index(
            anonymizer.device(MacAddress(mac_value)))
        builder.add_flow(
            ts=ts, duration=1.0, device_idx=idx, resp_h=1, resp_p=443,
            proto="tcp", orig_bytes=total_bytes // 2,
            resp_bytes=total_bytes - total_bytes // 2,
            domain_idx=NO_DOMAIN, user_agent=None)
    return builder.finalize()


class TestPerDeviceDayBytes:
    def test_binning(self):
        start = constants.STUDY_START
        dataset = _dataset([
            (1, start + 100, 10),
            (1, start + 200, 20),
            (1, start + DAY + 100, 40),
            (2, start + 100, 7),
        ])
        matrix = per_device_day_bytes(dataset, n_days=3)
        assert matrix.shape == (2, 3)
        assert list(matrix[0]) == [30.0, 40.0, 0.0]
        assert list(matrix[1]) == [7.0, 0.0, 0.0]

    def test_flow_mask(self):
        start = constants.STUDY_START
        dataset = _dataset([(1, start + 1, 10), (1, start + 2, 20)])
        mask = np.array([True, False])
        matrix = per_device_day_bytes(dataset, n_days=1, flow_mask=mask)
        assert matrix[0, 0] == 10.0

    def test_out_of_range_days_ignored(self):
        start = constants.STUDY_START
        dataset = _dataset([(1, start + 10 * DAY, 10)])
        matrix = per_device_day_bytes(dataset, n_days=5)
        assert matrix.sum() == 0.0


class TestMasksAndTimestamps:
    def test_study_day_count(self):
        dataset = _dataset([(1, constants.STUDY_START + 1, 1)])
        assert study_day_count(dataset) == 121  # Feb..May 2020

    def test_day_timestamps(self):
        dataset = _dataset([(1, constants.STUDY_START + 1, 1)])
        days = day_timestamps(dataset, 3)
        assert list(days) == [constants.STUDY_START,
                              constants.STUDY_START + DAY,
                              constants.STUDY_START + 2 * DAY]

    def test_month_day_mask(self):
        dataset = _dataset([(1, constants.STUDY_START + 1, 1)])
        mask = month_day_mask(dataset, 2020, 2, 121)
        assert mask.sum() == 29
        assert mask[0]
        assert not mask[29]

    def test_post_shutdown_mask(self):
        start = constants.STUDY_START
        dataset = _dataset([
            (1, start + 10, 1),                       # leaves early
            (2, start + 10, 1),
            (2, constants.BREAK_END + 5 * DAY, 1),    # remains
        ])
        mask = post_shutdown_device_mask(dataset)
        assert list(mask) == [False, True]

    def test_devices_active_in_months(self):
        feb = utc_ts(2020, 2, 10)
        may = utc_ts(2020, 5, 10)
        dataset = _dataset([
            (1, feb, 1), (1, may, 1),   # both months
            (2, feb, 1),                # February only
        ])
        mask = AnalysisContext(dataset).active_in_months(
            ((2020, 2), (2020, 5)))
        assert list(mask) == [True, False]
