"""Unit tests for figure computations on small hand-built datasets."""

import numpy as np
import pytest

from repro import constants
from repro.analysis.fig1_active_devices import compute_fig1
from repro.analysis.fig2_bytes_per_device import compute_fig2
from repro.analysis.fig3_hour_of_week import compute_fig3
from repro.analysis.fig5_zoom import compute_fig5
from repro.analysis.fig8_switch import compute_fig8
from repro.apps.signature import AppSignature
from repro.devices.classifier import ClassificationResult
from repro.devices.types import DeviceClass
from repro.net.mac import MacAddress
from repro.pipeline.anonymize import Anonymizer
from repro.pipeline.dataset import NO_DOMAIN
from repro.util.timeutil import DAY, HOUR, utc_ts
from tests.oracles.dataset import RowFlowDatasetBuilder

START = constants.STUDY_START


def _dataset(rows):
    """rows: (mac_value, ts, total_bytes, domain_or_None)."""
    builder = RowFlowDatasetBuilder(day0=START)
    anonymizer = Anonymizer("s")
    for mac_value, ts, total_bytes, domain in rows:
        idx = builder.device_index(
            anonymizer.device(MacAddress(mac_value)))
        builder.add_flow(
            ts=ts, duration=1.0, device_idx=idx, resp_h=1, resp_p=443,
            proto="tcp", orig_bytes=total_bytes // 2,
            resp_bytes=total_bytes - total_bytes // 2,
            domain_idx=(NO_DOMAIN if domain is None
                        else builder.domain_index(domain)),
            user_agent=None)
    return builder.finalize()


def _classes(labels):
    classes = np.array([DeviceClass.code(label) for label in labels],
                       dtype=np.int8)
    return ClassificationResult(
        classes=classes,
        iot_scores=np.zeros(len(labels)),
        is_switch=np.zeros(len(labels), dtype=bool),
    )


class TestFig1:
    def test_counts_by_class_and_day(self):
        dataset = _dataset([
            (1, START + 100, 10, None),          # mobile, day 0
            (1, START + DAY + 100, 10, None),    # mobile, day 1
            (2, START + 200, 10, None),          # laptop, day 0
            (3, START + 300, 10, None),          # unclassified, day 0
        ])
        result = compute_fig1(dataset, _classes(
            [DeviceClass.MOBILE, DeviceClass.LAPTOP_DESKTOP,
             DeviceClass.UNCLASSIFIED]), n_days=2)
        assert list(result.total[:2]) == [3, 1]
        assert list(result.by_class[DeviceClass.MOBILE][:2]) == [1, 1]
        assert list(result.by_class[DeviceClass.LAPTOP_DESKTOP][:2]) == [1, 0]
        assert result.peak == 3
        assert result.trough_after_peak == 1

    def test_trough_after_peak(self):
        dataset = _dataset(
            [(d, START + 100, 10, None) for d in (1, 2, 3)]
            + [(1, START + DAY + 1, 10, None)]
            + [(d, START + 2 * DAY + 1, 10, None) for d in (1, 2)])
        result = compute_fig1(dataset, _classes(
            [DeviceClass.MOBILE] * 3), n_days=3)
        assert result.peak == 3
        assert result.trough_after_peak == 1


class TestFig2:
    def test_mean_median_skew(self):
        # Day 0: three active IoT devices with 10, 10, 1000 bytes.
        dataset = _dataset([
            (1, START + 1, 10, None),
            (2, START + 2, 10, None),
            (3, START + 3, 1000, None),
        ])
        result = compute_fig2(dataset, _classes([DeviceClass.IOT] * 3),
                              n_days=1)
        assert result.median_by_class[DeviceClass.IOT][0] == 10.0
        assert result.mean_by_class[DeviceClass.IOT][0] == pytest.approx(
            340.0)
        assert result.skew_ratio(DeviceClass.IOT) == pytest.approx(34.0)

    def test_inactive_days_are_nan(self):
        dataset = _dataset([(1, START + 1, 10, None)])
        result = compute_fig2(dataset, _classes([DeviceClass.MOBILE]),
                              n_days=2)
        assert np.isnan(result.median_by_class[DeviceClass.MOBILE][1])


class TestFig3:
    def test_diurnal_shape_recovered(self):
        week = constants.FIGURE3_WEEKS[0]
        rows = []
        # Three devices send every day of the week at hour 20; one
        # device sends a small flow at hour 4.
        for day in range(7):
            for mac in (1, 2, 3):
                rows.append((mac, week + day * DAY + 20 * HOUR, 3000, None))
        rows.append((1, week + 4 * HOUR, 30, None))
        dataset = _dataset(rows)
        result = compute_fig3(dataset, week_starts=[week],
                              estimator="per_capita")
        values = next(iter(result.weeks.values()))
        assert values[20] > values[4] > 0
        assert values[3] == 0.0

    def test_median_estimator(self):
        week = constants.FIGURE3_WEEKS[0]
        dataset = _dataset([
            (1, week + 10 * HOUR, 100, None),
            (2, week + 10 * HOUR + 60, 300, None),
            (3, week + 10 * HOUR + 120, 500, None),
        ])
        result = compute_fig3(dataset, week_starts=[week],
                              estimator="median")
        values = next(iter(result.weeks.values()))
        # Median of {100, 300, 500} = 300; min positive is itself.
        assert values[10] == pytest.approx(1.0)

    def test_unknown_estimator(self):
        dataset = _dataset([(1, START, 1, None)])
        with pytest.raises(ValueError):
            compute_fig3(dataset, estimator="mode")

    def test_device_mask_restricts(self):
        week = constants.FIGURE3_WEEKS[0]
        dataset = _dataset([
            (1, week + 10 * HOUR, 100, None),
            (2, week + 10 * HOUR, 900, None),
        ])
        result = compute_fig3(dataset, week_starts=[week],
                              device_mask=np.array([True, False]))
        values = next(iter(result.weeks.values()))
        assert values[10] == pytest.approx(1.0)  # only device 1 counted


class TestFig5:
    def test_zoom_aggregation(self):
        online = constants.BREAK_END
        dataset = _dataset([
            (1, online + 9 * HOUR, 1000, "zoom.us"),        # weekday class
            (1, online + 9.5 * HOUR, 500, "zoom.us"),
            (1, online + 20 * HOUR, 100, "tiktok.com"),     # not zoom
            (2, online + 9 * HOUR, 300, "zoom.us"),
        ])
        signature = AppSignature("zoom", domain_suffixes=("zoom.us",))
        result = compute_fig5(
            dataset, signature,
            post_shutdown_mask=np.array([True, True]),
            online_term_start=online)
        day_index = int((online - START) // DAY)
        assert result.daily_bytes[day_index] == 1800.0
        assert result.daily_bytes.sum() == 1800.0

    def test_post_shutdown_mask_applied(self):
        online = constants.BREAK_END
        dataset = _dataset([
            (1, online + 9 * HOUR, 1000, "zoom.us"),
            (2, online + 9 * HOUR, 500, "zoom.us"),
        ])
        signature = AppSignature("zoom", domain_suffixes=("zoom.us",))
        result = compute_fig5(
            dataset, signature,
            post_shutdown_mask=np.array([True, False]),
            online_term_start=online)
        assert result.daily_bytes.sum() == 1000.0

    def test_business_hours_share(self):
        online = constants.BREAK_END  # a Monday
        dataset = _dataset([
            (1, online + 10 * HOUR, 900, "zoom.us"),
            (1, online + 22 * HOUR, 100, "zoom.us"),
        ])
        signature = AppSignature("zoom", domain_suffixes=("zoom.us",))
        result = compute_fig5(dataset, signature,
                              post_shutdown_mask=np.array([True]),
                              online_term_start=online)
        assert result.weekday_business_share() == pytest.approx(0.9)


class TestFig8:
    def test_gameplay_series_and_census(self):
        feb = utc_ts(2020, 2, 10)
        may = utc_ts(2020, 5, 10)
        rows = [
            # Switch 1: active Feb and May (the cohort).
            (1, feb, 1000, "nns.srv.nintendo.net"),
            (1, feb + 60, 500, "atum.hac.lp1.d4c.nintendo.net"),
            (1, may, 2000, "mm.p2p.srv.nintendo.net"),
            # Switch 2: leaves in March.
            (2, feb + 120, 800, "nns.srv.nintendo.net"),
            # Switch 3: appears in April (new purchase).
            (3, utc_ts(2020, 4, 10), 700, "nns.srv.nintendo.net"),
        ]
        dataset = _dataset(rows)
        is_switch = np.array([True, True, True])
        result = compute_fig8(dataset, is_switch)
        feb_day = int((feb - START) // DAY)
        may_day = int((may - START) // DAY)
        # Cohort is switch 1 only; infra flow excluded from gameplay.
        assert result.cohort_size == 1
        assert result.daily_gameplay_bytes[feb_day] == 1000.0
        assert result.daily_gameplay_bytes[may_day] == 2000.0
        assert result.switches_pre_shutdown == 2
        assert result.switches_post_shutdown == 2
        assert result.new_switches == 1

    def test_smoothing_window(self):
        feb = utc_ts(2020, 2, 10)
        may = utc_ts(2020, 5, 10)
        dataset = _dataset([
            (1, feb, 300, "nns.srv.nintendo.net"),
            (1, may, 300, "nns.srv.nintendo.net"),
        ])
        result = compute_fig8(dataset, np.array([True]),
                              smoothing_window=3)
        feb_day = int((feb - START) // DAY)
        assert result.smoothed[feb_day] == pytest.approx(100.0)
