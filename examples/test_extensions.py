"""Tests for the extension analyses in ``extensions.py``."""

import numpy as np
import pytest

from repro import constants
from repro.net.mac import MacAddress
from repro.pipeline.anonymize import Anonymizer
from repro.pipeline.dataset import NO_DOMAIN
from repro.util.timeutil import DAY, HOUR, utc_ts
from tests.oracles.dataset import RowFlowDatasetBuilder

from extensions import (
    compute_application_mix,
    compute_departure_waves,
    compute_diurnal_convergence,
)

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


class TestApplicationMix:
    def test_shares_sum_to_one(self):
        feb = utc_ts(2020, 2, 10)
        dataset = _dataset([
            (1, feb, 600, "zoom.us"),
            (1, feb + 10, 300, "netflix.com"),
            (1, feb + 20, 100, "wikipedia.org"),
        ])
        mix = compute_application_mix(dataset)
        shares = mix.shares[(2020, 2)]
        assert shares["work"] == pytest.approx(0.6)
        assert shares["leisure"] == pytest.approx(0.3)
        assert shares["other"] == pytest.approx(0.1)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_subdomains_categorized(self):
        feb = utc_ts(2020, 2, 10)
        dataset = _dataset([
            (1, feb, 100, "us04web.zoom.us"),
            (1, feb + 1, 100, "canvas.instructure.com"),
            (1, feb + 2, 200, "nns.srv.nintendo.net"),
        ])
        shares = compute_application_mix(dataset).shares[(2020, 2)]
        assert shares["work"] == pytest.approx(0.5)
        assert shares["leisure"] == pytest.approx(0.5)

    def test_empty_month(self):
        dataset = _dataset([(1, utc_ts(2020, 2, 10), 100, "zoom.us")])
        mix = compute_application_mix(dataset)
        assert mix.totals[(2020, 5)] == 0.0
        assert mix.shares[(2020, 5)]["work"] == 0.0

    def test_device_mask(self):
        feb = utc_ts(2020, 2, 10)
        dataset = _dataset([
            (1, feb, 100, "zoom.us"),
            (2, feb, 900, "netflix.com"),
        ])
        mix = compute_application_mix(dataset,
                                      device_mask=np.array([True, False]))
        assert mix.shares[(2020, 2)]["work"] == pytest.approx(1.0)

    def test_unannotated_counts_as_other(self):
        feb = utc_ts(2020, 2, 10)
        dataset = _dataset([
            (1, feb, 100, None),
            (1, feb + 1, 100, "zoom.us"),
        ])
        shares = compute_application_mix(dataset).shares[(2020, 2)]
        assert shares["other"] == pytest.approx(0.5)

    def test_share_series_order(self):
        dataset = _dataset([
            (1, utc_ts(2020, 2, 5), 100, "zoom.us"),
            (1, utc_ts(2020, 4, 5), 100, "zoom.us"),
            (1, utc_ts(2020, 4, 5, 1), 100, "netflix.com"),
        ])
        series = compute_application_mix(dataset).share_series("work")
        assert series[0] == pytest.approx(1.0)
        assert series[2] == pytest.approx(0.5)


class TestDiurnalConvergence:
    def test_identical_profiles_score_one(self):
        # Same 9am traffic every day of the first full week of February.
        monday = utc_ts(2020, 2, 3)
        rows = [(1, monday + d * DAY + 9 * HOUR, 100, None)
                for d in range(7)]
        result = compute_diurnal_convergence(_dataset(rows))
        assert result.similarity[(2020, 2)] == pytest.approx(1.0)

    def test_disjoint_hours_score_zero(self):
        monday = utc_ts(2020, 2, 3)
        rows = [
            (1, monday + 9 * HOUR, 100, None),             # weekday 9am
            (1, monday + 5 * DAY + 21 * HOUR, 100, None),  # Saturday 9pm
        ]
        result = compute_diurnal_convergence(_dataset(rows))
        assert result.similarity[(2020, 2)] == pytest.approx(0.0)

    def test_empty_side_is_nan(self):
        monday = utc_ts(2020, 2, 3)
        result = compute_diurnal_convergence(
            _dataset([(1, monday + 9 * HOUR, 100, None)]))
        assert np.isnan(result.similarity[(2020, 2)])

    def test_profiles_are_24_bins(self):
        monday = utc_ts(2020, 2, 3)
        result = compute_diurnal_convergence(
            _dataset([(1, monday, 100, None),
                      (1, monday + 5 * DAY, 100, None)]))
        weekday, weekend = result.profiles[(2020, 2)]
        assert weekday.shape == (24,)
        assert weekend.shape == (24,)


class TestDepartureWaves:
    def test_remainers_vs_leavers(self):
        rows = [
            # Device 1: active through the end -> remainer.
            (1, START + 2 * DAY, 100, None),
            (1, START + 118 * DAY, 100, None),
            # Device 2: last active in week 6 -> a departure.
            (2, START + 2 * DAY, 100, None),
            (2, START + 44 * DAY, 100, None),
        ]
        result = compute_departure_waves(_dataset(rows))
        assert result.remainer_count == 1
        assert result.weekly_departures.sum() == 1
        assert result.weekly_departures[44 // 7] == 1

    def test_last_active_day(self):
        rows = [(1, START + 3 * DAY, 100, None),
                (1, START + 10 * DAY, 100, None)]
        result = compute_departure_waves(_dataset(rows))
        assert result.last_active_day[0] == 10

    def test_week_starts_cover_window(self):
        rows = [(1, START, 100, None)]
        result = compute_departure_waves(_dataset(rows))
        assert result.week_starts[0] == 0
        assert len(result.week_starts) == len(result.weekly_departures)


class TestExtensions:
    """The extensions on the mini study: the shapes the paper's
    narrative implies."""

    def test_application_mix_shifts_toward_work(self, mini_artifacts):
        """Zoom's arrival grows the work share from Feb to April."""
        mix = compute_application_mix(
            mini_artifacts.dataset,
            device_mask=mini_artifacts.post_shutdown_mask)
        feb = mix.shares[(2020, 2)]
        apr = mix.shares[(2020, 4)]
        assert apr["work"] > feb["work"]
        assert abs(sum(feb.values()) - 1.0) < 1e-9

    def test_diurnal_similarity_defined_every_month(self, mini_artifacts):
        result = compute_diurnal_convergence(
            mini_artifacts.dataset,
            device_mask=mini_artifacts.post_shutdown_mask)
        series = result.series()
        assert len(series) == 4
        assert all(0.0 <= value <= 1.0 for value in series
                   if not np.isnan(value))

    def test_weekday_weekend_rhythms_stay_distinct(self, mini_artifacts):
        """The dorm population keeps distinct weekday/weekend rhythms:
        no month reaches full convergence (unlike Feldmann et al.)."""
        series = compute_diurnal_convergence(
            mini_artifacts.dataset,
            device_mask=mini_artifacts.post_shutdown_mask).series()
        assert all(value < 0.999 for value in series
                   if not np.isnan(value))

    def test_departure_waves_peak_in_march(self, mini_artifacts):
        """The inferred exodus concentrates in mid-March weeks."""
        waves = compute_departure_waves(mini_artifacts.dataset)
        assert waves.remainer_count > 0
        # The bulk of departures lands in March (weeks 5-8 of the window).
        departures = waves.weekly_departures
        assert departures[5:9].sum() >= departures.sum() * 0.5
        if departures.sum() >= 5:
            peak_day = waves.week_starts[int(np.argmax(departures))]
            # Mid-March sits around day 40-55 of the window.
            assert 33 <= peak_day <= 56
