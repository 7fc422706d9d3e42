"""Unit tests for every expectation check, on hand-built artifacts.

The integration suite exercises the checklist against real (small)
study runs, where many claims legitimately SKIP or FAIL. Here each
check function is driven through its PASS, FAIL and (where one exists)
SKIP branch against synthetic :class:`StubArtifacts` shaped exactly
like the paper's findings -- so a broken comparison direction in any
check is caught without running a study.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro import constants
from repro.analysis.expectations import (
    FAIL,
    PASS,
    SKIP,
    Expectation,
    evaluate_all,
    outcomes_payload,
    paper_expectations,
    render_outcomes,
)
from repro.analysis.fig1_active_devices import Fig1Result
from repro.analysis.fig2_bytes_per_device import Fig2Result
from repro.analysis.fig3_hour_of_week import Fig3Result
from repro.analysis.fig4_subpopulation import Fig4Result
from repro.analysis.fig5_zoom import Fig5Result
from repro.analysis.fig6_social import Fig6Result
from repro.analysis.fig7_steam import Fig7Result
from repro.analysis.fig8_switch import Fig8Result
from repro.analysis.summary import SummaryStats
from repro.stats.descriptive import BoxStats
from repro.util.timeutil import DAY


def _expectation_ids():
    """Every encoded expectation id, in paper order."""
    return [expectation.expectation_id
            for expectation in paper_expectations()]


N_DAYS = 121  # Feb 1 .. May 31 2020
DAY0 = constants.STUDY_START
BREAK_START_DAY = int((constants.BREAK_START - DAY0) // DAY)   # 50
BREAK_END_DAY = int((constants.BREAK_END - DAY0) // DAY)       # 58
FEB = slice(0, 29)
APR = slice(60, 90)
MAY = slice(90, 121)
N_DEVICES = 40


def _box(n: int, median: float, q3: float = 0.0) -> BoxStats:
    return BoxStats(n=n, mean=median, p1=median, q1=median,
                    median=median, q3=q3 or median, p95=median,
                    p99=median)


def _monthly(values, counts, q3s=None):
    """(year, month) -> BoxStats for the four study months."""
    q3s = q3s or values
    return {month: _box(n, median, q3)
            for month, median, n, q3
            in zip(constants.STUDY_MONTHS, values, counts, q3s)}


class StubClassification:
    def __init__(self, masks):
        self._masks = masks

    def class_mask(self, name):
        return self._masks[name]


class StubArtifacts:
    """A StudyArtifacts stand-in with every analysis precomputed."""

    def __init__(self):
        self.dataset = SimpleNamespace(day0=DAY0)

        # Fig 1: 1000-device plateau, pre-break decline to 650, break
        # floor of 300, then online-term weekdays at 200 / weekends at
        # 150 (April 6 anchors the weekday fold).
        day_ts = DAY0 + np.arange(N_DAYS) * DAY
        total = np.full(N_DAYS, 1000.0)
        total[20:BREAK_START_DAY] = 650.0
        total[BREAK_START_DAY:BREAK_END_DAY] = 300.0
        post = np.arange(N_DAYS - BREAK_END_DAY)
        total[BREAK_END_DAY:] = np.where(
            ((post - (BREAK_END_DAY - 65)) % 7) >= 5, 150.0, 200.0)
        by_class = {
            "mobile": np.full(N_DAYS, 100.0),
            "laptop_desktop": np.full(N_DAYS, 100.0),
            "iot": np.full(N_DAYS, 50.0),
            "unclassified": np.full(N_DAYS, 500.0),
        }
        by_class["mobile"][:20] = 400.0
        by_class["laptop_desktop"][:20] = 400.0
        self._fig1 = Fig1Result(day_ts=day_ts, total=total,
                                by_class=by_class)

        # Fig 2: IoT means 3x the medians (heavy hitters).
        self._fig2 = Fig2Result(
            day_ts=day_ts,
            mean_by_class={"iot": np.full(N_DAYS, 3.0)},
            median_by_class={"iot": np.full(N_DAYS, 1.0)})

        # Fig 3: the April sample week doubles February's level.
        self._fig3 = Fig3Result(
            weeks={"2020-02-20": np.full(168, 1.0),
                   "2020-04-09": np.full(168, 2.0)},
            hour_of_week=np.arange(168))

        # Device census: 10 mobile + 10 laptop (all post-shutdown),
        # international = the first 10 of them.
        masks = {name: np.zeros(N_DEVICES, dtype=bool)
                 for name in ("mobile", "laptop_desktop", "iot",
                              "unclassified")}
        masks["mobile"][:10] = True
        masks["laptop_desktop"][10:20] = True
        masks["unclassified"][20:] = True
        self.classification = StubClassification(masks)
        self.post_shutdown_mask = np.zeros(N_DEVICES, dtype=bool)
        self.post_shutdown_mask[:20] = True
        self.international_mask = np.zeros(N_DEVICES, dtype=bool)
        self.international_mask[:10] = True

        # Fig 4: international jumps 1.5x over break and stays at
        # 1.3x through May; domestic barely moves.
        intl = np.full(N_DAYS, 100.0)
        intl[BREAK_START_DAY:BREAK_END_DAY] = 150.0
        intl[MAY] = 130.0
        dom = np.full(N_DAYS, 100.0)
        dom[BREAK_START_DAY:BREAK_END_DAY] = 105.0
        self._fig4 = Fig4Result(
            day_ts=day_ts,
            series={("international", "mobile_desktop"): intl,
                    ("domestic", "mobile_desktop"): dom})

        # Fig 5: Zoom is absent in February, 1 GB/day in April,
        # concentrated in class hours, dipping on weekends.
        daily = np.zeros(N_DAYS)
        daily[APR] = 1e9
        daily[MAY] = 0.8e9
        weekday_hourly = np.full(24, 0.5e8)
        weekday_hourly[8:18] = 10e8
        self._fig5 = Fig5Result(day_ts=day_ts, daily_bytes=daily,
                                weekday_hourly=weekday_hourly,
                                weekend_hourly=weekday_hourly * 0.3)

        # Fig 6: platform trajectories shaped like the paper's.
        self._fig6 = Fig6Result(stats={
            "facebook": {
                "domestic": _monthly([2.0, 1.8, 1.5, 1.0],
                                     [20, 20, 20, 20]),
                "international": _monthly([1.0, 1.2, 1.5, 1.6],
                                          [10, 10, 10, 10]),
            },
            "instagram": {
                "international": _monthly([1.0, 1.1, 1.3, 1.5],
                                          [10, 10, 10, 10]),
            },
            "tiktok": {
                "domestic": _monthly([1.0, 1.3, 1.4, 1.5],
                                     [20, 22, 24, 26],
                                     q3s=[2.0, 2.2, 2.4, 2.6]),
            },
        })

        # Fig 7: Steam spikes in March, harder for internationals;
        # domestic connection medians decline; the cohort grows.
        self._fig7 = Fig7Result(
            bytes_stats={
                "international": _monthly(
                    [10e9, 30e9, 25e9, 8e9], [4, 4, 4, 4]),
                "domestic": _monthly(
                    [10e9, 15e9, 12e9, 8e9], [5, 6, 7, 8]),
            },
            connection_stats={
                "domestic": _monthly([50.0, 45.0, 40.0, 30.0],
                                     [5, 6, 7, 8]),
            })

        # Fig 8: break spike, mid-term lull, late-May boredom rise.
        smoothed = np.full(N_DAYS, 1e9)
        smoothed[BREAK_START_DAY:BREAK_END_DAY] = 2e9
        smoothed[BREAK_END_DAY + 14:BREAK_END_DAY + 35] = 0.5e9
        smoothed[107:] = 1.5e9
        self._fig8 = Fig8Result(
            day_ts=day_ts, daily_gameplay_bytes=smoothed.copy(),
            smoothed=smoothed, switches_pre_shutdown=20,
            switches_post_shutdown=8, new_switches=3, cohort_size=10)

        self._summary = SummaryStats(
            peak_active_devices=1000, trough_active_devices=150,
            post_shutdown_devices=20, international_devices=5,
            international_fraction=0.25,
            feb_total_bytes=10e9, aprmay_total_bytes=15.8e9,
            traffic_increase_feb_to_aprmay=0.58,
            distinct_sites_feb=10.0, distinct_sites_aprmay=13.4,
            distinct_sites_increase=0.34,
            traffic_increase_vs_2019=0.53)

    def fig1(self):
        return self._fig1

    def fig2(self):
        return self._fig2

    def fig3(self):
        return self._fig3

    def fig4(self):
        return self._fig4

    def fig5(self):
        return self._fig5

    def fig6(self):
        return self._fig6

    def fig7(self):
        return self._fig7

    def fig8(self):
        return self._fig8

    def summary(self):
        return self._summary


def _status_of(artifacts, expectation_id):
    expectation = next(e for e in paper_expectations()
                       if e.expectation_id == expectation_id)
    return expectation.evaluate(artifacts).status


def test_paper_shaped_artifacts_pass_every_expectation():
    outcomes = evaluate_all(StubArtifacts())
    failed = {o.expectation_id: o.measured for o in outcomes
              if o.status != PASS}
    assert failed == {}
    assert len(outcomes) == 29


# -- FAIL branches ----------------------------------------------------------

def _no_exodus(a):
    a._fig1.total[:] = 1000.0


def _no_early_decline(a):
    a._fig1.total[20:BREAK_START_DAY + 1] = 1000.0


def _mobile_heavy(a):
    a._fig1.by_class["mobile"][:20] = 2000.0


def _unclassified_rare(a):
    a._fig1.by_class["unclassified"][BREAK_END_DAY:] = 10.0


def _no_skew(a):
    a._fig2.mean_by_class["iot"][:] = 1.0


def _traffic_flat(a):
    a._summary = dataclasses.replace(
        a._summary, traffic_increase_feb_to_aprmay=0.05)


def _2019_flat(a):
    a._summary = dataclasses.replace(
        a._summary, traffic_increase_vs_2019=0.05)


def _sites_explode(a):
    a._summary = dataclasses.replace(
        a._summary, distinct_sites_increase=0.9)


def _weekend_peaks(a):
    a._fig1.total[BREAK_END_DAY:] = np.where(
        ((np.arange(N_DAYS - BREAK_END_DAY)
          - (BREAK_END_DAY - 65)) % 7) >= 5, 250.0, 200.0)


def _april_quiet(a):
    a._fig3.weeks["2020-04-09"][:] = 0.5


def _all_international(a):
    a._summary = dataclasses.replace(a._summary,
                                     international_fraction=0.6)


def _domestic_break_jump(a):
    a._fig4.series[("domestic", "mobile_desktop")][
        BREAK_START_DAY:BREAK_END_DAY] = 250.0


def _intl_back_to_normal(a):
    a._fig4.series[("international", "mobile_desktop")][MAY] = 100.0


def _zoom_never_ramps(a):
    a._fig5.daily_bytes[APR] = 0.0
    a._fig5.daily_bytes[MAY] = 0.0


def _zoom_all_night(a):
    a._fig5.weekday_hourly[:] = 1.0


def _zoom_weekend_heavy(a):
    a._fig5.weekend_hourly[:] = a._fig5.weekday_hourly * 3.0


def _facebook_dom_rises(a):
    a._fig6.stats["facebook"]["domestic"] = _monthly(
        [1.0, 1.2, 1.5, 2.0], [20, 20, 20, 20])


def _facebook_intl_falls(a):
    a._fig6.stats["facebook"]["international"] = _monthly(
        [2.0, 1.5, 1.0, 0.9], [10, 10, 10, 10])


def _instagram_intl_falls(a):
    a._fig6.stats["instagram"]["international"] = _monthly(
        [1.5, 1.3, 1.1, 1.0], [10, 10, 10, 10])


def _tiktok_march_dip(a):
    a._fig6.stats["tiktok"]["domestic"] = _monthly(
        [1.3, 1.0, 1.4, 1.5], [20, 22, 24, 26])


def _tiktok_exodus(a):
    a._fig6.stats["tiktok"]["domestic"] = _monthly(
        [1.0, 1.3, 1.4, 1.5], [26, 24, 22, 20])


def _tiktok_quartiles_flat(a):
    a._fig6.stats["tiktok"]["domestic"] = _monthly(
        [1.0, 1.3, 1.4, 1.5], [20, 22, 24, 26],
        q3s=[2.6, 2.4, 2.2, 2.0])


def _steam_monotone_rise(a):
    a._fig7.bytes_stats["international"] = _monthly(
        [10e9, 12e9, 14e9, 16e9], [4, 4, 4, 4])
    a._fig7.bytes_stats["domestic"] = _monthly(
        [10e9, 12e9, 14e9, 16e9], [5, 6, 7, 8])


def _domestic_steam_harder(a):
    a._fig7.bytes_stats["domestic"] = _monthly(
        [10e9, 50e9, 40e9, 8e9], [5, 6, 7, 8])


def _steam_conns_rise(a):
    a._fig7.connection_stats["domestic"] = _monthly(
        [30.0, 40.0, 45.0, 50.0], [5, 6, 7, 8])


def _steam_cohort_shrinks(a):
    a._fig7.bytes_stats["domestic"] = _monthly(
        [10e9, 15e9, 12e9, 8e9], [8, 7, 6, 5])


def _switches_vanish(a):
    a._fig8.switches_post_shutdown = 0


def _no_break_spike(a):
    a._fig8.smoothed[BREAK_START_DAY:BREAK_END_DAY] = 1e9


def _no_boredom_rise(a):
    a._fig8.smoothed[107:] = 0.2e9


_FAIL_CASES = [
    ("fig1-exodus", _no_exodus),
    ("fig1-early-leavers", _no_early_decline),
    ("fig1-ratio", _mobile_heavy),
    ("fig1-unclassified", _unclassified_rare),
    ("fig2-skew", _no_skew),
    ("stats-traffic", _traffic_flat),
    ("stats-2019", _2019_flat),
    ("stats-sites", _sites_explode),
    ("fig1-weekends", _weekend_peaks),
    ("fig3-weekday", _april_quiet),
    ("stats-intl", _all_international),
    ("fig4-break", _domestic_break_jump),
    ("fig4-elevated", _intl_back_to_normal),
    ("fig5-ramp", _zoom_never_ramps),
    ("fig5-hours", _zoom_all_night),
    ("fig5-weekend", _zoom_weekend_heavy),
    ("fig6a-dom", _facebook_dom_rises),
    ("fig6a-intl", _facebook_intl_falls),
    ("fig6b-intl", _instagram_intl_falls),
    ("fig6c-march", _tiktok_march_dip),
    ("fig6c-adoption", _tiktok_exodus),
    ("fig6c-quartiles", _tiktok_quartiles_flat),
    ("fig7a-spike", _steam_monotone_rise),
    ("fig7a-intl", _domestic_steam_harder),
    ("fig7b-conns", _steam_conns_rise),
    ("fig7-n", _steam_cohort_shrinks),
    ("fig8-census", _switches_vanish),
    ("fig8-break", _no_break_spike),
    ("fig8-boredom", _no_boredom_rise),
]


@pytest.mark.parametrize("expectation_id,mutate", _FAIL_CASES,
                         ids=[case[0] for case in _FAIL_CASES])
def test_fail_branch(expectation_id, mutate):
    artifacts = StubArtifacts()
    mutate(artifacts)
    assert _status_of(artifacts, expectation_id) == FAIL


def test_every_expectation_has_a_fail_case():
    assert [case[0] for case in _FAIL_CASES] == _expectation_ids()


# -- SKIP branches ----------------------------------------------------------

def _empty_laptops(a):
    a._fig1.by_class["laptop_desktop"][:20] = 0.0


def _no_iot(a):
    a._fig2.median_by_class["iot"][:] = 0.0


def _no_2019_baseline(a):
    a._summary = dataclasses.replace(a._summary,
                                     traffic_increase_vs_2019=None)


def _nobody_stays(a):
    a.post_shutdown_mask[:] = False


def _no_internationals(a):
    a.international_mask[:] = False


def _no_zoom(a):
    a._fig5.weekday_hourly[:] = 0.0


def _tiny_facebook_dom(a):
    a._fig6.stats["facebook"]["domestic"] = _monthly(
        [2.0, 1.8, 1.5, 1.0], [2, 2, 2, 2])


def _tiny_facebook_intl(a):
    a._fig6.stats["facebook"]["international"] = _monthly(
        [1.0, 1.2, 1.5, 1.6], [2, 2, 2, 2])


def _tiny_instagram(a):
    a._fig6.stats["instagram"]["international"] = _monthly(
        [1.0, 1.1, 1.3, 1.5], [2, 2, 2, 2])


def _tiny_tiktok(a):
    a._fig6.stats["tiktok"]["domestic"] = _monthly(
        [1.0, 1.3, 1.4, 1.5], [5, 5, 5, 5])


def _no_tiktok(a):
    a._fig6.stats["tiktok"]["domestic"] = _monthly(
        [0.0, 1.3, 1.4, 1.5], [0, 5, 5, 5])


def _tiny_steam(a):
    a._fig7.bytes_stats["international"] = _monthly(
        [10e9, 30e9, 25e9, 8e9], [1, 1, 1, 1])
    a._fig7.bytes_stats["domestic"] = _monthly(
        [10e9, 15e9, 12e9, 8e9], [1, 1, 1, 1])


def _steam_intl_month_empty(a):
    del a._fig7.bytes_stats["international"][(2020, 3)]


def _steam_conns_month_empty(a):
    del a._fig7.connection_stats["domestic"][(2020, 2)]


def _no_steam_in_feb(a):
    del a._fig7.bytes_stats["domestic"][(2020, 2)]


def _few_switches(a):
    a._fig8.switches_pre_shutdown = 3


def _lonely_switch(a):
    a._fig8.cohort_size = 1


def _small_cohort(a):
    a._fig8.cohort_size = 4


_SKIP_CASES = [
    ("fig1-ratio", _empty_laptops),
    ("fig2-skew", _no_iot),
    ("stats-2019", _no_2019_baseline),
    ("fig4-break", _nobody_stays),
    ("fig4-elevated", _no_internationals),
    ("fig5-hours", _no_zoom),
    ("fig5-weekend", _no_zoom),
    ("fig6a-dom", _tiny_facebook_dom),
    ("fig6a-intl", _tiny_facebook_intl),
    ("fig6b-intl", _tiny_instagram),
    ("fig6c-march", _tiny_tiktok),
    ("fig6c-adoption", _no_tiktok),
    ("fig6c-quartiles", _tiny_tiktok),
    ("fig7a-spike", _tiny_steam),
    ("fig7a-intl", _steam_intl_month_empty),
    ("fig7b-conns", _steam_conns_month_empty),
    ("fig7-n", _no_steam_in_feb),
    ("fig8-census", _few_switches),
    ("fig8-break", _lonely_switch),
    ("fig8-boredom", _small_cohort),
]


@pytest.mark.parametrize("expectation_id,mutate", _SKIP_CASES,
                         ids=[f"{case[0]}-{case[1].__name__}"
                              for case in _SKIP_CASES])
def test_skip_branch(expectation_id, mutate):
    artifacts = StubArtifacts()
    mutate(artifacts)
    assert _status_of(artifacts, expectation_id) == SKIP


# -- harness ----------------------------------------------------------------

def test_check_exception_becomes_fail_outcome():
    def explode(artifacts):
        raise RuntimeError("kaboom")

    expectation = Expectation(
        expectation_id="test-explode", figure="Fig. 0",
        claim="checks never abort the checklist", paper_value="n/a",
        check=explode)
    outcome = expectation.evaluate(StubArtifacts())
    assert outcome.status == FAIL
    assert "kaboom" in outcome.measured


def test_outcomes_payload_and_render():
    outcomes = evaluate_all(StubArtifacts())
    payload = outcomes_payload(outcomes)
    assert payload["schema"] == 1
    assert payload["counts"] == {PASS: 29, FAIL: 0, SKIP: 0}
    assert sorted(payload["outcomes"]) == sorted(_expectation_ids())
    entry = payload["outcomes"]["fig1-exodus"]
    assert set(entry) == {"figure", "claim", "paper_value", "measured",
                          "status"}
    rendered = render_outcomes(outcomes)
    assert "**29 PASS, 0 SKIP (insufficient scale), 0 FAIL**" in rendered
