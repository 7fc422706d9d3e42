"""Paper expectations: every claim of the evaluation, as checkable code.

Each :class:`Expectation` states one finding from the paper (with its
section/figure), how to measure it on a finished
:class:`~repro.core.study.StudyArtifacts`, and the directional check
that decides whether the reproduction's *shape* matches. Absolute
numbers are not expected to match (the substrate is a simulator); who
wins, directions of monthly medians, spike timing, and orderings are.

:func:`evaluate_all` runs the full checklist and is what generates the
EXPERIMENTS.md table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro import constants
from repro.analysis.common import month_day_mask, study_day_count
from repro.util.timeutil import DAY

#: Outcome labels.
PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"  # not enough data at this scale (empty subgroup, NaN)


@dataclass(frozen=True)
class Outcome:
    """Result of checking one expectation."""

    expectation_id: str
    figure: str
    claim: str
    paper_value: str
    measured: str
    status: str


@dataclass(frozen=True)
class Expectation:
    """One paper claim plus its measurement procedure."""

    expectation_id: str
    figure: str
    claim: str
    paper_value: str
    #: Returns (measured description, pass/fail/skip).
    check: Callable[["object"], Tuple[str, str]]

    def evaluate(self, artifacts) -> Outcome:
        try:
            measured, status = self.check(artifacts)
        # Catch-all by design: an expectation check failing for *any*
        # reason must surface as a FAIL outcome in the report, never
        # abort the other checks.  The error text is preserved verbatim.
        except Exception as error:  # pragma: no cover  # reprolint: allow[RL004] -- failure is recorded as a FAIL outcome, never swallowed
            measured, status = f"error: {error!r}", FAIL
        return Outcome(
            expectation_id=self.expectation_id,
            figure=self.figure,
            claim=self.claim,
            paper_value=self.paper_value,
            measured=measured,
            status=status,
        )


def _status(condition: Optional[bool]) -> str:
    if condition is None:
        return SKIP
    return PASS if condition else FAIL


def _ratio(numerator: float, denominator: float) -> float:
    if denominator <= 0 or math.isnan(numerator) or math.isnan(denominator):
        return float("nan")
    return numerator / denominator


# ---------------------------------------------------------------------------
# Individual checks.

def _check_exodus(artifacts):
    fig1 = artifacts.fig1()
    ratio = _ratio(fig1.peak, max(fig1.trough_after_peak, 1))
    measured = (f"peak {fig1.peak}, trough {fig1.trough_after_peak} "
                f"({ratio:.1f}x collapse)")
    return measured, _status(ratio > 3.0)


def _check_exodus_before_remote(artifacts):
    fig1 = artifacts.fig1()
    # Devices already declining before instruction went fully online:
    # compare the pre-emergency plateau against the eve of break.
    early = fig1.total[:20].mean()
    eve_index = int((constants.BREAK_START - artifacts.dataset.day0) // DAY)
    eve = fig1.total[eve_index - 2:eve_index + 1].mean()
    measured = f"pre-pandemic mean {early:.0f} -> pre-break mean {eve:.0f}"
    return measured, _status(eve < 0.7 * early)


def _check_mobile_laptop_ratio(artifacts):
    fig1 = artifacts.fig1()
    mobile = fig1.by_class["mobile"][:20].mean()
    laptop = fig1.by_class["laptop_desktop"][:20].mean()
    if min(mobile, laptop) <= 0:
        return "a device class is empty", SKIP
    ratio = mobile / laptop
    measured = (f"pre-shutdown daily means: mobile {mobile:.0f}, "
                f"laptop/desktop {laptop:.0f} (ratio {ratio:.2f})")
    return measured, _status(0.4 < ratio < 2.5)


def _check_unclassified_prominent(artifacts):
    fig1 = artifacts.fig1()
    post = int((constants.BREAK_END - artifacts.dataset.day0) // DAY)
    unclassified = fig1.by_class["unclassified"][post:].mean()
    mobile = fig1.by_class["mobile"][post:].mean()
    laptop = fig1.by_class["laptop_desktop"][post:].mean()
    measured = (f"post-shutdown daily means: unclassified {unclassified:.0f},"
                f" mobile {mobile:.0f}, laptop/desktop {laptop:.0f}")
    return measured, _status(unclassified > 0.6 * max(mobile, laptop))


def _check_mean_median_skew(artifacts):
    fig2 = artifacts.fig2()
    skew = fig2.skew_ratio("iot")
    if math.isnan(skew):
        return "no IoT activity", SKIP
    return f"IoT mean/median ratio x{skew:.1f}", _status(skew > 1.5)


def _check_traffic_increase(artifacts):
    stats = artifacts.summary()
    value = stats.traffic_increase_feb_to_aprmay
    return f"{value:+.0%}", _status(0.25 < value < 1.2)


def _check_vs_2019(artifacts):
    stats = artifacts.summary()
    value = stats.traffic_increase_vs_2019
    if value is None:
        return "baseline not synthesized", SKIP
    return f"{value:+.0%}", _status(0.2 < value < 1.2)


def _check_distinct_sites(artifacts):
    stats = artifacts.summary()
    value = stats.distinct_sites_increase
    return f"{value:+.0%}", _status(0.15 < value < 0.7)


def _check_weekend_dips_persist(artifacts):
    fig1 = artifacts.fig1()
    day0 = artifacts.dataset.day0
    online = int((constants.BREAK_END - day0) // DAY)
    total = fig1.total[online:]
    # Fold the post-shutdown series into weeks; April 6 2020 (day 65)
    # is a Monday, so (index - offset) % 7 in {5, 6} marks weekends.
    offset = (online - 65) % 7
    indices = np.arange(total.size)
    weekend = ((indices - offset) % 7) >= 5
    weekday_mean = total[~weekend].mean()
    weekend_mean = total[weekend].mean()
    measured = (f"post-shutdown active devices: weekday {weekday_mean:.0f} "
                f"vs weekend {weekend_mean:.0f}")
    return measured, _status(weekday_mean > weekend_mean)


def _check_weekday_curve_shift(artifacts):
    fig3 = artifacts.fig3()
    daytime = np.r_[9:17, 33:41]  # the two weekday days of each week
    february = fig3.weeks["2020-02-20"][daytime].sum()
    april = fig3.weeks["2020-04-09"][daytime].sum()
    measured = f"weekday-daytime volume Feb {february:.0f} -> Apr {april:.0f}"
    return measured, _status(april > february)


def _check_international_share(artifacts):
    stats = artifacts.summary()
    value = stats.international_fraction
    measured = f"{stats.international_devices} devices ({value:.0%})"
    return measured, _status(0.05 < value < 0.45)


def _subpopulation_sizes(artifacts) -> Tuple[int, int]:
    """(#international, #domestic) personal post-shutdown devices."""
    classification = artifacts.classification
    personal = (classification.class_mask("mobile")
                | classification.class_mask("laptop_desktop"))
    post = artifacts.post_shutdown_mask & personal
    international = int((artifacts.international_mask & post).sum())
    return international, int(post.sum()) - international


def _check_break_elevation(artifacts):
    international_n, domestic_n = _subpopulation_sizes(artifacts)
    if min(international_n, domestic_n) < 8:
        return (f"sub-populations too small "
                f"(intl {international_n}, dom {domestic_n})"), SKIP
    fig4 = artifacts.fig4()
    n_days = study_day_count(artifacts.dataset)
    feb = month_day_mask(artifacts.dataset, 2020, 2, n_days)
    day0 = artifacts.dataset.day0
    break_days = np.zeros(n_days, dtype=bool)
    break_days[int((constants.BREAK_START - day0) // DAY):
               int((constants.BREAK_END - day0) // DAY)] = True
    intl_feb = fig4.series_mean("international", "mobile_desktop", feb)
    intl_break = fig4.series_mean("international", "mobile_desktop",
                                  break_days)
    dom_feb = fig4.series_mean("domestic", "mobile_desktop", feb)
    dom_break = fig4.series_mean("domestic", "mobile_desktop", break_days)
    if any(math.isnan(v) for v in (intl_feb, intl_break, dom_feb,
                                   dom_break)):
        return "sub-population empty at this scale", SKIP
    intl_rise = _ratio(intl_break, intl_feb)
    dom_rise = _ratio(dom_break, dom_feb)
    measured = (f"break/Feb median ratio: intl x{intl_rise:.2f}, "
                f"domestic x{dom_rise:.2f}")
    return measured, _status(intl_rise > dom_rise and intl_rise > 1.15)


def _check_international_stays_elevated(artifacts):
    international_n, _ = _subpopulation_sizes(artifacts)
    if international_n < 8:
        return f"only {international_n} international devices", SKIP
    fig4 = artifacts.fig4()
    n_days = study_day_count(artifacts.dataset)
    feb = month_day_mask(artifacts.dataset, 2020, 2, n_days)
    may = month_day_mask(artifacts.dataset, 2020, 5, n_days)
    intl_feb = fig4.series_mean("international", "mobile_desktop", feb)
    intl_may = fig4.series_mean("international", "mobile_desktop", may)
    if math.isnan(intl_feb) or math.isnan(intl_may):
        return "sub-population empty at this scale", SKIP
    measured = f"intl May/Feb median ratio x{_ratio(intl_may, intl_feb):.2f}"
    return measured, _status(intl_may > 1.1 * intl_feb)


def _check_zoom_ramp(artifacts):
    fig5 = artifacts.fig5()
    n_days = study_day_count(artifacts.dataset)
    feb = month_day_mask(artifacts.dataset, 2020, 2, n_days)
    apr = month_day_mask(artifacts.dataset, 2020, 4, n_days)
    february = fig5.daily_bytes[feb].sum()
    april = fig5.daily_bytes[apr].sum()
    measured = f"Zoom bytes Feb {february / 1e9:.1f}GB -> Apr {april / 1e9:.1f}GB"
    return measured, _status(april > 5 * max(february, 1.0))


def _check_zoom_class_hours(artifacts):
    fig5 = artifacts.fig5()
    share = fig5.weekday_business_share()
    if math.isnan(share):
        return "no Zoom traffic", SKIP
    return f"8am-6pm share {share:.0%}", _status(share > 0.6)


def _check_zoom_weekend_dips(artifacts):
    fig5 = artifacts.fig5()
    weekday = fig5.weekday_hourly.sum() / 5
    weekend = fig5.weekend_hourly.sum() / 2
    if weekday <= 0:
        return "no Zoom traffic", SKIP
    measured = (f"per-day Zoom bytes: weekday {weekday / 1e9:.1f}GB, "
                f"weekend {weekend / 1e9:.1f}GB")
    return measured, _status(weekend < weekday)


def _monthly(artifacts, platform, population):
    fig6 = artifacts.fig6()
    medians = fig6.monthly_medians(platform, population)
    counts = fig6.monthly_counts(platform, population)
    return medians, counts


def _check_facebook_domestic_may_drop(artifacts):
    medians, counts = _monthly(artifacts, "facebook", "domestic")
    if min(counts[0], counts[3]) < 8:
        return f"n too small ({counts})", SKIP
    measured = f"monthly medians (h): {['%.2f' % m for m in medians]}"
    return measured, _status(medians[3] < medians[0])


def _check_facebook_international_rise(artifacts):
    medians, counts = _monthly(artifacts, "facebook", "international")
    if min(counts[0], counts[2]) < 5:
        return f"n too small ({counts})", SKIP
    measured = f"monthly medians (h): {['%.2f' % m for m in medians]}"
    return measured, _status(max(medians[2], medians[3]) > medians[0])


def _check_instagram_international_may(artifacts):
    medians, counts = _monthly(artifacts, "instagram", "international")
    if min(counts[0], counts[3]) < 5:
        return f"n too small ({counts})", SKIP
    measured = f"monthly medians (h): {['%.2f' % m for m in medians]}"
    return measured, _status(medians[3] > medians[0])


def _check_tiktok_march_bump(artifacts):
    medians, counts = _monthly(artifacts, "tiktok", "domestic")
    # The paper's monthly samples run in the hundreds; below ~15 users
    # a median's month-over-month direction is sampling noise.
    if min(counts[0], counts[1]) < 15:
        return f"n too small ({counts})", SKIP
    measured = f"monthly medians (h): {['%.2f' % m for m in medians]}"
    return measured, _status(medians[1] > medians[0])


def _check_tiktok_adoption_grows(artifacts):
    _, counts = _monthly(artifacts, "tiktok", "domestic")
    if counts[0] == 0:
        return "no TikTok users at this scale", SKIP
    measured = f"monthly user counts: {counts}"
    return measured, _status(counts[3] >= counts[0])


def _check_tiktok_upper_quartiles_rise(artifacts):
    fig6 = artifacts.fig6()
    months = [fig6.stats["tiktok"]["domestic"].get(m)
              for m in constants.STUDY_MONTHS]
    if any(m is None or m.n < 15 for m in months):
        return "n too small", SKIP
    q3 = [m.q3 for m in months]
    measured = f"monthly Q3 (h): {['%.2f' % v for v in q3]}"
    return measured, _status(q3[3] > q3[0])


def _check_steam_march_spike(artifacts):
    fig7 = artifacts.fig7()
    for population in ("international", "domestic"):
        medians = fig7.monthly_medians("bytes", population)
        counts = fig7.monthly_counts(population)
        if min(counts) >= 3 and not any(math.isnan(m) for m in medians):
            measured = (f"{population} monthly byte medians (GB): "
                        f"{['%.1f' % (m / 1e9) for m in medians]}")
            ok = medians[1] > medians[0] and medians[3] < medians[1]
            return measured, _status(ok)
    return "Steam sub-populations too small", SKIP


def _check_steam_international_harder(artifacts):
    fig7 = artifacts.fig7()
    intl = fig7.monthly_medians("bytes", "international")
    dom = fig7.monthly_medians("bytes", "domestic")
    if any(math.isnan(v) for v in intl + dom):
        return "Steam sub-populations too small", SKIP
    # "International students increase their usage even more during
    # March and April" -- the spike peak may land in either month.
    intl_spike = _ratio(max(intl[1], intl[2]), intl[0])
    dom_spike = _ratio(max(dom[1], dom[2]), dom[0])
    measured = (f"peak(Mar,Apr)/Feb byte ratio: intl x{intl_spike:.1f}, "
                f"dom x{dom_spike:.1f}")
    return measured, _status(intl_spike > dom_spike)


def _check_steam_domestic_connections_decline(artifacts):
    fig7 = artifacts.fig7()
    conns = fig7.monthly_medians("connections", "domestic")
    if any(math.isnan(v) for v in conns):
        return "Steam sub-population too small", SKIP
    measured = f"monthly connection medians: {['%.0f' % v for v in conns]}"
    return measured, _status(conns[3] < conns[0])


def _check_steam_user_count_grows(artifacts):
    fig7 = artifacts.fig7()
    counts = fig7.monthly_counts("domestic")
    measured = f"monthly Steam device counts: {counts}"
    if counts[0] == 0:
        return measured, SKIP
    return measured, _status(counts[3] >= counts[0])


def _check_switch_census(artifacts):
    fig8 = artifacts.fig8()
    measured = (f"pre {fig8.switches_pre_shutdown}, "
                f"post {fig8.switches_post_shutdown}, "
                f"new {fig8.new_switches}")
    if fig8.switches_pre_shutdown < 5:
        return measured + " (too few Switches at this scale)", SKIP
    ok = (fig8.switches_pre_shutdown > fig8.switches_post_shutdown
          and fig8.switches_post_shutdown > 0)
    return measured, _status(ok)


def _check_switch_break_spike(artifacts):
    fig8 = artifacts.fig8()
    if fig8.cohort_size < 2:
        return f"cohort of {fig8.cohort_size} too small", SKIP
    day0 = artifacts.dataset.day0
    break_slice = slice(int((constants.BREAK_START - day0) // DAY),
                        int((constants.BREAK_END - day0) // DAY))
    feb_mean = fig8.smoothed[:29].mean()
    break_mean = fig8.smoothed[break_slice].mean()
    measured = (f"gameplay GB/day: Feb {feb_mean / 1e9:.2f}, "
                f"break {break_mean / 1e9:.2f}")
    return measured, _status(break_mean > 1.3 * feb_mean)


def _check_switch_late_may_rise(artifacts):
    fig8 = artifacts.fig8()
    if fig8.cohort_size < 5:
        return f"cohort of {fig8.cohort_size} too small", SKIP
    day0 = artifacts.dataset.day0
    online = int((constants.BREAK_END - day0) // DAY)
    mid_term = slice(online + 14, online + 35)   # the mid-term lull
    late_may = slice(107, 121)                   # the final two weeks
    mid = fig8.smoothed[mid_term].mean()
    late = fig8.smoothed[late_may].mean()
    measured = (f"gameplay GB/day: mid-term lull {mid / 1e9:.2f}, "
                f"late May {late / 1e9:.2f}")
    return measured, _status(late > mid)


# ---------------------------------------------------------------------------
# The checklist.

def paper_expectations() -> List[Expectation]:
    """The full list of encoded paper claims, in paper order."""
    E = Expectation
    return [
        E("fig1-exodus", "Fig. 1",
          "active devices collapse as students leave in March",
          "32,019 peak -> 4,973 trough (6.4x)", _check_exodus),
        E("fig1-early-leavers", "Fig. 1 / §4",
          "students start leaving before instruction goes fully remote",
          "visible decline pre-3/22", _check_exodus_before_remote),
        E("fig1-ratio", "Fig. 1 / §4",
          "desktop/laptop and mobile devices follow a roughly 1:1 ratio",
          "~1:1 pre-shutdown", _check_mobile_laptop_ratio),
        E("fig1-unclassified", "Fig. 1 / §4",
          "unclassified devices prominent among post-shutdown population",
          "unclassified dominates counts", _check_unclassified_prominent),
        E("fig2-skew", "Fig. 2 / §4",
          "means far exceed medians (heavy-hitter devices)",
          "orders of magnitude for IoT/unclassified",
          _check_mean_median_skew),
        E("stats-traffic", "§4.1",
          "post-shutdown users' traffic grows Feb -> Apr/May",
          "+58%", _check_traffic_increase),
        E("stats-2019", "§4.1",
          "Apr/May traffic exceeds the prior year's",
          "+53% vs 2019", _check_vs_2019),
        E("stats-sites", "§4.1",
          "users visit more distinct sites under lock-down",
          "+34%", _check_distinct_sites),
        E("fig1-weekends", "§4.1",
          "weekend dips persist through the lock-down",
          "dips visible all four months", _check_weekend_dips_persist),
        E("fig3-weekday", "Fig. 3",
          "lock-down weekdays ramp earlier and peak higher",
          "Apr/May weekday curves above Feb's",
          _check_weekday_curve_shift),
        E("stats-intl", "§4.2",
          "a meaningful minority of post-shutdown users is international",
          "1,022 devices (18%)", _check_international_share),
        E("fig4-break", "Fig. 4",
          "international traffic jumps during academic break",
          "largest inter-group gap during break", _check_break_elevation),
        E("fig4-elevated", "Fig. 4",
          "international traffic stays elevated through the term",
          "elevated relative to Feb into May",
          _check_international_stays_elevated),
        E("fig5-ramp", "Fig. 5",
          "Zoom explodes with the online term",
          "~0 pre-pandemic to 100s of GB/day", _check_zoom_ramp),
        E("fig5-hours", "Fig. 5 / §5.1",
          "weekday Zoom concentrates in 8am-6pm class hours",
          "most active 8am-6pm weekdays", _check_zoom_class_hours),
        E("fig5-weekend", "Fig. 5 / §5.1",
          "Zoom dips on weekends",
          "periodic weekend dips", _check_zoom_weekend_dips),
        E("fig6a-dom", "Fig. 6a",
          "domestic Facebook holds then declines in May",
          "May median below February's",
          _check_facebook_domestic_may_drop),
        E("fig6a-intl", "Fig. 6a",
          "international Facebook rises during the shutdown",
          "median increases", _check_facebook_international_rise),
        E("fig6b-intl", "Fig. 6b",
          "international Instagram rises by May",
          "May median above February's",
          _check_instagram_international_may),
        E("fig6c-march", "Fig. 6c",
          "domestic TikTok bumps in March",
          "March median above February's", _check_tiktok_march_bump),
        E("fig6c-adoption", "Fig. 6c",
          "TikTok's user count grows month over month",
          "n: 504 -> 715 (domestic)", _check_tiktok_adoption_grows),
        E("fig6c-quartiles", "Fig. 6c",
          "TikTok upper quartiles keep rising",
          "Q3/P99 increase steadily", _check_tiktok_upper_quartiles_rise),
        E("fig7a-spike", "Fig. 7a",
          "Steam bytes spike in March and fade by May",
          "March spike, May decline", _check_steam_march_spike),
        E("fig7a-intl", "Fig. 7a / §5.3.1",
          "international students' Steam spike is stronger",
          "larger March/April increase", _check_steam_international_harder),
        E("fig7b-conns", "Fig. 7b",
          "domestic Steam connection medians decline over the term",
          "monotone-ish decline", _check_steam_domestic_connections_decline),
        E("fig7-n", "Fig. 7",
          "the Steam-visiting device count grows",
          "n: 681 -> 1,243 (domestic)", _check_steam_user_count_grows),
        E("fig8-census", "§5.3.2",
          "the Switch census collapses, with some new consoles appearing",
          "1,097 -> 267, 40 new", _check_switch_census),
        E("fig8-break", "Fig. 8",
          "Switch gameplay spikes over break/early term",
          "heavy spikes during break", _check_switch_break_spike),
        E("fig8-boredom", "Fig. 8",
          "gameplay rises again in late May",
          "rise after the mid-term lull", _check_switch_late_may_rise),
    ]


def evaluate_all(artifacts) -> List[Outcome]:
    """Check every paper expectation against a finished study."""
    return [expectation.evaluate(artifacts)
            for expectation in paper_expectations()]


def outcomes_payload(outcomes: List[Outcome]) -> dict:
    """Outcomes as a JSON-safe mapping keyed by expectation id.

    This is the ``outcomes`` artifact the results store serves and the
    shape ``repro eval`` baselines commit: stable keys, the full
    outcome record per id, and a status tally for quick reads.
    """
    table = {
        outcome.expectation_id: {
            "figure": outcome.figure,
            "claim": outcome.claim,
            "paper_value": outcome.paper_value,
            "measured": outcome.measured,
            "status": outcome.status,
        }
        for outcome in outcomes
    }
    counts = {
        status: sum(1 for o in outcomes if o.status == status)
        for status in (PASS, FAIL, SKIP)
    }
    return {"schema": 1, "counts": counts, "outcomes": table}


def render_outcomes(outcomes: List[Outcome]) -> str:
    """Render outcomes as a Markdown table (EXPERIMENTS.md body)."""
    lines = [
        "| id | figure | paper claim | paper value | measured | status |",
        "|---|---|---|---|---|---|",
    ]
    for outcome in outcomes:
        lines.append(
            f"| {outcome.expectation_id} | {outcome.figure} "
            f"| {outcome.claim} | {outcome.paper_value} "
            f"| {outcome.measured} | {outcome.status} |")
    passed = sum(1 for o in outcomes if o.status == PASS)
    skipped = sum(1 for o in outcomes if o.status == SKIP)
    failed = sum(1 for o in outcomes if o.status == FAIL)
    lines.append("")
    lines.append(f"**{passed} PASS, {skipped} SKIP (insufficient scale), "
                 f"{failed} FAIL** out of {len(outcomes)} encoded claims.")
    return "\n".join(lines)
