"""Extension analyses beyond the paper's figures.

Three follow-on questions the paper motivates but does not plot:

* **Work/leisure mix** (Section 1 frames the study as "how work and
  leisure changed"): monthly byte shares of work applications (Zoom,
  education tools) versus leisure classes (social, streaming, gaming).
* **Diurnal convergence** (Section 2 contrasts Feldmann et al., who saw
  weekday patterns converge to weekend patterns network-wide, a trend
  "not apparent in our population"): a per-month similarity score
  between weekday and weekend hour-of-day profiles.
* **Departure waves** (Section 4 narrates the March exodus): per-device
  last-activity inference and the weekly histogram of departures.

It lives beside ``beyond_the_paper.py``, its one caller, rather than in
the ``repro`` package: no figure, artifact or command uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import constants
from repro.dns.domains import matches_suffix
from repro.pipeline.dataset import FlowDataset
from repro.util.timeutil import DAY, HOUR, is_weekend, month_bounds

# ---------------------------------------------------------------------------
# Work/leisure application mix.

#: Domain suffixes per coarse activity category. "work" covers the
#: online-instruction stack; "leisure" the entertainment platforms the
#: paper studies; everything else (including unannotated flows) is
#: "other".
CATEGORY_DOMAINS: Dict[str, Tuple[str, ...]] = {
    "work": (
        "zoom.us", "zoomcdn.net",
        "instructure.com", "piazza.com", "gradescope.com", "ucsd.edu",
    ),
    "leisure": (
        "facebook.com", "facebook.net", "fbcdn.net",
        "instagram.com", "cdninstagram.com",
        "tiktok.com", "tiktokv.com", "tiktokcdn.com", "muscdn.com",
        "twitter.com", "twimg.com", "snapchat.com", "sc-cdn.net",
        "discord.com", "discord.gg",
        "youtube.com", "googlevideo.com",
        "netflix.com", "nflxvideo.net", "hulu.com", "hulustream.com",
        "spotify.com", "scdn.co",
        "steampowered.com", "steamcommunity.com", "steamstatic.com",
        "steamcontent.com", "steamusercontent.com",
        "nintendo.net", "nintendo.com", "meridian-games.com",
        "bilibili.com", "hdslb.com", "iqiyi.com", "163.com",
        "hotstar.com",
    ),
}


@dataclass
class ApplicationMix:
    """Monthly byte shares per activity category."""

    #: (year, month) -> {category: share in [0, 1]}.
    shares: Dict[Tuple[int, int], Dict[str, float]]
    #: (year, month) -> total bytes that month.
    totals: Dict[Tuple[int, int], float]

    def share_series(self, category: str) -> List[float]:
        """Shares across the study months, in calendar order."""
        return [self.shares.get(month, {}).get(category, 0.0)
                for month in constants.STUDY_MONTHS]


def compute_application_mix(dataset: FlowDataset,
                            device_mask: Optional[np.ndarray] = None,
                            ) -> ApplicationMix:
    """Monthly work/leisure/other byte shares for (masked) devices."""
    category_of_domain = np.zeros(len(dataset.domains), dtype=np.int8)
    for code, category in enumerate(("work", "leisure"), start=1):
        for index, domain in enumerate(dataset.domains):
            if matches_suffix(domain, CATEGORY_DOMAINS[category]):
                category_of_domain[index] = code

    flow_category = np.zeros(len(dataset), dtype=np.int8)
    annotated = dataset.domain >= 0
    flow_category[annotated] = category_of_domain[dataset.domain[annotated]]

    eligible = np.ones(len(dataset), dtype=bool)
    if device_mask is not None:
        eligible = device_mask[dataset.device]

    flow_bytes = dataset.total_bytes.astype(np.float64)
    shares: Dict[Tuple[int, int], Dict[str, float]] = {}
    totals: Dict[Tuple[int, int], float] = {}
    for month in constants.STUDY_MONTHS:
        start, end = month_bounds(*month)
        in_month = eligible & (dataset.ts >= start) & (dataset.ts < end)
        total = float(flow_bytes[in_month].sum())
        totals[month] = total
        if total <= 0:
            shares[month] = {"work": 0.0, "leisure": 0.0, "other": 0.0}
            continue
        work = float(flow_bytes[in_month & (flow_category == 1)].sum())
        leisure = float(flow_bytes[in_month & (flow_category == 2)].sum())
        shares[month] = {
            "work": work / total,
            "leisure": leisure / total,
            "other": 1.0 - (work + leisure) / total,
        }
    return ApplicationMix(shares=shares, totals=totals)


# ---------------------------------------------------------------------------
# Weekday/weekend diurnal similarity (the Feldmann et al. contrast).

@dataclass
class DiurnalConvergence:
    """Cosine similarity of weekday vs weekend hourly profiles."""

    #: (year, month) -> similarity in [0, 1] (NaN when a side is empty).
    similarity: Dict[Tuple[int, int], float]
    #: (year, month) -> (weekday profile, weekend profile), 24 bins each.
    profiles: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]]

    def series(self) -> List[float]:
        return [self.similarity.get(month, float("nan"))
                for month in constants.STUDY_MONTHS]


def compute_diurnal_convergence(dataset: FlowDataset,
                                device_mask: Optional[np.ndarray] = None,
                                ) -> DiurnalConvergence:
    """Per-month similarity between weekday and weekend diurnal shapes.

    Feldmann et al. report pandemic weekdays converging toward weekend
    patterns at ISP scale; the paper notes this is *not* apparent in
    the dorm population. A similarity that stays well below 1 (and does
    not jump toward it in April/May) reproduces that observation.
    """
    eligible = np.ones(len(dataset), dtype=bool)
    if device_mask is not None:
        eligible = device_mask[dataset.device]

    hours = ((dataset.ts % DAY) // HOUR).astype(np.int64)
    weekend_flow = np.array([is_weekend(ts) for ts in dataset.ts],
                            dtype=bool)
    flow_bytes = dataset.total_bytes.astype(np.float64)

    similarity: Dict[Tuple[int, int], float] = {}
    profiles: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
    for month in constants.STUDY_MONTHS:
        start, end = month_bounds(*month)
        in_month = eligible & (dataset.ts >= start) & (dataset.ts < end)
        weekday_profile = np.bincount(
            hours[in_month & ~weekend_flow],
            weights=flow_bytes[in_month & ~weekend_flow], minlength=24)
        weekend_profile = np.bincount(
            hours[in_month & weekend_flow],
            weights=flow_bytes[in_month & weekend_flow], minlength=24)
        profiles[month] = (weekday_profile, weekend_profile)
        similarity[month] = _cosine(weekday_profile, weekend_profile)
    return DiurnalConvergence(similarity=similarity, profiles=profiles)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    norm = float(np.linalg.norm(a) * np.linalg.norm(b))
    if norm <= 0:
        return float("nan")
    return float(np.dot(a, b) / norm)


# ---------------------------------------------------------------------------
# Departure-wave inference.

@dataclass
class DepartureWaves:
    """Inferred departure timing of the device population."""

    #: Day index (from dataset.day0) each device was last active.
    last_active_day: np.ndarray
    #: Histogram of departures per calendar week of the study window
    #: (devices still active in the final week are not departures).
    weekly_departures: np.ndarray
    #: Day index each histogram week starts at.
    week_starts: np.ndarray
    #: Devices active into the final week (the remainers).
    remainer_count: int


def compute_departure_waves(dataset: FlowDataset,
                            n_days: int = 0) -> DepartureWaves:
    """Infer when devices left, from their last activity day."""
    if n_days <= 0:
        from repro.analysis.common import study_day_count
        n_days = study_day_count(dataset)
    last_active = np.array(
        [max(profile.days_seen) if profile.days_seen else -1
         for profile in dataset.devices], dtype=np.int64)

    final_week_start = n_days - 7
    remainers = last_active >= final_week_start
    departures = last_active[~remainers & (last_active >= 0)]

    n_weeks = (n_days + 6) // 7
    weekly = np.zeros(n_weeks, dtype=np.int64)
    for day in departures:
        weekly[min(int(day) // 7, n_weeks - 1)] += 1
    return DepartureWaves(
        last_active_day=last_active,
        weekly_departures=weekly,
        week_starts=np.arange(n_weeks) * 7,
        remainer_count=int(remainers.sum()),
    )
