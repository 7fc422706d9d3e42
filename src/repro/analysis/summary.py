"""Headline statistics from Sections 4 and 5.

The scalar findings the paper reports in prose:

* peak pre-shutdown and trough active-device counts (32,019 / 4,973);
* the number of post-shutdown users (6,522 devices);
* total traffic of post-shutdown users up 58% from February into
  April/May, and 53% over the same weeks of 2019;
* 34% more distinct sites per user in April/May than February;
* 1,022 devices (18% of post-shutdown users) presumed international.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.analysis.common import month_day_mask, study_day_count
from repro.pipeline.dataset import FlowDataset

if TYPE_CHECKING:
    from repro.analysis.context import AnalysisContext


@dataclass
class SummaryStats:
    """The headline numbers of the study."""

    peak_active_devices: int
    trough_active_devices: int
    post_shutdown_devices: int
    international_devices: int
    international_fraction: float
    feb_total_bytes: float
    aprmay_total_bytes: float
    traffic_increase_feb_to_aprmay: float
    distinct_sites_feb: float
    distinct_sites_aprmay: float
    distinct_sites_increase: float
    #: Filled by :func:`traffic_vs_baseline` when a 2019 baseline exists.
    traffic_increase_vs_2019: Optional[float] = None
    #: Telemetry-coverage health of the run behind these numbers: how
    #: many study days had any source below full coverage, and the
    #: worst per-day fraction (1.0 on a clean run).
    coverage_affected_days: int = 0
    coverage_min_fraction: float = 1.0

    #: The aggregates ``repro eval`` gates on, in declaration order.
    #: Adding a field here makes it part of every future baseline.
    METRIC_KEYS = (
        "peak_active_devices",
        "trough_active_devices",
        "post_shutdown_devices",
        "international_devices",
        "international_fraction",
        "feb_total_bytes",
        "aprmay_total_bytes",
        "traffic_increase_feb_to_aprmay",
        "distinct_sites_feb",
        "distinct_sites_aprmay",
        "distinct_sites_increase",
        "traffic_increase_vs_2019",
        "coverage_affected_days",
        "coverage_min_fraction",
    )

    def metrics(self) -> Dict[str, Optional[float]]:
        """Every headline aggregate as a JSON-safe mapping.

        The key set is :attr:`METRIC_KEYS`, pinned by tests; NaN and
        absent optionals serialize as ``None`` ("no value at this
        scale"), which the eval comparator treats as SKIP when the
        baseline agrees and as a regression when it does not.
        """
        payload: Dict[str, Optional[float]] = {}
        for key in self.METRIC_KEYS:
            value = getattr(self, key)
            if value is None or (isinstance(value, float)
                                 and not math.isfinite(value)):
                payload[key] = None
            else:
                payload[key] = value
        return payload


def compute_summary(dataset: FlowDataset,
                    total_active_per_day: np.ndarray,
                    post_shutdown_mask: np.ndarray,
                    international_mask: np.ndarray,
                    n_days: int = 0,
                    ctx: Optional["AnalysisContext"] = None) -> SummaryStats:
    """Compute the headline numbers (2019 comparison attached separately)."""
    from repro.analysis.context import AnalysisContext

    if n_days <= 0:
        n_days = study_day_count(dataset)
    if ctx is None:
        ctx = AnalysisContext(dataset)

    peak_index = int(total_active_per_day.argmax())
    peak = int(total_active_per_day[peak_index])
    trough = int(total_active_per_day[peak_index:].min())

    post_count = int(post_shutdown_mask.sum())
    international_count = int(
        (international_mask & post_shutdown_mask).sum())

    matrix = ctx.day_matrix(n_days)
    cohort = matrix[post_shutdown_mask]
    feb_days = month_day_mask(dataset, 2020, 2, n_days)
    apr_days = month_day_mask(dataset, 2020, 4, n_days)
    may_days = month_day_mask(dataset, 2020, 5, n_days)

    feb_daily = cohort[:, feb_days].sum() / max(feb_days.sum(), 1)
    aprmay_mask = apr_days | may_days
    aprmay_daily = cohort[:, aprmay_mask].sum() / max(aprmay_mask.sum(), 1)
    increase = (aprmay_daily / feb_daily - 1.0) if feb_daily > 0 else float("nan")

    sites_feb = ctx.mean_distinct_sites(post_shutdown_mask, ((2020, 2),))
    sites_aprmay = ctx.mean_distinct_sites(post_shutdown_mask,
                                           ((2020, 4), (2020, 5)))
    sites_increase = (sites_aprmay / sites_feb - 1.0) if sites_feb > 0 else float("nan")

    # Coverage health: kernel-independent (pure interval arithmetic),
    # so the kernel/reference parity tests stay unaffected.
    day_coverage = ctx.day_coverage(n_days)
    coverage_affected_days = 0
    coverage_min_fraction = 1.0
    if day_coverage is not None and day_coverage.size:
        coverage_affected_days = int((day_coverage < 1.0).sum())
        coverage_min_fraction = float(day_coverage.min())

    return SummaryStats(
        peak_active_devices=peak,
        trough_active_devices=trough,
        post_shutdown_devices=post_count,
        international_devices=international_count,
        international_fraction=(international_count / post_count
                                if post_count else 0.0),
        feb_total_bytes=float(cohort[:, feb_days].sum()),
        aprmay_total_bytes=float(cohort[:, aprmay_mask].sum()),
        traffic_increase_feb_to_aprmay=float(increase),
        distinct_sites_feb=sites_feb,
        distinct_sites_aprmay=sites_aprmay,
        distinct_sites_increase=float(sites_increase),
        coverage_affected_days=coverage_affected_days,
        coverage_min_fraction=coverage_min_fraction,
    )


def traffic_vs_baseline(study_aprmay_bytes: float,
                        baseline_aprmay_bytes: float) -> float:
    """Fractional increase of study-period traffic over the baseline.

    The baseline is the same device cohort simulated over the same
    weeks of the prior year under pre-pandemic behaviour (the paper
    compares April/May 2020 against 2019).
    """
    if baseline_aprmay_bytes <= 0:
        return float("nan")
    return study_aprmay_bytes / baseline_aprmay_bytes - 1.0
