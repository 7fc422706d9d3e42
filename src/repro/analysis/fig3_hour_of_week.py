"""Figure 3: normalized median per-device traffic per hour of week.

Four sample weeks (each starting on a Thursday, matching the paper's
axis): 2/20, 3/19, 4/9 and 5/14 of 2020. The lock-down weeks show the
weekday curve ramping earlier and peaking higher while weekends stay
essentially unchanged. Values are normalized by the minimum positive
hourly median across all weeks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro import constants
from repro.pipeline.dataset import FlowDataset
from repro.util.timeutil import HOUR, WEEK, format_day

HOURS_PER_WEEK = 168


@dataclass
class Fig3Result:
    """Hour-of-week normalized median volume per sample week."""

    #: Week label (ISO date of the week's first day) -> 168 values.
    weeks: Dict[str, np.ndarray]
    #: Hour labels 0..167 relative to each week's start day.
    hour_of_week: np.ndarray


def compute_fig3(dataset: FlowDataset,
                 week_starts: Sequence[float] = constants.FIGURE3_WEEKS,
                 device_mask: Optional[np.ndarray] = None,
                 estimator: str = "per_capita") -> Fig3Result:
    """Per-device hourly volume for each sample week, normalized.

    ``device_mask`` restricts the device population (the paper's
    post-shutdown users keep week-over-week comparisons demographically
    stable).

    ``estimator`` selects the per-hour statistic:

    * ``"median"`` -- the paper's estimator: median across devices with
      traffic in the hour. Faithful, but at laptop-scale populations
      (hundreds of devices rather than the paper's thousands) hourly
      medians are dominated by sampling noise.
    * ``"per_capita"`` (default) -- hourly bytes divided by the number
      of devices active in the hour's week; a stable estimator of the
      same diurnal shape at small scale.
    """
    if estimator not in ("median", "per_capita"):
        raise ValueError(f"unknown estimator {estimator!r}")
    raw: Dict[str, np.ndarray] = {}
    for week_start in week_starts:
        label = format_day(week_start)
        if estimator == "median":
            raw[label] = _hourly_medians(dataset, week_start, device_mask)
        else:
            raw[label] = _hourly_per_capita(dataset, week_start, device_mask)

    # One normalization constant across all weeks, per the paper.
    stacked = np.concatenate(list(raw.values()))
    positive = stacked[stacked > 0]
    scale = positive.min() if positive.size else 1.0

    return Fig3Result(
        weeks={label: values / scale for label, values in raw.items()},
        hour_of_week=np.arange(HOURS_PER_WEEK),
    )


def _hourly_per_capita(dataset: FlowDataset, week_start: float,
                       device_mask: Optional[np.ndarray]) -> np.ndarray:
    """Hourly bytes over the week, per device active in that week."""
    in_week = (dataset.ts >= week_start) & (dataset.ts < week_start + WEEK)
    if device_mask is not None:
        in_week &= device_mask[dataset.device]
    hours = ((dataset.ts[in_week] - week_start) // HOUR).astype(np.int64)
    flow_bytes = dataset.total_bytes[in_week].astype(np.float64)
    totals = np.bincount(hours, weights=flow_bytes,
                         minlength=HOURS_PER_WEEK)[:HOURS_PER_WEEK]
    active_devices = np.unique(dataset.device[in_week]).size
    if active_devices == 0:
        return np.zeros(HOURS_PER_WEEK)
    return totals / active_devices


def _hourly_medians(dataset: FlowDataset, week_start: float,
                    device_mask: Optional[np.ndarray]) -> np.ndarray:
    in_week = (dataset.ts >= week_start) & (dataset.ts < week_start + WEEK)
    if device_mask is not None:
        in_week &= device_mask[dataset.device]

    hours = ((dataset.ts[in_week] - week_start) // HOUR).astype(np.int64)
    devices = dataset.device[in_week].astype(np.int64)
    flow_bytes = dataset.total_bytes[in_week].astype(np.float64)

    medians = np.zeros(HOURS_PER_WEEK)
    if hours.size == 0:
        return medians

    # Per (hour, device) totals, then the median across devices that
    # produced traffic in the hour.
    keys = hours * dataset.n_devices + devices
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    bytes_sorted = flow_bytes[order]
    boundaries = np.flatnonzero(np.diff(keys_sorted)) + 1
    group_starts = np.concatenate(([0], boundaries))
    group_keys = keys_sorted[group_starts]
    group_totals = np.add.reduceat(bytes_sorted, group_starts)

    group_hours = (group_keys // dataset.n_devices).astype(np.int64)
    for hour in range(HOURS_PER_WEEK):
        totals = group_totals[group_hours == hour]
        if totals.size:
            medians[hour] = float(np.median(totals))
    return medians
