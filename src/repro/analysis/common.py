"""Shared aggregation helpers for the figure analyses."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import constants
from repro.perf.kernels import DayBitmap, build_day_bitmap
from repro.pipeline.dataset import FlowDataset
from repro.util.timeutil import DAY, month_bounds


def study_day_count(dataset: FlowDataset,
                    end_ts: float = constants.STUDY_END) -> int:
    """Number of day slots between the dataset origin and the window end."""
    return int(np.ceil((end_ts - dataset.day0) / DAY))


def day_timestamps(dataset: FlowDataset, n_days: int) -> np.ndarray:
    """Start timestamp of each day slot."""
    return dataset.day0 + np.arange(n_days) * DAY


def per_device_day_bytes(dataset: FlowDataset,
                         n_days: int,
                         flow_mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense (n_devices, n_days) byte matrix, flows binned by start day.

    Flows outside [0, n_days) day slots are ignored (e.g. baseline
    periods processed with a different origin).
    """
    device = dataset.device
    day = dataset.day
    flow_bytes = dataset.total_bytes
    if flow_mask is not None:
        device = device[flow_mask]
        day = day[flow_mask]
        flow_bytes = flow_bytes[flow_mask]
    in_range = (day >= 0) & (day < n_days)
    device = device[in_range]
    day = day[in_range]
    flow_bytes = flow_bytes[in_range].astype(np.float64)

    flat = device.astype(np.int64) * n_days + day
    totals = np.bincount(flat, weights=flow_bytes,
                         minlength=dataset.n_devices * n_days)
    return totals.reshape(dataset.n_devices, n_days)


def month_day_mask(dataset: FlowDataset, year: int, month: int,
                   n_days: int) -> np.ndarray:
    """Boolean day-slot mask for one calendar month."""
    start, end = month_bounds(year, month)
    days = day_timestamps(dataset, n_days)
    return (days >= start) & (days < end)


def device_day_bitmap(dataset: FlowDataset) -> DayBitmap:
    """Dense device-by-day activity bitmap from the device profiles.

    One pass over the per-device ``days_seen`` sets; every activity
    question afterwards (:func:`post_shutdown_device_mask`,
    :meth:`~repro.analysis.context.AnalysisContext.active_in_months`,
    the Figure 8 census) is a bitmap
    slice. :class:`~repro.analysis.context.AnalysisContext` caches one
    bitmap per dataset so a study run builds it at most once.
    """
    return build_day_bitmap(dataset.devices)


def post_shutdown_device_mask(dataset: FlowDataset,
                              cutoff_ts: float = constants.BREAK_END,
                              bitmap: Optional[DayBitmap] = None,
                              ) -> np.ndarray:
    """Devices with activity on or after the shutdown cutoff.

    The paper's "post-shutdown users": the 6,522 devices that remained
    on campus after the shutdown. We operationalize "after the
    shutdown" as any active day on or after the resumption of (online)
    classes.
    """
    cutoff_day = int((cutoff_ts - dataset.day0) // DAY)
    if bitmap is None:
        bitmap = device_day_bitmap(dataset)
    return bitmap.any_on_or_after(cutoff_day)


def month_day_range(dataset: FlowDataset, year: int, month: int,
                    ) -> Tuple[int, int]:
    """Half-open day-index interval of one calendar month."""
    start, end = month_bounds(year, month)
    return (int((start - dataset.day0) // DAY),
            int((end - dataset.day0) // DAY))
