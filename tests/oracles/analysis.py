"""Pure-Python analysis oracles and the context built on them.

Each function here re-computes, with per-element Python loops, a
primitive the production analysis layer computes with the vectorized
kernels of :mod:`repro.perf.kernels`. :class:`ReferenceAnalysisContext`
overrides the memoized builders of
:class:`~repro.analysis.context.AnalysisContext` with them, so
``tests/analysis/test_context.py::TestGoldenFigures`` can run every
figure and the summary on both and compare.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import constants
from repro.analysis.common import month_day_range
from repro.analysis.context import AnalysisContext, _freeze
from repro.apps.signature import AppSignature
from repro.dns.domains import site_of
from repro.pipeline.dataset import FlowDataset
from repro.sessions.stitch import DEFAULT_SLACK_SECONDS, StitchedSession
from repro.util.timeutil import DAY, month_bounds


def stitch_sessions_reference(dataset: FlowDataset,
                              flow_mask: np.ndarray,
                              marker_mask: Optional[np.ndarray] = None,
                              slack: float = DEFAULT_SLACK_SECONDS,
                              ) -> Dict[int, List[StitchedSession]]:
    """Pure-Python per-flow walk; the golden reference for
    :func:`repro.sessions.stitch.stitch_sessions`."""
    if marker_mask is None:
        marker_mask = np.zeros(len(dataset), dtype=bool)

    selected = np.flatnonzero(flow_mask)
    if selected.size == 0:
        return {}

    device = dataset.device[selected]
    start = dataset.ts[selected]
    end = start + dataset.duration[selected]
    flow_bytes = dataset.total_bytes[selected]
    marked = marker_mask[selected]

    order = np.lexsort((start, device))
    sessions: Dict[int, List[StitchedSession]] = {}

    current_device = -1
    cur_start = cur_end = 0.0
    cur_bytes = 0
    cur_flows = 0
    cur_marked = False

    def _flush() -> None:
        if cur_flows:
            sessions.setdefault(current_device, []).append(StitchedSession(
                device=current_device,
                start=cur_start,
                end=cur_end,
                total_bytes=int(cur_bytes),
                flow_count=cur_flows,
                marked=cur_marked,
            ))

    for row in order:
        dev = int(device[row])
        flow_start = float(start[row])
        flow_end = float(end[row])
        if dev != current_device or flow_start > cur_end + slack:
            _flush()
            current_device = dev
            cur_start, cur_end = flow_start, flow_end
            cur_bytes = int(flow_bytes[row])
            cur_flows = 1
            cur_marked = bool(marked[row])
        else:
            cur_end = max(cur_end, flow_end)
            cur_bytes += int(flow_bytes[row])
            cur_flows += 1
            cur_marked = cur_marked or bool(marked[row])
    _flush()

    return sessions


def domain_table_reference(signature: AppSignature,
                           domains) -> np.ndarray:
    """Pure-Python counterpart of :meth:`AppSignature.domain_table`."""
    return np.array(
        [signature.matches_domain(domain) for domain in domains],
        dtype=bool)


def domain_mask_reference(signature: AppSignature,
                          dataset: FlowDataset) -> np.ndarray:
    """Pure-Python reference for :meth:`AppSignature.domain_mask`."""
    table = domain_table_reference(signature, dataset.domains)
    mask = np.zeros(len(dataset), dtype=bool)
    annotated = dataset.domain >= 0
    if table.size:
        mask[annotated] = table[dataset.domain[annotated]]
    return mask


def flow_mask_reference(signature: AppSignature,
                        dataset: FlowDataset) -> np.ndarray:
    """Pure-Python reference for :meth:`AppSignature.flow_mask`."""
    return domain_mask_reference(signature, dataset) | signature.ip_mask(
        dataset)


def post_shutdown_device_mask_reference(dataset: FlowDataset,
                                        cutoff_ts: float = constants.BREAK_END,
                                        ) -> np.ndarray:
    """Pure-Python reference for
    :func:`repro.analysis.common.post_shutdown_device_mask`."""
    cutoff_day = int((cutoff_ts - dataset.day0) // DAY)
    return np.array(
        [any(day >= cutoff_day for day in profile.days_seen)
         for profile in dataset.devices],
        dtype=bool)


def devices_active_in_months_reference(
        dataset: FlowDataset,
        months: Tuple[Tuple[int, int], ...]) -> np.ndarray:
    """Pure-Python reference for
    :meth:`repro.analysis.context.AnalysisContext.active_in_months`."""
    if not months:
        raise ValueError("at least one month is required")
    masks = []
    for year, month in months:
        start_day, end_day = month_day_range(dataset, year, month)
        masks.append(np.array(
            [any(start_day <= day < end_day for day in profile.days_seen)
             for profile in dataset.devices],
            dtype=bool))
    result = masks[0]
    for mask in masks[1:]:
        result = result & mask
    return result


def mean_distinct_sites_reference(dataset: FlowDataset,
                                  device_mask: np.ndarray,
                                  months) -> float:
    """Pure-Python pair-set reference for
    :meth:`AnalysisContext.mean_distinct_sites`."""
    site_of_domain = [site_of(domain) for domain in dataset.domains]
    eligible_flows = device_mask[dataset.device] & (dataset.domain >= 0)

    monthly_means = []
    for year, month in months:
        start, end = month_bounds(year, month)
        in_month = eligible_flows & (dataset.ts >= start) & (dataset.ts < end)
        pairs = set()
        devices = dataset.device[in_month]
        domains = dataset.domain[in_month]
        for device, domain_idx in zip(devices, domains):
            site = site_of_domain[domain_idx]
            if site is not None:
                pairs.add((int(device), site))
        active_devices = {device for device, _ in pairs}
        if active_devices:
            monthly_means.append(len(pairs) / len(active_devices))
    if not monthly_means:
        return float("nan")
    return float(np.mean(monthly_means))


class ReferenceAnalysisContext(AnalysisContext):
    """:class:`AnalysisContext` whose builders run the pure-Python
    references: same memoization, same interface, same results."""

    def domain_table(self, signature: AppSignature) -> np.ndarray:
        with self._lock:
            table = self._tables.get(signature)
            if table is None:
                self._count(f"domain_table:{signature.name}")
                table = domain_table_reference(signature,
                                               self.dataset.domains)
                self._tables[signature] = _freeze(table)
            return table

    def _domain_mask(self, signature: AppSignature) -> np.ndarray:
        return domain_mask_reference(signature, self.dataset)

    def active_on_or_after(self, day: int) -> np.ndarray:
        return self._device_mask(
            "on_or_after", day,
            lambda: np.array(
                [any(d >= day for d in p.days_seen)
                 for p in self.dataset.devices], dtype=bool))

    def active_before(self, day: int) -> np.ndarray:
        return self._device_mask(
            "before", day,
            lambda: np.array(
                [any(d < day for d in p.days_seen)
                 for p in self.dataset.devices], dtype=bool))

    def first_active_on_or_after(self, day: int) -> np.ndarray:
        return self._device_mask(
            "first_on_or_after", day,
            lambda: np.array(
                [bool(p.days_seen) and min(p.days_seen) >= day
                 for p in self.dataset.devices], dtype=bool))

    def active_in_months(self,
                         months: Tuple[Tuple[int, int], ...]) -> np.ndarray:
        return self._device_mask(
            "in_months", tuple(months),
            lambda: devices_active_in_months_reference(self.dataset,
                                                       tuple(months)))

    def stitch(self, key: str, flow_mask: np.ndarray,
               marker_mask: Optional[np.ndarray] = None,
               slack: float = 60.0) -> Dict[int, List[StitchedSession]]:
        with self._lock:
            sessions = self._sessions.get((key, slack))
            if sessions is None:
                self._count(f"stitch:{key}")
                sessions = stitch_sessions_reference(
                    self.dataset, flow_mask, marker_mask=marker_mask,
                    slack=slack)
                self._sessions[(key, slack)] = sessions
            return sessions

    def mean_distinct_sites(self, device_mask: np.ndarray,
                            months: Sequence[Tuple[int, int]]) -> float:
        return mean_distinct_sites_reference(self.dataset, device_mask,
                                             months)
