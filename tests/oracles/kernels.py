"""Pure-Python reference twins for every public kernel.

Each ``<kernel>_reference`` here re-computes what its numpy twin in
:mod:`repro.perf.kernels` computes, using per-element Python loops
whose correctness is obvious by inspection.  The twins exist to be
*compared against*: the parity suite in
``tests/perf/test_kernel_references.py`` holds every pair bit-identical
over seeded inputs, and the RL003 lint rule fails the build if a public
kernel ever ships without its twin here (or with a twin no other test
module calls).

References favour clarity over speed.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set

import numpy as np

from repro.perf.kernels import DayBitmap, DaysSeenEntry, SessionSegments


def domain_str_array_reference(domains: Sequence[str]) -> np.ndarray:
    """Per-element twin of :func:`repro.perf.kernels.domain_str_array`."""
    if len(domains) == 0:
        return np.empty(0, dtype=np.str_)
    width = max(len(domain) for domain in domains)
    out = np.empty(len(domains), dtype=f"<U{max(width, 1)}")
    for index, domain in enumerate(domains):
        out[index] = domain
    return out


def suffix_match_table_reference(domain_arr: np.ndarray,
                                 suffixes: Sequence[str]) -> np.ndarray:
    """Per-domain loop twin of :func:`repro.perf.kernels.
    suffix_match_table`."""
    table = np.zeros(domain_arr.shape[0], dtype=bool)
    for index in range(domain_arr.shape[0]):
        domain = str(domain_arr[index])
        table[index] = any(
            domain == suffix or domain.endswith("." + suffix)
            for suffix in suffixes)
    return table


def table_flow_mask_reference(flow_domain: np.ndarray,
                              table: np.ndarray,
                              no_domain: int = -1) -> np.ndarray:
    """Per-flow loop twin of :func:`repro.perf.kernels.table_flow_mask`."""
    mask = np.zeros(flow_domain.shape[0], dtype=bool)
    if table.size == 0:
        return mask
    for index in range(flow_domain.shape[0]):
        domain_id = int(flow_domain[index])
        if domain_id > no_domain:
            mask[index] = bool(table[domain_id])
    return mask


def build_day_bitmap_reference(
        days_seen_sets: Iterable[DaysSeenEntry]) -> DayBitmap:
    """Per-set loop twin of :func:`repro.perf.kernels.build_day_bitmap`."""
    sets: List[Set[int]] = [
        set(profile.days_seen) if hasattr(profile, "days_seen")
        else set(profile)
        for profile in days_seen_sets
    ]
    n = len(sets)
    if n == 0:
        return DayBitmap(active=np.zeros((0, 0), dtype=bool), min_day=0)
    all_days = [day for days in sets for day in days]
    if not all_days:
        return DayBitmap(active=np.zeros((n, 0), dtype=bool), min_day=0)
    min_day = min(all_days)
    span = max(all_days) - min_day + 1
    active = np.zeros((n, span), dtype=bool)
    for row, days in enumerate(sets):
        for day in days:
            active[row, day - min_day] = True
    return DayBitmap(active=active, min_day=int(min_day))


def segmented_running_max_reference(values: np.ndarray,
                                    segment_ids: np.ndarray) -> np.ndarray:
    """Scalar-scan twin of :func:`repro.perf.kernels.
    segmented_running_max`.

    Bit-exact by construction: the running value is always one of the
    original array elements, never the result of arithmetic.
    """
    out = values.copy()
    if values.size == 0:
        return out
    current = values[0]
    for index in range(1, values.shape[0]):
        if segment_ids[index] != segment_ids[index - 1]:
            current = values[index]
        elif values[index] > current:
            current = values[index]
        out[index] = current
    return out


def stitch_segments_reference(device: np.ndarray,
                              start: np.ndarray,
                              end: np.ndarray,
                              flow_bytes: np.ndarray,
                              marked: np.ndarray,
                              slack: float) -> SessionSegments:
    """Per-flow walk twin of :func:`repro.perf.kernels.stitch_segments`.

    Follows the session-break definition directly: order by (device,
    start), open a new session on a device change or when a flow starts
    more than ``slack`` past the session's running max end.
    """
    if device.shape[0] == 0:
        empty_int = np.zeros(0, dtype=np.int64)
        return SessionSegments(
            device=device.copy(), start=start.copy(), end=end.copy(),
            total_bytes=empty_int, flow_count=empty_int.copy(),
            marked=np.zeros(0, dtype=bool))

    order = np.lexsort((start, device))
    out_device: List[int] = []
    out_start: List[float] = []
    out_end: List[float] = []
    out_bytes: List[int] = []
    out_flows: List[int] = []
    out_marked: List[bool] = []

    current_device: int = -1
    open_session = False
    cur_end = 0.0

    for row in order:
        dev = int(device[row])
        flow_start = float(start[row])
        flow_end = float(end[row])
        if (not open_session or dev != current_device
                or flow_start > cur_end + slack):
            open_session = True
            current_device = dev
            out_device.append(dev)
            out_start.append(flow_start)
            out_end.append(flow_end)
            out_bytes.append(int(flow_bytes[row]))
            out_flows.append(1)
            out_marked.append(bool(marked[row]))
            cur_end = flow_end
        else:
            out_end[-1] = max(out_end[-1], flow_end)
            out_bytes[-1] += int(flow_bytes[row])
            out_flows[-1] += 1
            out_marked[-1] = out_marked[-1] or bool(marked[row])
            cur_end = max(cur_end, flow_end)

    return SessionSegments(
        device=np.asarray(out_device, dtype=device.dtype),
        start=np.asarray(out_start, dtype=np.float64),
        end=np.asarray(out_end, dtype=np.float64),
        total_bytes=np.asarray(out_bytes, dtype=np.int64),
        flow_count=np.asarray(out_flows, dtype=np.int64),
        marked=np.asarray(out_marked, dtype=bool),
    )
