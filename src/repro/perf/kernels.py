"""Vectorized analysis kernels.

The figure/statistics stage repeatedly needs four primitives that the
original implementations computed with per-element Python loops:

* signature *domain tables* -- which unique domains of a dataset fall
  under an application's suffix set (:func:`suffix_match_table`);
* per-device *day activity* -- which day slots each device produced
  traffic in (:func:`build_day_bitmap` / :class:`DayBitmap`);
* *session segmentation* -- collapsing a platform's flows into
  per-device sessions (:func:`stitch_segments`);
* an exact *segmented running max* (:func:`segmented_running_max`),
  the scan underlying session segmentation.

Everything here operates on plain numpy arrays and returns plain numpy
arrays; the module has no repro-internal imports, so any layer (apps,
sessions, analysis) can use it without cycles. Every kernel is written
to be *bit-identical* to its pure-Python reference counterpart in
``tests/oracles/kernels.py`` -- the parity tests in
``tests/perf/test_kernel_references.py``, the golden tests in
``tests/analysis/test_context.py`` and the property suite in
``tests/property/test_stitch_props.py`` hold them to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence, Set, Union

import numpy as np


class SupportsDaysSeen(Protocol):
    """Anything carrying a ``days_seen`` set of active day indices
    (e.g. :class:`repro.pipeline.dataset.DeviceProfile`)."""

    days_seen: Set[int]


#: One entry of the per-device activity input: a profile carrying a
#: ``days_seen`` set, or the bare set itself.
DaysSeenEntry = Union[SupportsDaysSeen, Set[int]]

# ---------------------------------------------------------------------------
# Signature domain tables.


def domain_str_array(domains: Sequence[str]) -> np.ndarray:
    """The unique-domain side table as a numpy unicode array."""
    if len(domains) == 0:
        return np.empty(0, dtype=np.str_)
    return np.asarray(domains, dtype=np.str_)


def suffix_match_table(domain_arr: np.ndarray,
                       suffixes: Sequence[str]) -> np.ndarray:
    """Per-domain bool table: equals or is a subdomain of any suffix.

    Vectorized counterpart of mapping :func:`repro.dns.domains.
    matches_suffix` over the domain table: ``zoom.us`` and
    ``us04web.zoom.us`` match the suffix ``zoom.us``; ``evilzoom.us``
    and ``zoom.us.evil`` do not.
    """
    table = np.zeros(domain_arr.shape[0], dtype=bool)
    if domain_arr.size == 0:
        return table
    for suffix in suffixes:
        table |= domain_arr == suffix
        table |= np.char.endswith(domain_arr, "." + suffix)
    return table


def table_flow_mask(flow_domain: np.ndarray,
                    table: np.ndarray,
                    no_domain: int = -1) -> np.ndarray:
    """Expand a per-domain table to a per-flow mask (unannotated False)."""
    mask = np.zeros(flow_domain.shape[0], dtype=bool)
    if table.size == 0:
        return mask
    annotated = flow_domain > no_domain
    mask[annotated] = table[flow_domain[annotated]]
    return mask


# ---------------------------------------------------------------------------
# Device-day activity bitmap.


@dataclass(frozen=True)
class DayBitmap:
    """Dense (device, day-slot) activity bitmap.

    Column ``j`` is day index ``min_day + j`` relative to the dataset's
    ``day0``; the span covers exactly the observed day range, so lookups
    clip their bounds instead of assuming a window.
    """

    active: np.ndarray  # (n_devices, span) bool
    min_day: int

    @property
    def n_devices(self) -> int:
        return self.active.shape[0]

    @property
    def span(self) -> int:
        return self.active.shape[1]

    def _empty(self) -> np.ndarray:
        return np.zeros(self.n_devices, dtype=bool)

    def any_at_all(self) -> np.ndarray:
        """Devices with at least one active day."""
        return self.active.any(axis=1)

    def any_on_or_after(self, day: int) -> np.ndarray:
        """Devices with an active day index ``>= day``."""
        lo = max(day - self.min_day, 0)
        if lo >= self.span:
            return self._empty()
        return self.active[:, lo:].any(axis=1)

    def any_before(self, day: int) -> np.ndarray:
        """Devices with an active day index ``< day``."""
        hi = min(day - self.min_day, self.span)
        if hi <= 0:
            return self._empty()
        return self.active[:, :hi].any(axis=1)

    def any_in_range(self, start_day: int, end_day: int) -> np.ndarray:
        """Devices with an active day in the half-open ``[start, end)``."""
        lo = max(start_day - self.min_day, 0)
        hi = min(end_day - self.min_day, self.span)
        if lo >= hi:
            return self._empty()
        return self.active[:, lo:hi].any(axis=1)

    def first_active_on_or_after(self, day: int) -> np.ndarray:
        """Devices whose *earliest* active day is ``>= day`` (and exist)."""
        return self.any_at_all() & ~self.any_before(day)


def build_day_bitmap(days_seen_sets: Iterable[DaysSeenEntry]) -> DayBitmap:
    """Build the bitmap from per-device ``days_seen`` sets.

    One pass over the sets replaces the per-call ``any(day ...)``
    iteration the reference implementations perform; afterwards every
    activity question is a bitmap slice.
    """
    sets = [profile.days_seen if hasattr(profile, "days_seen") else profile
            for profile in days_seen_sets]
    n = len(sets)
    if n == 0:
        return DayBitmap(active=np.zeros((0, 0), dtype=bool), min_day=0)
    counts = np.fromiter((len(days) for days in sets),
                         dtype=np.int64, count=n)
    total = int(counts.sum())
    if total == 0:
        return DayBitmap(active=np.zeros((n, 0), dtype=bool), min_day=0)
    days = np.fromiter((day for days in sets for day in days),
                       dtype=np.int64, count=total)
    rows = np.repeat(np.arange(n, dtype=np.int64), counts)
    min_day = int(days.min())
    span = int(days.max()) - min_day + 1
    active = np.zeros((n, span), dtype=bool)
    active[rows, days - min_day] = True
    return DayBitmap(active=active, min_day=min_day)


# ---------------------------------------------------------------------------
# Session segmentation.


def segmented_running_max(values: np.ndarray,
                          segment_ids: np.ndarray) -> np.ndarray:
    """Running max of ``values`` that resets at each new segment id.

    ``segment_ids`` must be non-decreasing. Exact for any float input:
    never offsets the float values themselves (which would round) --
    the scan always runs on an order-isomorphic *integer* encoding of
    the values and maps the winners back to the original floats.
    """
    if values.size == 0:
        return values.copy()
    segments = segment_ids.astype(np.int64)

    if values.dtype == np.float64:
        # Fast path: for non-negative float64, the int64 bit patterns
        # order exactly like the floats (IEEE-754 monotonicity), so the
        # segment-offset trick runs on integers and stays exact.
        bits = values.view(np.int64)
        lo = bits.min()
        if lo >= 0:
            span = np.int64(bits.max()) - lo + 1
            n_segments = int(segments[-1]) + 1
            if span < np.iinfo(np.int64).max // max(n_segments, 1):
                offsets = segments * span
                keyed = (bits - lo) + offsets
                running = np.maximum.accumulate(keyed)
                running -= offsets
                running += lo
                return running.view(np.float64)

    # General path: integer *ranks* of the values (stable argsort, so
    # ties get distinct ranks mapping back to equal floats), keyed per
    # segment; the winning ranks map back to the original values.
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[order] = np.arange(values.size, dtype=np.int64)
    base = np.int64(values.size)
    keyed = ranks + segments * base
    running = np.maximum.accumulate(keyed)
    return values[order][running - segments * base]


@dataclass(frozen=True)
class SessionSegments:
    """Per-session reductions produced by :func:`stitch_segments`.

    Sessions are ordered by (device, start); a device's sessions are
    therefore contiguous and start-ordered.
    """

    device: np.ndarray       # int per session
    start: np.ndarray        # float64
    end: np.ndarray          # float64 (max end over the session's flows)
    total_bytes: np.ndarray  # int64
    flow_count: np.ndarray   # int64
    marked: np.ndarray       # bool

    def __len__(self) -> int:
        return self.device.shape[0]


def _device_start_order(device: np.ndarray,
                        start: np.ndarray,
                        slack: float) -> np.ndarray:
    """Sort order by (device, start) for :func:`stitch_segments`.

    When the starts are non-negative float64 (always, for timestamps),
    a single argsort of the composite integer key ``device * span +
    start_bits`` replaces the two stable sorts of ``np.lexsort`` --
    the int64 bit patterns of non-negative floats order exactly like
    the floats. The composite sort is unstable across (device, start)
    ties, which cannot change the stitched output: with ``slack >= 0``
    and ``end >= start`` a tie group never splits across sessions, and
    every per-session reduction (max end, exact int byte sum, flow
    count, marker OR) is order-invariant.
    """
    if start.dtype == np.float64 and slack >= 0:
        bits = start.view(np.int64)
        lo = bits.min()
        dev = device.astype(np.int64)
        if lo >= 0 and dev.min() >= 0:
            span = np.int64(bits.max()) - lo + 1
            n_devices = int(dev.max()) + 1
            if span < np.iinfo(np.int64).max // max(n_devices, 1):
                return np.argsort(dev * span + (bits - lo))
    return np.lexsort((start, device))


def stitch_segments(device: np.ndarray,
                    start: np.ndarray,
                    end: np.ndarray,
                    flow_bytes: np.ndarray,
                    marked: np.ndarray,
                    slack: float) -> SessionSegments:
    """Segment flows into sessions and reduce each segment.

    Sort once by (device, start); a session break occurs at a device
    change or where a flow starts more than ``slack`` seconds after the
    running max end. The running max is taken over the whole device
    prefix rather than the current session only -- equivalent, because
    a session break guarantees every earlier session's max end already
    trails the new session's starts by more than ``slack`` (starts are
    sorted), so earlier sessions can never suppress a later break.
    Reductions use ``np.maximum.reduceat``-style segment kernels.
    """
    if device.shape[0] == 0:
        empty_bool = np.zeros(0, dtype=bool)
        empty_int = np.zeros(0, dtype=np.int64)
        return SessionSegments(
            device=device.copy(), start=start.copy(), end=end.copy(),
            total_bytes=empty_int, flow_count=empty_int, marked=empty_bool)

    order = _device_start_order(device, start, slack)
    dev = device[order]
    s = start[order]
    e = end[order]
    b = flow_bytes[order]

    new_device = np.empty(dev.shape[0], dtype=bool)
    new_device[0] = True
    new_device[1:] = dev[1:] != dev[:-1]
    segment_ids = np.cumsum(new_device) - 1

    running_end = segmented_running_max(e, segment_ids)
    running_end += slack  # owned array, only read below
    breaks = new_device.copy()
    breaks[1:] |= s[1:] > running_end[:-1]

    starts_at = np.flatnonzero(breaks)
    counts = np.diff(np.append(starts_at, dev.shape[0]))
    any_marked = (np.bitwise_or.reduceat(marked[order], starts_at)
                  if marked.any()
                  else np.zeros(starts_at.shape[0], dtype=bool))
    return SessionSegments(
        device=dev[starts_at],
        start=s[starts_at],
        end=np.maximum.reduceat(e, starts_at),
        total_bytes=np.add.reduceat(b.astype(np.int64, copy=False),
                                    starts_at),
        flow_count=counts.astype(np.int64),
        marked=any_marked,
    )
