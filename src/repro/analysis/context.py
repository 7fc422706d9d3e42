"""Shared, memoized analysis primitives for one dataset.

Every figure needs some mix of the same expensive primitives:
signature flow masks, the per-device-day byte matrix, the device-day
activity bitmap, stitched sessions, the domain->site table. Before
this layer, each figure rebuilt its own copies; an
:class:`AnalysisContext` computes each primitive once per dataset and
hands the same (read-only) arrays to every figure and the summary.

The context runs on the vectorized kernels of :mod:`repro.perf.kernels`.
The golden tests subclass it with pure-Python builders
(``tests/oracles/analysis.py``) -- same memoization, same interface --
to prove every figure and the summary bit-identical to the reference
path.

All cached getters are thread-safe (``compute_all`` fans figures out
across threads), and ``stats`` counts how often each primitive was
*built*, so tests can assert the compute-at-most-once guarantee.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.common import (
    device_day_bitmap,
    month_day_range,
    per_device_day_bytes,
)
from repro.apps.signature import AppSignature
from repro.dns.domains import site_of
from repro.perf.kernels import DayBitmap, domain_str_array, table_flow_mask
from repro.pipeline.dataset import FlowDataset
from repro.reliability.coverage import CoverageReport
from repro.reliability.errors import CoverageError
from repro.sessions.stitch import StitchedSession, stitch_sessions
from repro.util.timeutil import month_bounds

#: Site-table id for domains without a registrable site.
NO_SITE = -1


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only so callers cannot corrupt it."""
    array.flags.writeable = False
    return array


class AnalysisContext:
    """Memoized analysis primitives shared across figures.

    One instance per dataset; attach it to
    :class:`~repro.core.study.StudyArtifacts` (done automatically) so
    all eight figures and the summary reuse the same tables.
    """

    def __init__(self, dataset: FlowDataset, *,
                 coverage: Optional[CoverageReport] = None,
                 strict_coverage: bool = False):
        self.dataset = dataset
        #: Telemetry coverage of the ingest behind this dataset; None
        #: means "assume complete" (e.g. datasets reloaded from disk).
        self.coverage = coverage
        if (strict_coverage and coverage is not None
                and not coverage.is_complete()):
            gaps = {source: coverage.gaps(source).covered_seconds()
                    for source in ("conn", "dhcp", "dns")
                    if not coverage.gaps(source).is_empty}
            raise CoverageError(
                f"strict_coverage: telemetry gaps present ({gaps})")
        #: How many times each primitive was built (not fetched); every
        #: value should stay at 1 for the lifetime of a study run.
        self.stats: Dict[str, int] = {}
        self._lock = threading.RLock()
        self._day_coverage: Dict[Tuple[Optional[str], int],
                                 Optional[np.ndarray]] = {}
        self._domain_arr: Optional[np.ndarray] = None
        self._tables: Dict[AppSignature, np.ndarray] = {}
        self._masks: Dict[Tuple[str, AppSignature], np.ndarray] = {}
        self._matrices: Dict[Tuple[str, int], np.ndarray] = {}
        self._bitmap: Optional[DayBitmap] = None
        self._device_masks: Dict[Tuple[str, object], np.ndarray] = {}
        self._sessions: Dict[Tuple[str, float],
                             Dict[int, List[StitchedSession]]] = {}
        self._site_ids: Optional[Tuple[np.ndarray, int]] = None

    def _count(self, key: str) -> None:
        self.stats[key] = self.stats.get(key, 0) + 1

    # -- signature tables and masks -------------------------------------

    def domain_table(self, signature: AppSignature) -> np.ndarray:
        """Per-domain match table, built once per signature."""
        with self._lock:
            table = self._tables.get(signature)
            if table is None:
                self._count(f"domain_table:{signature.name}")
                if self._domain_arr is None:
                    self._domain_arr = domain_str_array(
                        self.dataset.domains)
                table = signature.domain_table(self._domain_arr)
                self._tables[signature] = _freeze(table)
            return table

    def domain_mask(self, signature: AppSignature) -> np.ndarray:
        """Flow mask: annotated with a domain the signature matches."""
        return self._signature_mask("domain", signature)

    def flow_mask(self, signature: AppSignature) -> np.ndarray:
        """Flow mask: matched by domain or by IP range."""
        return self._signature_mask("flow", signature)

    def _signature_mask(self, kind: str,
                        signature: AppSignature) -> np.ndarray:
        with self._lock:
            mask = self._masks.get((kind, signature))
            if mask is None:
                mask = self._domain_mask(signature)
                if kind == "flow":
                    mask = mask | signature.ip_mask(self.dataset)
                self._masks[(kind, signature)] = _freeze(mask)
            return mask

    def _domain_mask(self, signature: AppSignature) -> np.ndarray:
        # Same short-circuits as AppSignature.domain_mask, but through
        # the cached (and counted) per-signature table.
        dataset = self.dataset
        if not signature.domain_suffixes or not len(dataset.domains):
            return np.zeros(len(dataset), dtype=bool)
        annotated = dataset.domain >= 0
        if not annotated.any():
            return np.zeros(len(dataset), dtype=bool)
        return table_flow_mask(dataset.domain, self.domain_table(signature))

    # -- per-device-day byte matrices ------------------------------------

    def day_matrix(self, n_days: int, key: str = "all",
                   flow_mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense (n_devices, n_days) byte matrix, built once per key.

        The unmasked matrix (``key="all"``) is the one shared by
        Figures 1/2 and the summary; masked variants (e.g. Figure 4's
        Zoom-excluded matrix) cache under their own key.
        """
        with self._lock:
            matrix = self._matrices.get((key, n_days))
            if matrix is None:
                self._count(f"day_matrix:{key}")
                matrix = per_device_day_bytes(self.dataset, n_days,
                                              flow_mask=flow_mask)
                self._matrices[(key, n_days)] = _freeze(matrix)
            return matrix

    # -- device-day activity ----------------------------------------------

    def day_bitmap(self) -> DayBitmap:
        """The device-by-day activity bitmap, built once."""
        with self._lock:
            if self._bitmap is None:
                self._count("day_bitmap")
                self._bitmap = device_day_bitmap(self.dataset)
                _freeze(self._bitmap.active)
            return self._bitmap

    def _device_mask(self, op: str, arg, compute) -> np.ndarray:
        with self._lock:
            mask = self._device_masks.get((op, arg))
            if mask is None:
                mask = compute()
                self._device_masks[(op, arg)] = _freeze(mask)
            return mask

    def active_on_or_after(self, day: int) -> np.ndarray:
        """Devices with any active day index ``>= day``."""
        return self._device_mask(
            "on_or_after", day,
            lambda: self.day_bitmap().any_on_or_after(day))

    def active_before(self, day: int) -> np.ndarray:
        """Devices with any active day index ``< day``."""
        return self._device_mask(
            "before", day,
            lambda: self.day_bitmap().any_before(day))

    def first_active_on_or_after(self, day: int) -> np.ndarray:
        """Devices whose earliest active day is ``>= day``."""
        return self._device_mask(
            "first_on_or_after", day,
            lambda: self.day_bitmap().first_active_on_or_after(day))

    def active_in_months(self,
                         months: Tuple[Tuple[int, int], ...]) -> np.ndarray:
        """Devices active in *every* listed ``(year, month)``."""
        def _kernel() -> np.ndarray:
            result = None
            for year, month in months:
                start_day, end_day = month_day_range(self.dataset, year,
                                                     month)
                mask = self.day_bitmap().any_in_range(start_day, end_day)
                result = mask if result is None else (result & mask)
            if result is None:
                raise ValueError("at least one month is required")
            return result.copy()

        return self._device_mask("in_months", tuple(months), _kernel)

    # -- telemetry coverage -----------------------------------------------

    def day_coverage(self, n_days: int,
                     source: Optional[str] = None) -> Optional[np.ndarray]:
        """Per-day covered fraction, or None when coverage is complete.

        Returning None on complete coverage keeps the clean analysis
        path bit-identical: figure kernels only branch into their
        normalization when gaps actually existed. ``source=None`` gives
        the worst fraction across conn/dhcp/dns per day.
        """
        if self.coverage is None or self.coverage.is_complete():
            return None
        with self._lock:
            key = (source, n_days)
            if key not in self._day_coverage:
                self._count(f"day_coverage:{source or 'all'}")
                fractions = np.asarray(
                    self.coverage.day_fractions(
                        self.dataset.day0, n_days, source),
                    dtype=np.float64)
                self._day_coverage[key] = _freeze(fractions)
            return self._day_coverage[key]

    # -- session stitching -------------------------------------------------

    def stitch(self, key: str, flow_mask: np.ndarray,
               marker_mask: Optional[np.ndarray] = None,
               slack: float = 60.0) -> Dict[int, List[StitchedSession]]:
        """Stitch sessions once per ``(key, slack)`` and cache them."""
        with self._lock:
            sessions = self._sessions.get((key, slack))
            if sessions is None:
                self._count(f"stitch:{key}")
                sessions = stitch_sessions(self.dataset, flow_mask,
                                           marker_mask=marker_mask,
                                           slack=slack)
                self._sessions[(key, slack)] = sessions
            return sessions

    # -- domain -> registrable-site table ---------------------------------

    def site_ids(self) -> Tuple[np.ndarray, int]:
        """Per-domain site ids (``NO_SITE`` for malformed) and the site
        count, built once."""
        with self._lock:
            if self._site_ids is None:
                self._count("site_table")
                lookup: Dict[str, int] = {}
                ids = np.empty(len(self.dataset.domains), dtype=np.int64)
                for index, domain in enumerate(self.dataset.domains):
                    site = site_of(domain)
                    if site is None:
                        ids[index] = NO_SITE
                    else:
                        ids[index] = lookup.setdefault(site, len(lookup))
                self._site_ids = (_freeze(ids), len(lookup))
            return self._site_ids

    def mean_distinct_sites(self, device_mask: np.ndarray,
                            months: Sequence[Tuple[int, int]]) -> float:
        """Mean distinct sites per masked device, averaged over months.

        Vectorized over the cached domain->site table: distinct
        (device, site) pairs are distinct values of ``device * n_sites
        + site_id``, so each month is one ``np.unique`` instead of a
        Python pair-set loop. The counts -- and therefore the ratio --
        are exactly those of that loop, which the golden tests keep as
        their oracle.
        """
        dataset = self.dataset
        site_ids, n_sites = self.site_ids()
        eligible_flows = device_mask[dataset.device] & (dataset.domain >= 0)

        monthly_means = []
        for year, month in months:
            start, end = month_bounds(year, month)
            in_month = (eligible_flows & (dataset.ts >= start)
                        & (dataset.ts < end))
            devices = dataset.device[in_month].astype(np.int64)
            sites = site_ids[dataset.domain[in_month]]
            valid = sites >= 0
            pair_keys = np.unique(devices[valid] * n_sites + sites[valid])
            if pair_keys.size:
                n_active = np.unique(pair_keys // n_sites).size
                monthly_means.append(pair_keys.size / n_active)
        if not monthly_means:
            return float("nan")
        return float(np.mean(monthly_means))

    # -- warm-up -----------------------------------------------------------

    def warm(self, signatures: Sequence[AppSignature] = (),
             n_days: int = 0) -> None:
        """Precompute the cross-figure primitives.

        Called by :meth:`~repro.core.study.StudyArtifacts.compute_all`
        before fanning figures out across threads, so the shared tables
        are built exactly once up front instead of on first demand.
        """
        for signature in signatures:
            self.flow_mask(signature)
        if n_days > 0:
            self.day_matrix(n_days)
        self.day_bitmap()
        self.site_ids()
