"""Overlapping-flow session stitching.

:func:`stitch_sessions` is the numpy segment-reduction implementation
(sort once, find session breaks with vectorized gap/device-change
comparisons, reduce bytes/ends/markers with ``reduceat`` kernels -- see
:func:`repro.perf.kernels.stitch_segments`). The original per-flow
Python walk survives as a test-side oracle (``tests/oracles/``);
golden and property tests hold the two bit-identical on every input.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.perf.kernels import stitch_segments
from repro.pipeline.dataset import FlowDataset

#: Flows whose gap is at most this many seconds are considered one
#: session even without strict overlap (handshake gaps, retries).
DEFAULT_SLACK_SECONDS = 60.0


class StitchedSession(NamedTuple):
    """One reconstructed user session on one device.

    A NamedTuple rather than a (frozen) dataclass: a study stitches tens
    of thousands of these per platform, and tuple allocation is several
    times cheaper than a frozen dataclass ``__init__`` (which routes
    every field through ``object.__setattr__``). Still immutable,
    hashable and value-compared.
    """

    device: int
    start: float
    end: float
    total_bytes: int
    flow_count: int
    #: True when any constituent flow matched the marker mask (used for
    #: the Instagram-only disambiguation rule).
    marked: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


def stitch_sessions(dataset: FlowDataset,
                    flow_mask: np.ndarray,
                    marker_mask: Optional[np.ndarray] = None,
                    slack: float = DEFAULT_SLACK_SECONDS,
                    ) -> Dict[int, List[StitchedSession]]:
    """Merge a platform's flows into per-device sessions.

    ``flow_mask`` selects the platform's flows; ``marker_mask`` (a
    subset) marks flows whose presence relabels the whole session
    (e.g. Instagram-only domains inside Facebook-platform sessions).
    Returns device index -> sessions sorted by start time.
    """
    if not flow_mask.any():
        return {}
    if flow_mask.all():
        # Whole-dataset stitch: use the columns as-is, no gather pass.
        device = dataset.device
        start = dataset.ts
        duration = dataset.duration
        orig, resp = dataset.orig_bytes, dataset.resp_bytes
        marked = (np.zeros(len(dataset), dtype=bool)
                  if marker_mask is None else marker_mask)
    else:
        selected = np.flatnonzero(flow_mask)
        device = dataset.device[selected]
        start = dataset.ts[selected]
        duration = dataset.duration[selected]
        # Index-then-add: dataset.total_bytes materializes a
        # full-length array per call.
        orig, resp = (dataset.orig_bytes[selected],
                      dataset.resp_bytes[selected])
        marked = (np.zeros(selected.size, dtype=bool)
                  if marker_mask is None else marker_mask[selected])

    segments = stitch_segments(
        device=device,
        start=start,
        end=start + duration,
        flow_bytes=orig + resp,
        marked=marked,
        slack=slack,
    )

    # Materialize the session objects with a C-driven map() and split
    # the device buckets by slicing at device-change boundaries, instead
    # of a per-session Python branch-and-append loop. tuple.__new__ is
    # the construction floor: both the generated NamedTuple __new__ and
    # _make are Python-level functions and several times slower.
    # The tuple.__new__ trick is untypeable; the explicit List
    # annotation restores precise types for everything downstream.
    flat: List[StitchedSession] = list(map(  # type: ignore[arg-type]
        tuple.__new__, repeat(StitchedSession), zip(
        segments.device.tolist(), segments.start.tolist(),
        segments.end.tolist(), segments.total_bytes.tolist(),
        segments.flow_count.tolist(), segments.marked.tolist())))
    bounds = np.flatnonzero(
        segments.device[1:] != segments.device[:-1]) + 1
    edges = [0] + bounds.tolist() + [len(flat)]
    return {flat[lo].device: flat[lo:hi]
            for lo, hi in zip(edges, edges[1:])}

