"""The 14-day visitor filter (Section 3).

"To avoid analyzing traffic from campus visitors we discard information
for devices that appear on the network for fewer than 14 days." The
filter operates on distinct *days with activity*, not the span between
first and last sighting.
"""

from __future__ import annotations

import numpy as np

from repro.pipeline.dataset import FlowDataset


def visitor_filter_mask(dataset: FlowDataset, min_days: int = 14) -> np.ndarray:
    """Boolean device mask: True for devices retained by the filter."""
    if min_days < 1:
        raise ValueError("min_days must be at least 1")
    return np.array(
        [profile.active_day_count >= min_days for profile in dataset.devices],
        dtype=bool)


def keep_devices(dataset: FlowDataset, retained: np.ndarray) -> FlowDataset:
    """Dataset restricted to flows of the ``retained`` devices, compacted.

    Consumes ``dataset``: its columns are released one at a time as the
    kept flows are copied out (:meth:`FlowDataset.select`), so the
    unfiltered and the filtered table never both exist whole. Its
    device table survives, for diagnostics against ``retained``.
    """
    return dataset.select(dataset.flows_of_devices(retained)).compact()


def apply_visitor_filter(dataset: FlowDataset,
                         min_days: int = 14) -> FlowDataset:
    """Dataset restricted to flows of retained devices, compacted.

    Consumes ``dataset``, as :func:`keep_devices` does.
    """
    return keep_devices(dataset, visitor_filter_mask(dataset, min_days))
