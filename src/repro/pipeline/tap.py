"""The traffic mirror ("tap") with excluded networks.

The paper's mirror specifically excludes several high-volume operator
networks (parts of UC San Diego, Google Cloud, Amazon, Microsoft Azure,
Riot Games, Twitch, Qualys, Apple). The tap drops any burst whose
remote endpoint falls in an excluded block before the flow engine ever
sees it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from repro.net.ip import Prefix

if TYPE_CHECKING:  # imported lazily to avoid a cycle via repro.columnar
    from repro.columnar.batch import BurstBatch


class Tap:
    """Filters wire events against an excluded-prefix list."""

    def __init__(self, excluded: Sequence[Prefix] = ()):
        entries = sorted(
            ((prefix.first, prefix.last) for prefix in excluded))
        merged: List[Tuple[int, int]] = []
        for first, last in entries:
            if merged and first <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], last))
            else:
                merged.append((first, last))
        #: Disjoint excluded spans, sorted: first and last address.
        self._firsts = np.array([span[0] for span in merged],
                                dtype=np.int64)
        self._lasts = np.array([span[1] for span in merged],
                               dtype=np.int64)
        self.dropped_bursts = 0
        self.dropped_bytes = 0

    def filter_batch(self, batch: "BurstBatch") -> "BurstBatch":
        """Return the bursts the mirror forwards, tallying the drops."""
        if self._firsts.size == 0 or batch.n == 0:
            return batch
        index = np.searchsorted(self._firsts, batch.server_ip,
                                side="right") - 1
        excluded = (index >= 0) & (
            batch.server_ip <= self._lasts[np.maximum(index, 0)])
        if not excluded.any():
            return batch
        self.dropped_bursts += int(np.count_nonzero(excluded))
        self.dropped_bytes += int(batch.orig_bytes[excluded].sum()
                                  + batch.resp_bytes[excluded].sum())
        return batch.compress(~excluded)
