"""Geolocation oracle: the per-address walk-back lookup.

:class:`WalkBackGeoDatabase` keeps the prefixes sorted by network base;
a lookup bisects to the candidate with the greatest base at or below
the address and walks back through enclosing candidates, preferring
the longest match. :class:`repro.world.geo.GeoDatabase` answers from a
flat interval table instead, and is held to this twin answer for
answer.
"""

import bisect
from typing import List, Optional, Tuple

from repro.net.ip import Prefix
from repro.world.geo import GeoDatabase, GeoLocation


class WalkBackGeoDatabase:
    """Longest-prefix geolocation by bisect and walk-back."""

    def __init__(self) -> None:
        self._entries: List[Tuple[Prefix, GeoLocation]] = []
        self._keys: Optional[List[int]] = []

    def add(self, prefix: Prefix, location: GeoLocation) -> None:
        self._entries.append((prefix, location))
        self._keys = None

    def lookup(self, address: int) -> Optional[GeoLocation]:
        if self._keys is None:
            # A stable sort keeps duplicates in add order, so the
            # walk-back meets the later add first.
            self._entries.sort(
                key=lambda item: (item[0].network, item[0].length))
            self._keys = [entry[0].network for entry in self._entries]
        idx = bisect.bisect_right(self._keys, address) - 1
        # Any prefix containing `address` starts at or after this floor.
        floor = address - (1 << (32 - GeoDatabase.MIN_PREFIX_LENGTH)) + 1
        best: Optional[Tuple[Prefix, GeoLocation]] = None
        while idx >= 0:
            prefix, location = self._entries[idx]
            if prefix.network < floor:
                break
            if prefix.contains(address):
                if best is None or prefix.length > best[0].length:
                    best = (prefix, location)
            idx -= 1
        return best[1] if best else None
