"""Geographic ground truth and the synthetic geolocation database.

The paper geolocates every destination IP with a commercial database;
we substitute a prefix-indexed table built alongside the address plan.
The analysis-side classifier (:mod:`repro.geo`) consumes only the
batch ``coordinates(ips) -> (lat, lon)`` interface, so swapping in a
real GeoIP backend would be a one-class change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.net.ip import Prefix


@dataclass(frozen=True)
class GeoLocation:
    """A geolocation result: ISO country code plus coordinates."""

    country: str
    lat: float
    lon: float
    city: str = ""

    @property
    def is_us(self) -> bool:
        return self.country == "US"


#: Named hosting locations used by the service catalog. Coordinates are
#: approximate city centroids; only country membership and rough great-
#: circle geometry matter to the midpoint analysis.
LOCATIONS: Dict[str, GeoLocation] = {
    "san_diego": GeoLocation("US", 32.72, -117.16, "San Diego"),
    "san_jose": GeoLocation("US", 37.34, -121.89, "San Jose"),
    "seattle": GeoLocation("US", 47.61, -122.33, "Seattle"),
    "ashburn": GeoLocation("US", 39.04, -77.49, "Ashburn"),
    "dallas": GeoLocation("US", 32.78, -96.80, "Dallas"),
    "chicago": GeoLocation("US", 41.88, -87.63, "Chicago"),
    "new_york": GeoLocation("US", 40.71, -74.01, "New York"),
    "frankfurt": GeoLocation("DE", 50.11, 8.68, "Frankfurt"),
    "london": GeoLocation("GB", 51.51, -0.13, "London"),
    "beijing": GeoLocation("CN", 39.90, 116.41, "Beijing"),
    "shanghai": GeoLocation("CN", 31.23, 121.47, "Shanghai"),
    "shenzhen": GeoLocation("CN", 22.54, 114.06, "Shenzhen"),
    "seoul": GeoLocation("KR", 37.57, 126.98, "Seoul"),
    "tokyo": GeoLocation("JP", 35.68, 139.69, "Tokyo"),
    "mumbai": GeoLocation("IN", 19.08, 72.88, "Mumbai"),
    "singapore": GeoLocation("SG", 1.35, 103.82, "Singapore"),
    "sao_paulo": GeoLocation("BR", -23.55, -46.63, "Sao Paulo"),
    "mexico_city": GeoLocation("MX", 19.43, -99.13, "Mexico City"),
    "sydney": GeoLocation("AU", -33.87, 151.21, "Sydney"),
}


class GeoDatabase:
    """Longest-prefix geolocation over a static prefix table.

    The prefixes are flattened, once per set of prefixes, into disjoint
    intervals: sorted interval starts, each owned by the most specific
    prefix covering it, or by none. A lookup, scalar or batch, is one
    binary search over the starts -- standard GeoIP semantics. When one
    prefix was added twice, the later add wins.
    """

    #: No registered prefix is shorter than this (a GeoIP table holds
    #: no block wider than a /8).
    MIN_PREFIX_LENGTH = 8

    def __init__(self) -> None:
        self._entries: List[Tuple[Prefix, GeoLocation]] = []
        #: The flat table, built on the first lookup after an add.
        self._table: Optional[_FlatTable] = None

    def add(self, prefix: Prefix, location: GeoLocation) -> None:
        """Register a prefix's location."""
        if prefix.length < self.MIN_PREFIX_LENGTH:
            raise ValueError(
                f"prefix {prefix} shorter than /{self.MIN_PREFIX_LENGTH}"
            )
        self._entries.append((prefix, location))
        self._table = None

    def _flat(self) -> "_FlatTable":
        if self._table is None:
            self._table = _FlatTable.build(self._entries)
        return self._table

    def lookup(self, address: int) -> Optional[GeoLocation]:
        """Return the location of the most specific prefix covering ``address``."""
        index = int(self._flat().owners(np.int64(address)))
        return self._entries[index][1] if index >= 0 else None

    def coordinates(self, addresses: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(lat, lon)`` of each address's most specific covering
        prefix, NaN where no prefix covers it."""
        table = self._flat()
        owners = table.owners(np.asarray(addresses, dtype=np.int64))
        # Owner -1 reads the trailing NaN.
        return table.lat[owners], table.lon[owners]

    def __len__(self) -> int:
        return len(self._entries)


class _FlatTable:
    """A prefix table flattened into disjoint, sorted intervals.

    ``starts[i]`` opens interval ``i``, which runs to ``starts[i + 1]``
    (the first start is 0, so every address falls in one); ``owner[i]``
    is the entry index of its most specific covering prefix, -1 for
    none. ``lat``/``lon`` hold each entry's coordinates plus a trailing
    NaN, so indexing them with an owner of -1 reads NaN.
    """

    __slots__ = ("starts", "owner", "lat", "lon")

    def __init__(self, starts: np.ndarray, owner: np.ndarray,
                 lat: np.ndarray, lon: np.ndarray) -> None:
        self.starts = starts
        self.owner = owner
        self.lat = lat
        self.lon = lon

    @classmethod
    def build(cls, entries: List[Tuple[Prefix, GeoLocation]]
              ) -> "_FlatTable":
        bounds = {0}
        for prefix, _ in entries:
            bounds.update((prefix.first, prefix.last + 1))
        starts = np.array(sorted(bounds), dtype=np.int64)
        owner = np.full(len(starts), -1, dtype=np.int64)
        # CIDR prefixes nest or are disjoint, so painting the wider ones
        # first leaves each interval with its most specific owner; the
        # stable sort paints equal lengths in add order, so the later
        # add of a duplicate prefix wins.
        for index in sorted(range(len(entries)),
                            key=lambda index: entries[index][0].length):
            prefix = entries[index][0]
            lo, hi = np.searchsorted(starts, (prefix.first, prefix.last + 1))
            owner[lo:hi] = index
        return cls(starts, owner,
                   np.array([loc.lat for _, loc in entries] + [np.nan]),
                   np.array([loc.lon for _, loc in entries] + [np.nan]))

    def owners(self, addresses: np.ndarray) -> np.ndarray:
        """Entry index of each address's owner, -1 where uncovered."""
        return self.owner[np.searchsorted(self.starts, addresses,
                                          side="right") - 1]
