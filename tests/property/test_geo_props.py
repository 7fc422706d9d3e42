"""Property-based equivalence: the flat geolocation table vs the
walk-back lookup it replaced (:mod:`tests.oracles.geo`)."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.net.ip import Prefix
from repro.world.addressing import build_address_plan
from repro.world.catalog import default_directory
from repro.world.geo import GeoDatabase, GeoLocation
from tests.oracles.geo import WalkBackGeoDatabase

_TOP = 2 ** 32 - 1

#: (block, prefix length, slot): a prefix inside one of three /8 blocks
#: -- the first, a middle and the last of the address space, so
#: addresses 0 and 2**32 - 1 can be covered -- at one of the block's
#: first eight slots of its size. Few slots make nested, adjacent and
#: duplicate prefixes common.
_prefix = st.tuples(st.sampled_from((0, 10, 255)),
                    st.integers(min_value=8, max_value=32),
                    st.integers(min_value=0, max_value=7))


def _prefixes(draws):
    out = []
    for block, length, slot in draws:
        size = 1 << (32 - length)
        slot = min(slot, (1 << (length - 8)) - 1)
        out.append(Prefix((block << 24) + slot * size, length))
    return out


def _probes(prefixes):
    probes = {0, _TOP}
    for prefix in prefixes:
        probes.update((prefix.network, prefix.last, prefix.network - 1,
                       prefix.last + 1))
    return sorted(probe for probe in probes if 0 <= probe <= _TOP)


def _assert_same_answers(flat, oracle, probes):
    lat, lon = flat.coordinates(np.array(probes, dtype=np.int64))
    for i, address in enumerate(probes):
        expected = oracle.lookup(address)
        assert flat.lookup(address) == expected, address
        if expected is None:
            assert math.isnan(lat[i]) and math.isnan(lon[i]), address
        else:
            assert (lat[i], lon[i]) == (expected.lat, expected.lon), address


class TestFlatTableMatchesWalkBack:
    @given(st.lists(_prefix, max_size=30))
    @example(draws=[])  # an empty database
    @example(draws=[(10, 16, 0), (10, 24, 0), (10, 24, 1),  # nested, adjacent
                    (10, 24, 0)])                           # and re-added
    @settings(max_examples=300)
    def test_every_probe_answers_alike(self, draws):
        prefixes = _prefixes(draws)
        flat, oracle = GeoDatabase(), WalkBackGeoDatabase()
        for index, prefix in enumerate(prefixes):
            # A distinct location per add tells a duplicate's adds apart.
            location = GeoLocation("US", float(index), -float(index))
            flat.add(prefix, location)
            oracle.add(prefix, location)
        _assert_same_answers(flat, oracle, _probes(prefixes))

    def test_campus_table(self):
        geo_db = build_address_plan(default_directory()).geo_db
        oracle = WalkBackGeoDatabase()
        prefixes = []
        for prefix, location in geo_db._entries:
            oracle.add(prefix, location)
            prefixes.append(prefix)
        assert len(prefixes) > 100
        _assert_same_answers(geo_db, oracle, _probes(prefixes))
