"""Property tests: each cheaper draw in the generator equals numpy's own.

The synthetic campus is pinned byte for byte, so every shortcut the
generator takes must draw the same numbers as the numpy call it
replaces and leave the stream at the same position. Each equivalence
rests on numpy's implementation, so each is checked here against the
numpy call itself: equal values, then an equal ``bit_generator.state``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.synth.wiregen import BurstColumnLists, _segment_sums
from repro.util.rng import _digest, substream, weighted_cdf

_seeds = st.integers(min_value=0, max_value=2**32 - 1)
_weights = st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=1, max_size=24).filter(lambda w: sum(w) > 0)
#: ``None`` is a scalar draw.
_sizes = st.none() | st.integers(min_value=0, max_value=40)


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


def _outcome(draw):
    """``("ok", values)`` or ``("error", message)`` of ``draw()``."""
    try:
        return "ok", np.asarray(draw()).tolist()
    except ValueError as error:
        return "error", str(error)


def _assert_cdf_draw_matches_choice(p, seed, size):
    expected_rng = np.random.default_rng(seed)
    actual_rng = np.random.default_rng(seed)
    expected = _outcome(
        lambda: expected_rng.choice(len(p), size=size, p=p))
    actual = _outcome(
        lambda: weighted_cdf(p).searchsorted(actual_rng.random(size),
                                             side="right"))
    assert actual == expected
    assert _same_state(actual_rng, expected_rng)


class TestWeightedCdf:
    @settings(max_examples=150)
    @given(_weights,
           st.sampled_from([1.0]) | st.floats(min_value=1 - 1e-7,
                                              max_value=1 + 1e-7),
           st.sampled_from([np.float64, np.float32]),
           _seeds, _sizes)
    def test_matches_choice(self, weights, scale, dtype, seed, size):
        """Valid or not, ``p`` gets the same indices or the same error:
        scales within ``1 +- 1e-7`` straddle choice's ``sqrt(eps)``
        tolerance on the sum, and float32 widens it."""
        w = np.array(weights)
        p = (w / w.sum() * scale).astype(dtype)
        _assert_cdf_draw_matches_choice(p, seed, size)

    @given(_weights, st.integers(min_value=0, max_value=23),
           st.sampled_from([np.nan, -0.25, np.inf, -np.inf]),
           _seeds, _sizes)
    def test_invalid_entry_raises_like_choice(self, weights, position, bad,
                                              seed, size):
        w = np.array(weights)
        p = w / w.sum()
        p[position % len(p)] = bad
        with pytest.raises(ValueError):
            weighted_cdf(p)
        _assert_cdf_draw_matches_choice(p, seed, size)

    @pytest.mark.parametrize("p", [
        np.full((2, 2), 0.25),
        np.array([np.inf, 0.0]),
        np.array([np.inf, 0.0, 0.0]),
        np.array([-0.1, 1.1]),
        [0.5, 0.6],
    ])
    def test_edge_cases_raise_like_choice(self, p):
        with pytest.raises(ValueError):
            weighted_cdf(p)
        _assert_cdf_draw_matches_choice(p, 3, None)
        _assert_cdf_draw_matches_choice(p, 3, 5)


class TestUniform:
    _bounds = st.floats(min_value=-1e12, max_value=1e12)

    @given(_bounds, _bounds, _seeds, _sizes)
    @example(lo=0.0, hi=3600.0, seed=0, size=None)
    @example(lo=0.6, hi=1.0, seed=1, size=None)
    def test_affine_random_matches_uniform(self, lo, hi, seed, size):
        lo, hi = min(lo, hi), max(lo, hi)
        expected_rng = np.random.default_rng(seed)
        actual_rng = np.random.default_rng(seed)
        expected = expected_rng.uniform(lo, hi, size)
        actual = lo + (hi - lo) * actual_rng.random(size)
        assert np.asarray(actual).tolist() == np.asarray(expected).tolist()
        assert _same_state(actual_rng, expected_rng)


#: One connection's raw burst masses (the generator draws 1 to 4).
_masses = st.lists(st.floats(min_value=0.0, max_value=60.0,
                             exclude_min=True),
                   min_size=1, max_size=4)


class TestSegmentedSplit:
    @given(st.lists(_masses, min_size=1, max_size=40))
    @example([[0.1, 0.2, 0.3]])  # np.add.reduceat gives 0.6, sum() more
    def test_segment_sums_match_per_connection_sum(self, connections):
        counts = np.array([len(raw) for raw in connections])
        first = np.cumsum(counts) - counts
        masses = np.concatenate([np.array(raw) for raw in connections])
        sums = _segment_sums(masses, first, counts)
        expected = [np.array(raw).sum() for raw in connections]
        assert sums.tolist() == expected
        split = masses / np.repeat(sums, counts)
        assert split.tolist() == [
            value for raw in connections
            for value in (np.array(raw) / np.array(raw).sum()).tolist()]

    @given(st.lists(st.tuples(_masses,
                              st.integers(min_value=0, max_value=10**9),
                              st.integers(min_value=0, max_value=10**9)),
                    min_size=1, max_size=30))
    def test_columns_match_per_connection_split(self, connections):
        """``columns()`` carries ``max(1, int(bytes * raw / raw.sum()))``
        per burst, the split made one connection at a time."""
        lists = BurstColumnLists()
        expected_orig, expected_resp = [], []
        for index, (raw, upload, download) in enumerate(connections):
            lists.connections.append((
                1000.0 * index, 1, 2, 3, 443, "tcp", upload, download,
                None, None, len(raw)))
            lists.offsets.extend(float(k) for k in range(len(raw)))
            lists.masses.extend(raw)
            splits = (np.array(raw) / np.array(raw).sum()).tolist()
            expected_orig += [max(1, int(upload * s)) for s in splits]
            expected_resp += [max(1, int(download * s)) for s in splits]
        columns = lists.columns()
        assert columns.orig_bytes.tolist() == expected_orig
        assert columns.resp_bytes.tolist() == expected_resp
        assert lists.connections == [] and lists.masses == []


class TestSeedWords:
    @given(st.integers(min_value=0, max_value=2**128 - 1))
    @example(0)
    @example(1)
    @example(2**32 - 1)
    @example(2**64 - 1)
    @example(2**96 - 1)
    @example(2**96)
    def test_words_seed_matches_int_seed(self, n):
        """High words that are zero are hashed as the missing pool
        words ``SeedSequence(n)`` leaves out."""
        words = np.frombuffer(n.to_bytes(16, "little"), dtype="<u4")
        expected_rng = np.random.default_rng(n)
        actual_rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(words)))
        assert actual_rng.random(4).tolist() == \
            expected_rng.random(4).tolist()
        assert _same_state(actual_rng, expected_rng)

    @given(st.integers(min_value=0, max_value=2**63 - 1),
           st.lists(st.text(max_size=8) | st.integers(min_value=0,
                                                      max_value=10**12),
                    max_size=4))
    def test_substream_matches_default_rng_of_digest(self, seed, keys):
        expected_rng = np.random.default_rng(
            int.from_bytes(_digest(seed, tuple(keys)), "big"))
        actual_rng = substream(seed, *keys)
        assert actual_rng.random(4).tolist() == \
            expected_rng.random(4).tolist()
        assert _same_state(actual_rng, expected_rng)
