"""Kernel/reference parity: every public kernel equals its twin.

These tests are the teeth behind lint rule RL003: each public function
in ``repro.perf.kernels`` must stay bit-identical to its pure-Python
``*_reference`` twin in ``tests/oracles/kernels.py`` on seeded inputs that
cover the kernels' fast paths (non-negative float64 bit tricks) and
their fallbacks.
"""

import numpy as np
import pytest

from repro.perf.kernels import (
    build_day_bitmap,
    domain_str_array,
    segmented_running_max,
    stitch_segments,
    suffix_match_table,
    table_flow_mask,
)
from repro.util.rng import substream
from tests.oracles.kernels import (
    build_day_bitmap_reference,
    domain_str_array_reference,
    segmented_running_max_reference,
    stitch_segments_reference,
    suffix_match_table_reference,
    table_flow_mask_reference,
)

DOMAINS = [
    "zoom.us", "us04web.zoom.us", "evilzoom.us", "zoom.us.evil",
    "instagram.com", "cdninstagram.com", "edge.instagram.com",
    "netflix.com", "nflxvideo.net", "campus.edu", "",
]

SUFFIXES = ["zoom.us", "instagram.com", "nflxvideo.net"]


def _flows(seed, n=400, n_devices=23):
    rng = substream(seed, "kernel-parity", n)
    device = rng.integers(0, n_devices, size=n)
    start = np.round(rng.uniform(0.0, 5000.0, size=n), 3)
    duration = np.round(rng.uniform(0.0, 900.0, size=n), 3)
    flow_bytes = rng.integers(0, 2**40, size=n)
    marked = rng.random(size=n) < 0.2
    return device, start, start + duration, flow_bytes, marked


def test_domain_str_array_matches_reference():
    kernel = domain_str_array(DOMAINS)
    reference = domain_str_array_reference(DOMAINS)
    assert kernel.shape == reference.shape
    assert kernel.tolist() == reference.tolist()
    assert domain_str_array([]).shape == (0,)
    assert domain_str_array_reference([]).shape == (0,)


def test_suffix_match_table_matches_reference():
    arr = domain_str_array(DOMAINS)
    kernel = suffix_match_table(arr, SUFFIXES)
    reference = suffix_match_table_reference(arr, SUFFIXES)
    np.testing.assert_array_equal(kernel, reference)
    # Spot-check the subdomain semantics both must implement.
    as_list = kernel.tolist()
    assert as_list[DOMAINS.index("zoom.us")] is True
    assert as_list[DOMAINS.index("us04web.zoom.us")] is True
    assert as_list[DOMAINS.index("evilzoom.us")] is False
    assert as_list[DOMAINS.index("zoom.us.evil")] is False


def test_table_flow_mask_matches_reference():
    rng = substream(7, "table-flow-mask")
    arr = domain_str_array(DOMAINS)
    table = suffix_match_table(arr, SUFFIXES)
    flow_domain = rng.integers(-1, len(DOMAINS), size=500)
    np.testing.assert_array_equal(
        table_flow_mask(flow_domain, table),
        table_flow_mask_reference(flow_domain, table))
    empty = np.zeros(0, dtype=bool)
    np.testing.assert_array_equal(
        table_flow_mask(flow_domain, empty),
        table_flow_mask_reference(flow_domain, empty))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_build_day_bitmap_matches_reference(seed):
    rng = substream(seed, "day-bitmap")
    sets = [
        set(int(day) for day in rng.integers(-3, 40, size=rng.integers(0, 9)))
        for _ in range(50)
    ]
    kernel = build_day_bitmap(sets)
    reference = build_day_bitmap_reference(sets)
    assert kernel.min_day == reference.min_day
    np.testing.assert_array_equal(kernel.active, reference.active)


def test_build_day_bitmap_empty_inputs():
    for sets in ([], [set(), set()]):
        kernel = build_day_bitmap(sets)
        reference = build_day_bitmap_reference(sets)
        assert kernel.active.shape == reference.active.shape
        assert kernel.min_day == reference.min_day


@pytest.mark.parametrize("seed", [0, 5])
def test_segmented_running_max_matches_reference(seed):
    rng = substream(seed, "segmented-max")
    n = 300
    values = np.round(rng.uniform(0.0, 1e6, size=n), 6)
    segment_ids = np.sort(rng.integers(0, 12, size=n)).astype(np.int64)
    np.testing.assert_array_equal(
        segmented_running_max(values, segment_ids),
        segmented_running_max_reference(values, segment_ids))
    # Negative floats force the rank-based general path.
    shifted = values - 5e5
    np.testing.assert_array_equal(
        segmented_running_max(shifted, segment_ids),
        segmented_running_max_reference(shifted, segment_ids))


@pytest.mark.parametrize("seed,slack", [(0, 60.0), (1, 0.0), (2, 3600.0)])
def test_stitch_segments_matches_reference(seed, slack):
    device, start, end, flow_bytes, marked = _flows(seed)
    kernel = stitch_segments(device, start, end, flow_bytes, marked, slack)
    reference = stitch_segments_reference(device, start, end, flow_bytes,
                                          marked, slack)
    assert len(kernel) == len(reference)
    np.testing.assert_array_equal(kernel.device, reference.device)
    np.testing.assert_array_equal(kernel.start, reference.start)
    np.testing.assert_array_equal(kernel.end, reference.end)
    np.testing.assert_array_equal(kernel.total_bytes,
                                  reference.total_bytes)
    np.testing.assert_array_equal(kernel.flow_count,
                                  reference.flow_count)
    np.testing.assert_array_equal(kernel.marked, reference.marked)


def test_stitch_segments_empty_matches_reference():
    empty_f = np.zeros(0, dtype=np.float64)
    empty_i = np.zeros(0, dtype=np.int64)
    empty_b = np.zeros(0, dtype=bool)
    kernel = stitch_segments(empty_i, empty_f, empty_f, empty_i, empty_b,
                             60.0)
    reference = stitch_segments_reference(empty_i, empty_f, empty_f,
                                          empty_i, empty_b, 60.0)
    assert len(kernel) == 0 and len(reference) == 0
