"""Vectorized analysis kernels.

See :mod:`repro.perf.kernels` for the numpy implementations. Each has
a loop-based twin in ``tests/oracles/kernels.py`` that the parity
tests (and the RL003 lint rule) hold it bit-identical to.
"""

from repro.perf.kernels import (
    DayBitmap,
    SessionSegments,
    build_day_bitmap,
    domain_str_array,
    segmented_running_max,
    stitch_segments,
    suffix_match_table,
    table_flow_mask,
)

__all__ = [
    "DayBitmap",
    "SessionSegments",
    "build_day_bitmap",
    "domain_str_array",
    "segmented_running_max",
    "stitch_segments",
    "suffix_match_table",
    "table_flow_mask",
]
