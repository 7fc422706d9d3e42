"""Seed-sensitivity sweeps: how robust are the headline findings?

A single synthetic run is one draw from the generative model; the
paper's findings should hold across draws. :func:`run_seed_sweep`
repeats the study under several seeds and summarizes the headline
statistics' spread -- the reproduction-side analogue of asking whether
a measured effect is bigger than its run-to-run noise.

It lives beside ``seed_sensitivity.py``, its one caller, rather than in
the ``repro`` package: it drives whole studies, so it sits above
``repro.core`` and no analysis module may import it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import StudyConfig
from repro.core.study import LockdownStudy

#: The headline statistics tracked by the sweep, as (name, extractor).
HEADLINE_METRICS: Tuple[Tuple[str, Callable], ...] = (
    ("traffic_increase", lambda s: s.traffic_increase_feb_to_aprmay),
    ("distinct_sites_increase", lambda s: s.distinct_sites_increase),
    ("international_fraction", lambda s: s.international_fraction),
    ("post_shutdown_devices", lambda s: float(s.post_shutdown_devices)),
    ("peak_devices", lambda s: float(s.peak_active_devices)),
)


@dataclass
class MetricSpread:
    """Across-seed summary of one statistic."""

    name: str
    values: List[float]

    @property
    def mean(self) -> float:
        data = [v for v in self.values if not math.isnan(v)]
        return float(np.mean(data)) if data else float("nan")

    @property
    def std(self) -> float:
        data = [v for v in self.values if not math.isnan(v)]
        return float(np.std(data)) if len(data) > 1 else float("nan")

    @property
    def spread(self) -> Tuple[float, float]:
        data = [v for v in self.values if not math.isnan(v)]
        if not data:
            return (float("nan"), float("nan"))
        return (min(data), max(data))


@dataclass
class SweepResult:
    """All tracked metrics across all seeds."""

    seeds: List[int]
    metrics: Dict[str, MetricSpread]

    def consistent_sign(self, name: str) -> bool:
        """True when a metric has the same sign under every seed."""
        values = [v for v in self.metrics[name].values
                  if not math.isnan(v)]
        if not values:
            return False
        return all(v > 0 for v in values) or all(v < 0 for v in values)


def run_seed_sweep(base_config: StudyConfig,
                   seeds: Sequence[int],
                   progress: Optional[Callable[[str], None]] = None,
                   ) -> SweepResult:
    """Run the study once per seed and collect headline statistics."""
    if not seeds:
        raise ValueError("at least one seed is required")
    report = progress or (lambda message: None)

    per_metric: Dict[str, List[float]] = {
        name: [] for name, _ in HEADLINE_METRICS}
    for seed in seeds:
        config = dataclasses.replace(base_config, seed=int(seed))
        report(f"running seed {seed}")
        artifacts = LockdownStudy(config).run()
        summary = artifacts.summary()
        for name, extract in HEADLINE_METRICS:
            per_metric[name].append(float(extract(summary)))

    return SweepResult(
        seeds=[int(seed) for seed in seeds],
        metrics={name: MetricSpread(name, values)
                 for name, values in per_metric.items()},
    )


def render_sweep(result: SweepResult) -> str:
    """Plain-text table of the sweep."""
    lines = [f"Seed sweep over {result.seeds}"]
    lines.append(f"{'metric':<26} {'mean':>9} {'std':>9} "
                 f"{'min':>9} {'max':>9}")
    for name, spread in result.metrics.items():
        lo, hi = spread.spread
        lines.append(f"{name:<26} {spread.mean:>9.3f} {spread.std:>9.3f} "
                     f"{lo:>9.3f} {hi:>9.3f}")
    return "\n".join(lines)
