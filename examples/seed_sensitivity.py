#!/usr/bin/env python3
"""Robustness check: do the headline findings survive re-seeding?

Runs the full study under several master seeds and reports the spread
of every headline statistic. The paper's qualitative findings (traffic
up, sites up, a meaningful international minority) should hold under
every draw of the generative model, even though the exact numbers move.

    python examples/seed_sensitivity.py [--students N] [--seeds 1 2 3]
"""

import argparse
import sys

from repro import StudyConfig

from sensitivity import render_sweep, run_seed_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--students", type=int, default=40)
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[1, 2, 3, 4, 5])
    args = parser.parse_args()

    config = StudyConfig(n_students=args.students)
    result = run_seed_sweep(
        config, args.seeds,
        progress=lambda m: print(f"  [{m}]", file=sys.stderr))

    print(render_sweep(result))
    print()
    for metric in ("traffic_increase", "distinct_sites_increase"):
        verdict = ("consistent" if result.consistent_sign(metric)
                   else "NOT consistent")
        print(f"{metric}: sign {verdict} across seeds")


if __name__ == "__main__":
    main()
