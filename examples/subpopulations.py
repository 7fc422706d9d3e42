#!/usr/bin/env python3
"""Sub-population deep dive: the domestic/international split.

Reproduces Section 4.2's methodology in isolation and inspects it the
way the paper's authors would have:

1. run a study and compute every device's byte-weighted geographic
   midpoint of February destinations (CDNs excluded);
2. show where midpoints land and how the conservative US-border test
   labels devices;
3. compare the two cohorts' behaviour: monthly traffic, social media
   (Figure 6) and Steam (Figure 7).

Because this script owns the simulation, it can also do something the
paper could not: score the classifier against ground truth.

    python examples/subpopulations.py [--students N] [--seed S]
"""

import argparse
import sys

import numpy as np

from repro import LockdownStudy, StudyConfig
from repro.core.report import render_fig4, render_fig6, render_fig7
from repro.core.validation import GroundTruthMatcher


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--students", type=int, default=80)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    study = LockdownStudy(StudyConfig(n_students=args.students,
                                      seed=args.seed))
    artifacts = study.run(progress=lambda m: print(f"  [{m}]",
                                                   file=sys.stderr))

    midpoints = artifacts.midpoints
    post = artifacts.post_shutdown_mask

    print("== Midpoint classification (post-shutdown devices) ==")
    flagged = int((midpoints.is_international & post).sum())
    classifiable = int((midpoints.classifiable & post).sum())
    print(f"classifiable devices: {classifiable}")
    print(f"presumed international: {flagged} "
          f"({flagged / max(post.sum(), 1):.0%} of post-shutdown users; "
          f"the paper found 18%)")

    print("\nSample midpoints (lat, lon -> label):")
    shown = 0
    for index in np.flatnonzero(midpoints.classifiable & post):
        label = ("international" if midpoints.is_international[index]
                 else "domestic")
        print(f"  ({midpoints.lat[index]:+7.2f}, "
              f"{midpoints.lon[index]:+8.2f}) -> {label}")
        shown += 1
        if shown >= 10:
            break

    # Ground-truth scoring: possible only because we own the synth side.
    score = GroundTruthMatcher(artifacts).score_international()
    print("\n== Classifier vs (simulation) ground truth ==")
    print(f"true international found:   {score.true_positive}")
    print(f"missed international:       {score.false_negative}  "
          f"<- the method is conservative")
    print(f"false international:        {score.false_positive}")
    print(f"true domestic:              {score.true_negative}")
    print(f"precision {score.precision:.0%}, recall {score.recall:.0%}")

    print("\n== Are the monthly social-media shifts significant? ==")
    from repro.apps.facebook import facebook_platform_signature
    from repro.sessions.duration import monthly_duration_hours
    from repro.sessions.stitch import stitch_sessions
    from significance import monthly_shift_tests, render_shift_tests
    dataset = artifacts.dataset
    platform_mask = facebook_platform_signature().domain_mask(dataset)
    hours = monthly_duration_hours(
        stitch_sessions(dataset, platform_mask))
    table = {month: list(values.values())
             for month, values in hours.items()}
    print("Facebook-platform hours per device, month over month "
          "(Mann-Whitney):")
    print(render_shift_tests(monthly_shift_tests(table)))

    print("\n" + render_fig4(artifacts.fig4()))
    print("\n" + render_fig6(artifacts.fig6()))
    print("\n" + render_fig7(artifacts.fig7()))


if __name__ == "__main__":
    main()
