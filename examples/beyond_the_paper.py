#!/usr/bin/env python3
"""Extension analyses the paper motivates but does not plot.

1. Work vs leisure byte shares per month -- the paper's framing of
   "how work and leisure changed ... at an application level".
2. Weekday/weekend diurnal convergence -- Feldmann et al. saw weekday
   patterns converge toward weekend patterns at ISP scale; the paper
   explicitly notes that trend is *not apparent* in the dorm
   population. The similarity score quantifies it.
3. Departure waves -- per-device last-activity inference, recovering
   the March exodus timeline from flows alone.

    python examples/beyond_the_paper.py [--students N] [--seed S]
"""

import argparse
import sys

from repro import LockdownStudy, StudyConfig
from repro import constants
from repro.core.report import sparkline
from repro.util.timeutil import format_day

from extensions import (
    compute_application_mix,
    compute_departure_waves,
    compute_diurnal_convergence,
)
from unclassified import attribute_unclassified


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--students", type=int, default=80)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    study = LockdownStudy(StudyConfig(n_students=args.students,
                                      seed=args.seed))
    artifacts = study.run(progress=lambda m: print(f"  [{m}]",
                                                   file=sys.stderr))
    dataset = artifacts.dataset
    post = artifacts.post_shutdown_mask

    print("== Work vs leisure byte shares (post-shutdown users) ==")
    mix = compute_application_mix(dataset, device_mask=post)
    print(f"{'month':<10} {'work':>8} {'leisure':>8} {'other':>8}"
          f" {'total':>10}")
    for month, label in zip(constants.STUDY_MONTHS,
                            constants.MONTH_LABELS):
        shares = mix.shares[month]
        print(f"{label:<10} {shares['work']:>7.0%} "
              f"{shares['leisure']:>7.0%} {shares['other']:>7.0%} "
              f"{mix.totals[month] / 1e9:>8.1f}GB")

    print("\n== Weekday/weekend diurnal similarity "
          "(1.0 = identical shapes) ==")
    convergence = compute_diurnal_convergence(dataset, device_mask=post)
    for month, label in zip(constants.STUDY_MONTHS,
                            constants.MONTH_LABELS):
        weekday, weekend = convergence.profiles[month]
        print(f"{label:<10} similarity {convergence.similarity[month]:.3f}"
              f"   weekday {sparkline(weekday, 24)} "
              f"weekend {sparkline(weekend, 24)}")
    print("(no dramatic jump toward 1.0: the dorm population keeps its "
          "weekday/weekend rhythm, unlike Feldmann et al.'s ISP view)")

    print("\n== What are the unclassified devices? (footnote 2) ==")
    attribution = attribute_unclassified(dataset, artifacts.classification)
    if attribution.attributions:
        print(f"unclassified devices with traffic mixes: "
              f"{len(attribution.attributions)}")
        for name in ("mobile", "laptop_desktop", "iot"):
            print(f"  most similar to {name:<15} "
                  f"{attribution.share_attributed_to(name):>5.0%}")
        print(f"  -> personal-device share "
              f"{attribution.personal_device_share():.0%} "
              f"(the paper suspected most are mobile/desktop)")

    print("\n== Departure waves (inferred from last activity) ==")
    waves = compute_departure_waves(dataset)
    print(f"devices active into the final week: {waves.remainer_count}")
    print(f"{'week of':<14} departures")
    for start_day, count in zip(waves.week_starts,
                                waves.weekly_departures):
        week_ts = dataset.day0 + float(start_day) * 86400.0
        bar = "#" * int(count)
        print(f"{format_day(week_ts):<14} {count:>4}  {bar}")


if __name__ == "__main__":
    main()
