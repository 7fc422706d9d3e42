#!/usr/bin/env python3
"""The full paper reproduction: every figure and headline statistic.

Runs the complete study at a configurable scale, regenerates all eight
figures of "Locked-In during Lock-Down" (IMC '21) as text reports, and
optionally synthesizes the prior-year baseline for the vs-2019 traffic
comparison.

At the default scale (150 students) the run takes a few minutes; raise
``--students`` toward the paper's population for tighter statistics.

On a multi-core host the generator computes upcoming days in worker
processes (one per usable CPU) while this process ingests them in
order; every figure is the same as an in-process run's.

    python examples/full_study.py [--students N] [--seed S] [--baseline]
    python examples/full_study.py --output results.txt
"""

import argparse
import sys
import time

from repro import LockdownStudy, StudyConfig
from repro.core.report import (
    render_fig1,
    render_fig2,
    render_fig3,
    render_fig4,
    render_fig5,
    render_fig6,
    render_fig7,
    render_fig8,
    render_summary,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--students", type=int, default=150)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--baseline", action="store_true",
                        help="also synthesize April/May 2019 for the "
                             "vs-2019 comparison (adds ~40%% run time)")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the report to this file")
    args = parser.parse_args()

    config = StudyConfig(n_students=args.students, seed=args.seed)
    study = LockdownStudy(config)

    started = time.time()
    artifacts = study.run(progress=lambda m: print(f"  [{m}]",
                                                   file=sys.stderr))
    if args.baseline:
        print("  [synthesizing 2019 baseline]", file=sys.stderr)
        study.run_baseline_2019(artifacts)
    elapsed = time.time() - started

    sections = [
        f"Locked-In during Lock-Down -- reproduction report\n"
        f"(students={args.students}, seed={args.seed}, "
        f"run time {elapsed:.0f}s, {len(artifacts.dataset):,} flows)",
        render_summary(artifacts.summary()),
        render_fig1(artifacts.fig1()),
        render_fig2(artifacts.fig2()),
        render_fig3(artifacts.fig3()),
        render_fig4(artifacts.fig4()),
        render_fig5(artifacts.fig5()),
        render_fig6(artifacts.fig6()),
        render_fig7(artifacts.fig7()),
        render_fig8(artifacts.fig8()),
    ]
    report = "\n\n".join(sections)
    print(report)
    if args.output:
        with open(args.output, "w") as fileobj:
            fileobj.write(report + "\n")
        print(f"\n[report written to {args.output}]", file=sys.stderr)


if __name__ == "__main__":
    main()
