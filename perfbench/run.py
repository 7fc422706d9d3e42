"""End-to-end benchmark of ``repro``: study, replay and serve workloads.

Run from the repository root::

    python3 perfbench/run.py --workload study --seed 7 --seconds 15
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload replay --trace 1   # layer table

Prints a table of metrics (name, value, unit, sample count) and, as the
last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.
See ``perfbench/README.md`` for the workloads and the layer map.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study", "replay", "serve")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fileobj:
        return json.load(fileobj)


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import repro

    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: repro imported from {where}, not "
                         f"from {src}")


def run_one(args: argparse.Namespace) -> dict:
    import_repro()
    import workloads

    runner = {"study": workloads.run_study, "replay": workloads.run_replay,
              "serve": workloads.run_serve}[args.workload]
    result = runner(args.seed, float(args.seconds), bool(args.trace),
                    args.perturb_golden, STARTED)
    spec = load_benchmark()
    wanted = ([m["name"] for m in spec["per_layer"]] if args.trace
              else [m["name"] for m in spec["end_to_end"]])
    missing = [name for name in wanted if name not in result.metrics]
    if missing:
        raise SystemExit(f"perfbench: {args.workload} did not measure "
                         f"{', '.join(missing)}")
    print(f"== {args.workload} (seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace})")
    for note in result.notes:
        print(f"   {note}")
    print(f"   {'metric':42s} {'value':>14s} {'unit':6s} samples")
    for name in wanted:
        value, unit, samples = result.metrics[name]
        print(f"   {name:42s} {value:14.6g} {unit:6s} {samples}")
    failed_frac = result.failed / max(1, result.attempted)
    print(f"   {'failed_frac':42s} {failed_frac:14.6g} {'ratio':6s} "
          f"{result.attempted}")
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name][0],
                           "unit": result.metrics[name][1]}
                    for name in wanted},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in a fresh interpreter, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
        if args.perturb_golden:
            command.append("--perturb-golden")
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                   universal_newlines=True, check=False)
        lines = completed.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if completed.returncode != 0:
            raise SystemExit(f"perfbench: {workload} exited with "
                             f"{completed.returncode}")
        outcome = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and outcome["correct"]
        combined["attempted"] += outcome["attempted"]
        combined["failed"] += outcome["failed"]
        for name, metric in outcome["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int,
                        default=load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-golden", action="store_true",
                        help="check against a wrong report digest, to "
                             "show that a changed output counts as failed")
    args = parser.parse_args()
    outcome = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
