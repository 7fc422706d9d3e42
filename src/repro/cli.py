"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``       -- run a study; optionally persist the flow dataset and
  write the full figure report.
* ``report``    -- regenerate every figure from a persisted dataset
  (no simulation, no pipeline).
* ``checklist`` -- run a study and evaluate all encoded paper claims.
* ``export``    -- synthesize a shareable trace directory (per-day
  gzipped wire/DHCP/DNS logs).
* ``ingest``    -- measure a previously exported trace directory.
* ``serve``     -- HTTP front end over a results store (cache-or-compute).
* ``query``     -- fetch study artifacts through the store, computing
  only what is missing.
* ``eval``      -- regression-gate current results against a committed
  golden baseline (nonzero exit on REGRESSED).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from repro import LockdownStudy, StudyConfig
from repro.analysis.expectations import (
    evaluate_all,
    outcomes_payload,
    render_outcomes,
)
from repro.core.report import render_full_report
from repro.pipeline.store import load_dataset, save_dataset
from repro.reliability.atomic import write_text

_CONFIG_FILE = "config.json"
_DATASET_FILE = "flows.npz"
_REPORT_FILE = "report.txt"


def _progress(message: str) -> None:
    print(f"  [{message}]", file=sys.stderr)


def _save_config(config: StudyConfig, directory: str) -> None:
    # Full-fidelity round trip (every field, tuples as lists); the
    # same payload the serve fingerprint and eval baselines embed.
    write_text(os.path.join(directory, _CONFIG_FILE),
               json.dumps(config.to_payload(), indent=2, sort_keys=True)
               + "\n")


def _load_config(directory: str) -> StudyConfig:
    with open(os.path.join(directory, _CONFIG_FILE)) as fileobj:
        payload = json.load(fileobj)
    return StudyConfig.from_payload(payload)


#: Named configurations selectable via ``--preset``.
_PRESETS = {
    "ci": StudyConfig.ci_scale,
    "chaos": StudyConfig.chaos_scale,
    "laptop": StudyConfig.laptop_scale,
    "eval-small": StudyConfig.eval_scale,
    "recorded": StudyConfig.recorded_scale,
}


def _config_from_args(args: argparse.Namespace) -> StudyConfig:
    """Resolve --preset/--students/--seed into a StudyConfig, plus
    --dhcp-staleness where the subcommand defines it."""
    overrides: Dict[str, Any] = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "dhcp_staleness", None) is not None:
        overrides["dhcp_staleness_seconds"] = args.dhcp_staleness
    preset = getattr(args, "preset", None)
    if preset:
        return StudyConfig.from_payload(
            {**_PRESETS[preset]().to_payload(), **overrides})
    students = getattr(args, "students", None)
    overrides.setdefault("seed", 7)
    return StudyConfig(
        n_students=students if students is not None else 100,
        **overrides)


def _utc_stamp() -> str:
    """Wall-clock stamp for reports/baselines (CLI-only; RL001)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _cmd_run_journaled(args: argparse.Namespace) -> int:
    from repro.core.runner import JournaledRun

    if args.resume_run:
        # The journal is the source of truth on resume; only pass a
        # config (for the fingerprint cross-check, or to restart an
        # empty journal) when the user actually specified one.
        explicit = (args.preset is not None
                    or args.students is not None
                    or args.seed is not None)
        run = JournaledRun.resume(
            args.journal_dir, args.resume_run,
            config=_config_from_args(args) if explicit else None,
            store_root=args.store)
    else:
        run = JournaledRun.start(args.journal_dir,
                                 config=_config_from_args(args),
                                 run_id=args.run_id,
                                 store_root=args.store)
    started = time.time()
    result = run.execute(progress=_progress)
    _progress(f"run {result.run_id} completed in "
              f"{time.time() - started:.0f}s "
              f"(executed={list(result.executed)} "
              f"replayed={list(result.replayed)})")
    # report.txt already ends in the newline print would add.
    print(result.report_text, end="")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.journal_dir:
        # The journaled runner has no strict-coverage gate or 2019 arm;
        # refuse these rather than silently drop them.
        unsupported = [flag for flag, given in (
            ("--strict-coverage", args.strict_coverage),
            ("--baseline", args.baseline)) if given]
        if unsupported:
            raise SystemExit(f"{', '.join(unsupported)} cannot be "
                             f"combined with --journal-dir")
        return _cmd_run_journaled(args)
    if args.resume_run or args.run_id:
        raise SystemExit("--run-id/--resume-run require --journal-dir")
    config = _config_from_args(args)
    study = LockdownStudy(config)
    started = time.time()
    artifacts = study.run(progress=_progress,
                          strict_coverage=args.strict_coverage)
    if args.baseline:
        _progress("synthesizing 2019 baseline")
        study.run_baseline_2019(artifacts)
    _progress(f"run completed in {time.time() - started:.0f}s")

    report = render_full_report(artifacts)
    print(report)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _save_config(config, args.out)
        save_dataset(artifacts.dataset,
                     os.path.join(args.out, _DATASET_FILE))
        write_text(os.path.join(args.out, _REPORT_FILE), report + "\n")
        _progress(f"dataset and report written to {args.out}/")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args.data)
    dataset = load_dataset(os.path.join(args.data, _DATASET_FILE))
    artifacts = LockdownStudy.artifacts_from_dataset(config, dataset)
    print(render_full_report(artifacts))
    return 0


def _cmd_checklist(args: argparse.Namespace) -> int:
    config = StudyConfig(n_students=args.students, seed=args.seed)
    study = LockdownStudy(config)
    artifacts = study.run(progress=_progress)
    if args.baseline:
        _progress("synthesizing 2019 baseline")
        study.run_baseline_2019(artifacts)
    outcomes = evaluate_all(artifacts)
    print(render_outcomes(outcomes))
    return 1 if any(o.status == "FAIL" for o in outcomes) else 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.io.tracedir import export_traces
    from repro.synth.generator import CampusTraceGenerator

    config = StudyConfig(n_students=args.students, seed=args.seed)
    generator = CampusTraceGenerator(config)
    _progress(f"population: {generator.population.counts()}")

    def traced_days():
        for trace in generator.iter_days():
            _progress(f"generated {time.strftime('%X')} day "
                      f"{trace.day_start:.0f} "
                      f"({len(trace.bursts)} bursts)")
            yield trace

    days = export_traces(
        traced_days(), args.out,
        extra_manifest={"seed": config.seed,
                        "n_students": config.n_students})
    _save_config(config, args.out)
    _progress(f"exported {days} days to {args.out}/")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.core.study import LockdownStudy
    from repro.io.tracedir import ingest_trace_dir
    from repro.pipeline.pipeline import MonitoringPipeline
    from repro.pipeline.visitors import apply_visitor_filter
    from repro.reliability.quarantine import QuarantineSink
    from repro.synth.generator import CampusTraceGenerator

    config = _load_config(args.traces)
    generator = CampusTraceGenerator(config)
    pipeline = MonitoringPipeline(
        config, generator.plan.excluded_blocks(config.excluded_operators))
    mode = "lenient" if args.lenient else "strict"
    sink = QuarantineSink() if args.lenient else None
    days = ingest_trace_dir(pipeline, args.traces, mode=mode, sink=sink)
    _progress(f"ingested {days} days "
              f"({pipeline.stats.flows_closed} flows)")
    if sink is not None and len(sink):
        _progress(sink.summary())
    dataset = apply_visitor_filter(pipeline.finalize(),
                                   config.visitor_min_days)
    artifacts = LockdownStudy.artifacts_from_dataset(config, dataset)
    print(render_full_report(artifacts))
    return 0


# -- results serving --------------------------------------------------------

def _serve_policy(args: argparse.Namespace):
    from repro.serve.resilience import ResiliencePolicy

    return ResiliencePolicy(
        max_concurrent=args.max_concurrent,
        queue_depth=args.queue_depth,
        default_deadline_seconds=(args.deadline if args.deadline > 0
                                  else None),
        header_timeout_seconds=args.header_timeout,
        drain_deadline_seconds=args.drain_timeout,
        breaker_failure_limit=args.breaker_limit,
        breaker_reset_seconds=args.breaker_reset)


def _cmd_serve(args: argparse.Namespace) -> int:
    import errno

    from repro.serve.server import ArtifactServer
    from repro.serve.service import StudyService
    from repro.serve.store import ArtifactStore

    policy = _serve_policy(args)
    store = ArtifactStore(args.store)
    service = StudyService(store, progress=_progress, policy=policy)
    try:
        server = ArtifactServer(store, service=service, host=args.host,
                                port=args.port, progress=_progress,
                                policy=policy)
    except OSError as error:
        if error.errno == errno.EADDRINUSE:
            print(f"error: {args.host}:{args.port} is already in use; "
                  f"stop the other server, pick another --port, or use "
                  f"--port 0 to bind a free one", file=sys.stderr)
            return 2
        raise
    host, port = server.address
    # The bound address goes to *stdout* (one parseable line) so
    # scripts can `--port 0` and discover the real port; the chatty
    # status stays on stderr.
    print(f"listening on http://{host}:{port}", flush=True)
    _progress(f"serving {len(store.fingerprints())} stored studies "
              f"on http://{host}:{port} (SIGTERM drains, Ctrl-C stops)")
    server.install_signal_handlers()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        _progress("interrupt: draining")
        server.drain()
    _progress("server stopped")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serve.service import StudyService, artifact_names
    from repro.serve.store import ArtifactStore

    store = ArtifactStore(args.store)
    service = StudyService(store, progress=_progress)
    names = tuple(args.artifacts) if args.artifacts else None
    if args.fingerprint:
        result = service.query_fingerprint(args.fingerprint, names=names,
                                           compute=args.compute)
    else:
        result = service.query(_config_from_args(args), names=names,
                               scenario=args.scenario,
                               compute=args.compute)
    envelope = {
        "fingerprint": result.fingerprint,
        "scenario": result.scenario,
        "known_artifacts": list(artifact_names()),
        "served_from_store": list(result.served),
        "computed": list(result.computed),
        "degraded": result.degraded,
        "counters": service.resilience_snapshot(),
        "artifacts": result.payloads,
    }
    print(json.dumps(envelope, indent=2))
    return 0


def _parse_perturbation(spec: Optional[str]):
    """``drop-coverage-day:<index>`` -> day index (None when absent)."""
    if spec is None:
        return None
    kind, _, value = spec.partition(":")
    if kind != "drop-coverage-day" or not value:
        raise SystemExit(
            f"unknown perturbation {spec!r}; supported: "
            f"drop-coverage-day:<day-index>")
    return int(value)


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.serve.evaluate import (
        compare_to_baseline,
        drop_coverage_day,
        load_baseline,
        make_baseline,
        save_baseline,
    )
    from repro.serve.fingerprint import study_fingerprint
    from repro.serve.service import StudyService
    from repro.serve.store import ArtifactStore

    perturb_day = _parse_perturbation(args.perturb)

    # Resolve the configuration: explicit flags win; otherwise the
    # committed baseline's embedded config payload is the ground truth
    # for *what to run* (so CI needs no copy of the knobs).
    if args.preset or args.students is not None or args.seed is not None:
        config = _config_from_args(args)
    elif not args.write_baseline and os.path.exists(args.baseline):
        config = StudyConfig.from_payload(
            load_baseline(args.baseline).get("config", {}))
    else:
        config = StudyConfig.eval_scale()
    fingerprint = study_fingerprint(config, args.scenario)

    # Obtain outcomes + summary metrics: through the store when one is
    # given (cache-or-compute; unchanged studies are served, not
    # re-run), or by a direct run. A perturbed run never touches the
    # store -- it exists to prove the gate trips, not to be served.
    if args.store and perturb_day is None:
        service = StudyService(ArtifactStore(args.store),
                               progress=_progress)
        result = service.query(config, names=("summary", "outcomes"),
                               scenario=args.scenario)
        _progress(f"store: served {list(result.served)}, "
                  f"computed {list(result.computed)}")
        # Resilience counters ride along so a shed/coalesce/degrade
        # regression is visible in the eval log, not just /health.
        _progress("serve counters: "
                  + json.dumps(service.resilience_snapshot(),
                               sort_keys=True))
        if result.degraded:
            _progress("WARNING: served degraded (compute breaker open)")
        outcomes = result.payloads["outcomes"]["outcomes"]
        from repro.analysis.summary import SummaryStats

        metrics = {key: result.payloads["summary"].get(key)
                   for key in SummaryStats.METRIC_KEYS}
    else:
        artifacts = LockdownStudy(config).run(progress=_progress)
        if perturb_day is not None:
            _progress(f"perturbation: dropping coverage of study day "
                      f"{perturb_day}")
            artifacts = drop_coverage_day(artifacts, perturb_day)
        outcomes = outcomes_payload(evaluate_all(artifacts))["outcomes"]
        metrics = artifacts.summary().metrics()

    if args.write_baseline:
        baseline = make_baseline(config, outcomes, metrics,
                                 scenario=args.scenario,
                                 generated_at=_utc_stamp())
        directory = os.path.dirname(args.baseline)
        if directory:
            os.makedirs(directory, exist_ok=True)
        save_baseline(args.baseline, baseline)
        _progress(f"golden baseline written to {args.baseline}")
        return 0

    baseline = load_baseline(args.baseline)
    report = compare_to_baseline(baseline, outcomes, metrics,
                                 fingerprint=fingerprint,
                                 generated_at=_utc_stamp())
    print(report.render())

    report_path = args.report_out
    if report_path is None:
        os.makedirs("eval_reports", exist_ok=True)
        stamp = time.strftime("%Y%m%d_%H%M%S", time.gmtime())
        report_path = os.path.join("eval_reports", f"eval_{stamp}.json")
    write_text(report_path,
               json.dumps(report.to_payload(), indent=2) + "\n")
    _progress(f"machine-readable report written to {report_path}")
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Locked-In during Lock-Down' (IMC '21)")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run a study and print/persist the figure report")
    run.add_argument("--preset", choices=sorted(_PRESETS), default=None,
                     help="named configuration (overrides --students)")
    run.add_argument("--students", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--baseline", action="store_true",
                     help="also synthesize the 2019 comparison baseline")
    run.add_argument("--out", type=str, default=None,
                     help="directory to persist the dataset and report")
    run.add_argument("--dhcp-staleness", type=float, default=3600.0,
                     help="seconds an expired DHCP lease may be held over "
                          "to attribute flows inside a DHCP telemetry gap "
                          "(0 disables degraded attribution)")
    run.add_argument("--strict-coverage", action="store_true",
                     help="refuse to analyze a run with telemetry gaps "
                          "instead of degrading (guarantees bit-identical "
                          "figures vs. a clean run)")
    run.add_argument("--journal-dir", type=str, default=None,
                     help="run under the crash-safe journaled runner: "
                          "each run gets a directory here with a durable "
                          "write-ahead journal, per-stage outputs and an "
                          "artifact store (ignores --out; rejects "
                          "--strict-coverage and --baseline)")
    run.add_argument("--run-id", type=str, default=None,
                     help="explicit run id for a new journaled run "
                          "(default: derived from the config fingerprint)")
    run.add_argument("--resume-run", type=str, default=None,
                     help="resume the journaled run with this id: replay "
                          "completed stages from the journal, re-execute "
                          "only the in-flight one")
    run.add_argument("--store", type=str, default=None,
                     help="artifact-store root for the journaled publish "
                          "stage (default: <run-dir>/store)")
    run.set_defaults(handler=_cmd_run)

    report = commands.add_parser(
        "report", help="regenerate figures from a persisted run")
    report.add_argument("--data", type=str, required=True,
                        help="directory written by `repro run --out`")
    report.set_defaults(handler=_cmd_report)

    checklist = commands.add_parser(
        "checklist", help="evaluate every encoded paper claim")
    checklist.add_argument("--students", type=int, default=100)
    checklist.add_argument("--seed", type=int, default=7)
    checklist.add_argument("--baseline", action="store_true")
    checklist.set_defaults(handler=_cmd_checklist)

    export = commands.add_parser(
        "export", help="synthesize a shareable trace directory")
    export.add_argument("--students", type=int, default=50)
    export.add_argument("--seed", type=int, default=7)
    export.add_argument("--out", type=str, required=True)
    export.set_defaults(handler=_cmd_export)

    ingest = commands.add_parser(
        "ingest", help="measure a previously exported trace directory")
    ingest.add_argument("--traces", type=str, required=True)
    ingest.add_argument("--lenient", action="store_true",
                        help="quarantine malformed log lines (with exact "
                             "per-category counts) instead of aborting")
    ingest.set_defaults(handler=_cmd_ingest)

    def add_config_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--preset", choices=sorted(_PRESETS),
                         default=None,
                         help="named study configuration (overrides "
                              "--students)")
        sub.add_argument("--students", type=int, default=None)
        sub.add_argument("--seed", type=int, default=None)
        sub.add_argument("--scenario", type=str, default="lockdown-2020",
                         help="study scenario to fingerprint and run")

    serve = commands.add_parser(
        "serve", help="HTTP front end over a results store")
    serve.add_argument("--store", type=str, default=".repro-store",
                       help="artifact store root directory")
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8742,
                       help="TCP port (0 = bind any free port; the "
                            "bound address is printed on stdout)")
    serve.add_argument("--max-concurrent", type=int, default=8,
                       help="requests served concurrently; beyond this "
                            "they wait in the bounded queue")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="requests allowed to queue for a slot; "
                            "beyond this they are shed with 429")
    serve.add_argument("--deadline", type=float, default=30.0,
                       help="default per-request deadline in seconds "
                            "(504 on expiry; 0 disables; requests may "
                            "override via ?deadline_ms=)")
    serve.add_argument("--header-timeout", type=float, default=10.0,
                       help="socket timeout for reading a request; "
                            "slow-trickle (slowloris) clients are "
                            "disconnected after this long")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="seconds a SIGTERM drain waits for "
                            "in-flight requests before closing")
    serve.add_argument("--breaker-limit", type=int, default=3,
                       help="consecutive compute failures that open "
                            "the circuit breaker (degraded serving)")
    serve.add_argument("--breaker-reset", type=float, default=30.0,
                       help="breaker cool-down seconds before a "
                            "half-open probe compute is allowed")
    serve.set_defaults(handler=_cmd_serve)

    query = commands.add_parser(
        "query", help="fetch artifacts via the store, computing only "
                      "what is missing")
    add_config_flags(query)
    query.add_argument("--store", type=str, default=".repro-store")
    query.add_argument("--fingerprint", type=str, default=None,
                       help="query a study already in the store by its "
                            "fingerprint instead of by config")
    query.add_argument("--artifacts", nargs="*", default=None,
                       metavar="NAME",
                       help="artifact names to fetch (default: all)")
    query.add_argument("--no-compute", dest="compute",
                       action="store_false", default=True,
                       help="read-only: never run a study, serve only "
                            "what the store already has")
    query.set_defaults(handler=_cmd_query)

    evaluate = commands.add_parser(
        "eval", help="regression-gate results against a golden baseline")
    add_config_flags(evaluate)
    evaluate.add_argument("--baseline", type=str,
                          default=os.path.join("baselines",
                                               "eval_small.json"),
                          help="golden baseline file (its embedded "
                               "config is run when no flags are given)")
    evaluate.add_argument("--store", type=str, default=None,
                          help="serve/compute through this artifact "
                               "store instead of a direct run")
    evaluate.add_argument("--write-baseline", action="store_true",
                          help="write the baseline from this run "
                               "instead of comparing against it")
    evaluate.add_argument("--report-out", type=str, default=None,
                          help="path for the machine-readable JSON "
                               "report (default: timestamped file "
                               "under eval_reports/)")
    evaluate.add_argument("--perturb", type=str, default=None,
                          metavar="KIND:ARG",
                          help="inject a perturbation before comparing "
                               "(supported: drop-coverage-day:<index>)")
    evaluate.set_defaults(handler=_cmd_eval)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
