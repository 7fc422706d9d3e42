"""``python -m repro.lint``: run the invariant checker over the repo.

Exit codes: 0 -- clean (every finding baselined or none at all);
1 -- at least one non-baselined finding; 2 -- usage or setup error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.baseline import (
    DEFAULT_BASELINE_NAME,
    load_baseline,
    match_baseline,
    save_baseline,
)
from repro.lint.cache import DEFAULT_CACHE_DIR, LintCache
from repro.lint.engine import LintEngine
from repro.lint.report import render_human, render_json, render_rule_list
from repro.lint.rules import ALL_RULES, select_rules


def find_root(start: Optional[str]) -> Path:
    """The repository root: ``--root`` or the nearest ancestor of the
    working directory holding a ``pyproject.toml``."""
    if start is not None:
        return Path(start).resolve()
    cursor = Path.cwd().resolve()
    for candidate in (cursor, *cursor.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return cursor


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=("reprolint: AST-based invariant checker for "
                     "determinism, anonymization, kernel/reference "
                     "parity, exception and lock discipline, and "
                     "typed-core annotations."))
    parser.add_argument(
        "--root", default=None,
        help="repository root (default: nearest pyproject.toml upward)")
    parser.add_argument(
        "--rule", action="append", default=None, metavar="RLNNN",
        help="run only these rules (repeatable and/or comma-separated, "
             "e.g. --rule RL001,RL004)")
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE_NAME})")
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings and exit 0")
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="report format (default: human)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit")
    parser.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="also write the JSON findings report to this file")
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help=f"parse/summary cache directory "
             f"(default: <root>/{DEFAULT_CACHE_DIR})")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk cache for this run")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rule_list(ALL_RULES))
        return 0
    try:
        rules = select_rules(args.rule)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2

    root = find_root(args.root)
    baseline_path = (Path(args.baseline) if args.baseline is not None
                     else root / DEFAULT_BASELINE_NAME)
    cache = None
    if not args.no_cache:
        cache_dir = (Path(args.cache_dir) if args.cache_dir is not None
                     else root / DEFAULT_CACHE_DIR)
        cache = LintCache(cache_dir)

    # reprolint: allow[RL001] -- wall-clock runtime reporting only
    started = time.perf_counter()
    try:
        findings = LintEngine(rules, cache=cache).run(root)
    except (FileNotFoundError, SyntaxError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # reprolint: allow[RL001] -- wall-clock runtime reporting only
    elapsed = time.perf_counter() - started

    if args.update_baseline:
        save_baseline(baseline_path, findings)
        print(f"reprolint: wrote {len(findings)} finding(s) to "
              f"{baseline_path}")
        return 0

    match = match_baseline(findings, load_baseline(baseline_path))
    if args.report_out is not None:
        report_path = Path(args.report_out)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        # Not staged: a CI report artifact, read right after the run.
        report_path.write_text(
            render_json(match, elapsed) + "\n", encoding="utf-8")
    renderer = render_json if args.format == "json" else render_human
    print(renderer(match, elapsed))
    return 1 if match.new else 0
