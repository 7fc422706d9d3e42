"""Benchmark of reprolint's cold vs warm runs over the real tree.

The on-disk cache exists for one reason: the full rule run (which
parses and walks every module, and pairs kernels with their tests)
should be paid once per tree state, and an unchanged tree should
re-lint from cached JSON.  This benchmark runs the complete rule set
twice against a fresh cache directory and writes ``BENCH_lint.json``
(override the path with ``BENCH_LINT_JSON``) recording both timings,
throughput in files/sec, and the cache hit counters.

The warm/cold ratio is asserted (< 0.5) because it is the acceptance
criterion for the cache, not just a nice-to-have.
"""

import json
import os
import time
from pathlib import Path

from repro.lint.cache import LintCache
from repro.lint.engine import LintEngine, build_index
from repro.lint.rules import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parents[1]


def _timed_run(cache_dir: Path):
    cache = LintCache(cache_dir)
    started = time.perf_counter()
    findings = LintEngine(list(ALL_RULES), cache=cache).run(REPO_ROOT)
    elapsed = time.perf_counter() - started
    return findings, elapsed, cache.stats()


def test_lint_cold_vs_warm(tmp_path):
    cache_dir = tmp_path / "lint-cache"
    n_files = len(build_index(REPO_ROOT).modules)

    cold_findings, cold, cold_stats = _timed_run(cache_dir)
    warm_findings, warm, warm_stats = _timed_run(cache_dir)

    assert warm_findings == cold_findings
    assert warm < 0.5 * cold, (
        f"warm lint run ({warm:.2f}s) must be under half the cold run "
        f"({cold:.2f}s); cache stats: {warm_stats}")

    payload = {
        "files": n_files,
        "rules": len(ALL_RULES),
        "findings": len(cold_findings),
        "cold": {
            "seconds": round(cold, 4),
            "files_per_second": round(n_files / cold, 1),
            "cache": cold_stats,
        },
        "warm": {
            "seconds": round(warm, 4),
            "files_per_second": round(n_files / warm, 1),
            "cache": warm_stats,
            "speedup_vs_cold": round(cold / warm, 2),
        },
    }
    out = os.environ.get("BENCH_LINT_JSON",
                         str(REPO_ROOT / "BENCH_lint.json"))
    with open(out, "w") as fileobj:
        json.dump(payload, fileobj, indent=1, sort_keys=False)
        fileobj.write("\n")
    print(f"\n=== lint cold vs warm ===\n"
          f"{json.dumps(payload, indent=1)}")
