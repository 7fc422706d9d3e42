"""``reprolint``: repo-specific static analysis for the reproduction.

The test suite can only *sample* some of the invariants the
reproduction rests on -- seeded determinism, the anonymize-then-discard
privacy pipeline, kernel/reference bit-parity, quarantine-routed
failure handling, lock-guarded memoization, typed-core annotations and
loop-free columnar hot paths.  This package checks them on every line
of ``src/repro`` by walking the AST, one module at a time (RL003 alone
looks across modules and into the tests):

* :mod:`repro.lint.engine` -- parsing, project indexing, pragma
  waivers, fingerprinting;
* :mod:`repro.lint.rules` -- the rule registry (RL001..RL007);
* :mod:`repro.lint.baseline` -- committed grandfathered findings;
* :mod:`repro.lint.cli` -- ``python -m repro.lint``.

Run ``python -m repro.lint --list-rules`` for the rule catalogue, or
``scripts/check.sh`` for the full static suite (lint + mypy + ruff).
"""

from repro.lint.engine import Finding, LintEngine, ModuleInfo, ProjectIndex
from repro.lint.rules import ALL_RULES, RULES_BY_ID, Rule, select_rules

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintEngine",
    "ModuleInfo",
    "ProjectIndex",
    "RULES_BY_ID",
    "Rule",
    "select_rules",
]
