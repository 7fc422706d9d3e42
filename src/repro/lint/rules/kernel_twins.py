"""RL003: every vectorized kernel keeps a pure-Python reference twin.

The performance layer's correctness story (PR 3) is that each numpy
kernel is *bit-identical* to a slow, obviously-correct reference
implementation, and that tests hold the pair together.  This rule makes
the pairing a checked invariant: every public function in
``repro.perf.kernels`` must have a ``<name>_reference`` twin defined at
the top level of a module under ``tests/oracles/``, and some other test
module must call both names -- a twin nobody compares against is no
evidence at all.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Set

from repro.lint.engine import Finding, ProjectIndex
from repro.lint.rules.base import Rule

#: The module whose public functions must all be twinned.
KERNELS_MODULE = "repro.perf.kernels"

#: Where the reference twins live (a repo-relative path prefix).
ORACLES_DIR = "tests/oracles/"


def _called_names(tree: ast.Module) -> FrozenSet[str]:
    """Names a module calls, as ``f(...)`` or ``obj.f(...)``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return frozenset(names)


class KernelTwinsRule(Rule):
    rule_id = "RL003"
    title = ("every public repro.perf.kernels function has a *_reference "
             "twin in tests/oracles/ and another test module calls both")

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        kernels = project.module_named(KERNELS_MODULE)
        if kernels is None:
            return
        twin_homes: Dict[str, str] = {}
        calls: Dict[str, FrozenSet[str]] = {}
        for path, source in project.test_sources.items():
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue
            calls[path] = _called_names(tree)
            if path.startswith(ORACLES_DIR):
                for node in tree.body:
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        twin_homes.setdefault(node.name, path)
        for node in kernels.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_") or node.name.endswith("_reference"):
                continue
            twin = f"{node.name}_reference"
            home = twin_homes.get(twin)
            if home is None:
                yield self.finding(
                    kernels, node,
                    f"public kernel '{node.name}' has no pure-Python "
                    f"'{twin}' twin in {ORACLES_DIR}")
                continue
            if not any(node.name in names and twin in names
                       for path, names in calls.items() if path != home):
                yield self.finding(
                    kernels, node,
                    f"kernel/reference pair '{node.name}'/'{twin}' is "
                    f"not called together by any test module other "
                    f"than {home}")
