"""RL007: no per-row Python loops in ``repro.columnar`` hot paths.

The columnar ingest core (PR 8) exists to replace the per-flow object
loop with batch vector operations; a ``for`` loop that walks flow
records row by row inside those modules quietly re-introduces the exact
cost the subsystem removed.  This rule flags row-scale iteration --
loops over burst/record/flow collections, over ``range(...n)`` /
``range(len(...))``, or over ``np.flatnonzero(...)`` index sets -- in
any ``repro.columnar`` module.  Row-at-a-time surfaces (materializing
``ConnRecord`` rows, scalar point queries) belong with the test-side
oracles under ``tests/oracles/``, not in the package.  Loops over
*distinct-value* tables (protocol names, interned domains) iterate
other shapes and are not matched.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.engine import Finding, ModuleInfo
from repro.lint.rules.base import Rule

#: Package whose modules are held loop-free on the hot path.
COLUMNAR_PACKAGE = "repro.columnar"

#: Bare names that conventionally bind row-object collections.
ROW_COLLECTION_NAMES = frozenset(
    {"bursts", "records", "rows", "flows", "conn_records"})


def _is_row_scale(node: ast.AST) -> bool:
    """Whether an iterable expression walks batch rows one by one."""
    if isinstance(node, ast.Name):
        return node.id in ROW_COLLECTION_NAMES
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "range":
            # range(n) / range(self.n) / range(len(rows)): the classic
            # index-walk over a batch-sized column.
            for arg in node.args:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Attribute) and sub.attr == "n":
                        return True
                    if (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Name)
                            and sub.func.id == "len"):
                        return True
            return False
        if func.id in ("enumerate", "reversed", "sorted", "zip", "map"):
            return any(_is_row_scale(arg) for arg in node.args)
    if isinstance(func, ast.Attribute) and func.attr == "flatnonzero":
        # Iterating np.flatnonzero(mask) is a per-selected-row loop.
        return True
    return False


class RowLoopRule(Rule):
    rule_id = "RL007"
    title = ("no per-row for loops over flow records in repro.columnar "
             "hot paths")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.module.startswith(COLUMNAR_PACKAGE):
            return
        for node in ast.walk(module.tree):
            iterables: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iterables.extend(g.iter for g in node.generators)
            for iterable in iterables:
                if _is_row_scale(iterable):
                    yield self.finding(
                        module, node,
                        "per-row loop over flow records in a columnar "
                        "hot path; vectorize it, or move the row-at-a-"
                        "time surface to a test-side oracle")
