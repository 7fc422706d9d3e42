"""RL006: the typed core stays fully annotated, even offline.

CI runs ``mypy`` in strict-leaning mode over the typed-core packages
(``repro.perf``, ``repro.sessions``, ``repro.reliability``,
``repro.lint``, ``repro.serve``, ``repro.columnar`` -- see
``[tool.mypy]`` in pyproject.toml), but mypy is
an optional dependency the runtime image does not carry.  This rule
enforces the load-bearing prerequisite locally with zero dependencies:
every function in a typed-core module annotates every parameter and
its return type (``self``/``cls`` excepted), so strict mypy in CI
starts from "checkable everywhere" rather than "silently skipped".
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.engine import Finding, ModuleInfo
from repro.lint.rules.base import Rule

#: Packages held to full annotation coverage.
CORE_PREFIXES = (
    "repro.perf", "repro.sessions", "repro.reliability", "repro.lint",
    "repro.serve", "repro.columnar",
)

#: Leading parameters that conventionally go unannotated.
IMPLICIT_FIRST_PARAMS = frozenset({"self", "cls"})


def _missing_annotations(func: ast.AST) -> List[str]:
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    missing: List[str] = []
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    for index, arg in enumerate(positional):
        if index == 0 and arg.arg in IMPLICIT_FIRST_PARAMS:
            continue
        if arg.annotation is None:
            missing.append(arg.arg)
    for arg in args.kwonlyargs:
        if arg.annotation is None:
            missing.append(arg.arg)
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append(f"*{args.vararg.arg}")
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append(f"**{args.kwarg.arg}")
    if func.returns is None:
        missing.append("return")
    return missing


class TypedCoreRule(Rule):
    rule_id = "RL006"
    title = ("typed-core packages (perf/sessions/reliability/lint/"
             "serve/columnar) annotate every parameter and return type")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.module.startswith(CORE_PREFIXES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            missing = _missing_annotations(node)
            if missing:
                yield self.finding(
                    module, node,
                    f"typed-core function '{node.name}' is missing "
                    f"annotations for: {', '.join(missing)}")
