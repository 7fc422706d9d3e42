"""RL004: broad exception handlers must route, re-raise, or justify.

PR 2's rule is that failures are never silently swallowed: a malformed
record flows into the quarantine taxonomy, a shard failure is
classified transient/fatal and retried or wrapped, everything else
propagates.  A bare ``except:`` (or ``except Exception/BaseException``)
that simply continues is where that discipline erodes, so this rule
flags every broad handler in ``src/repro`` unless the handler visibly
does one of:

* **re-raise** -- a bare ``raise``, or ``raise X(...) from exc`` where
  ``X`` belongs to the ``repro.reliability`` error taxonomy (directly,
  by import, or by local subclassing);
* **route** -- call the taxonomy's classification/quarantine surface
  (``is_transient``, a ``*.quarantine*`` call, a quarantine sink's
  ``add``/``add_blank``);
* **justify** -- carry ``# reprolint: allow[RL004] -- reason`` on the
  ``except`` line (handled by the engine's pragma layer).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.engine import (
    Finding,
    ModuleInfo,
    dotted_name,
    resolve_call_name,
)
from repro.lint.rules.base import Rule

#: Exception names treated as "broad" when caught.
BROAD_NAMES = frozenset({"Exception", "BaseException"})

#: The reliability taxonomy roots; raising one of these (or a local
#: subclass of one) from a broad handler is sanctioned wrapping.
TAXONOMY_NAMES = frozenset({
    "ReliabilityError", "RecordError", "TransientIOError",
})

#: Call names that classify a failure against the taxonomy.
ROUTING_CALLS = frozenset({"is_transient"})

#: ``.add``/``.add_blank`` route only when called on a receiver whose
#: name marks it as a quarantine sink (``sink.add(err)``); a plain
#: ``seen.add(x)`` in a broad handler proves nothing.
SINK_ADD_METHODS = frozenset({"add", "add_blank"})
SINK_RECEIVER_HINTS = ("sink", "quarantine")


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    for node in types:
        name = dotted_name(node)
        if name is not None and name.split(".")[-1] in BROAD_NAMES:
            return True
    return False


def _taxonomy_class_names(module: ModuleInfo) -> Set[str]:
    """Taxonomy names visible in this module: imported from
    repro.reliability, or locally subclassing a taxonomy name."""
    names = set(TAXONOMY_NAMES)
    for local, origin in module.imports.items():
        if origin.startswith("repro.reliability"):
            names.add(local)
    changed = True
    while changed:  # transitive local subclasses
        changed = False
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or node.name in names:
                continue
            for base in node.bases:
                base_name = dotted_name(base)
                if base_name and base_name.split(".")[-1] in names:
                    names.add(node.name)
                    changed = True
                    break
    return names


def _handler_complies(handler: ast.ExceptHandler, module: ModuleInfo,
                      taxonomy: Set[str]) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            if node.exc is None:
                return True  # bare re-raise
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            name = dotted_name(target)
            if name is not None and name.split(".")[-1] in taxonomy:
                return True
        elif isinstance(node, ast.Call):
            resolved = resolve_call_name(node.func, module.imports)
            terminal = (resolved or "").split(".")[-1]
            if isinstance(node.func, ast.Attribute):
                terminal = node.func.attr
            if terminal in ROUTING_CALLS or "quarantine" in terminal.lower():
                return True
            if (terminal in SINK_ADD_METHODS
                    and isinstance(node.func, ast.Attribute)):
                receiver = dotted_name(node.func.value) or ""
                if any(hint in receiver.lower()
                       for hint in SINK_RECEIVER_HINTS):
                    return True
    return False


class ExceptionDisciplineRule(Rule):
    rule_id = "RL004"
    title = ("broad except blocks must re-raise, route to the "
             "repro.reliability taxonomy, or carry a pragma")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        taxonomy = _taxonomy_class_names(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node):
                continue
            if _handler_complies(node, module, taxonomy):
                continue
            caught = ("bare except" if node.type is None else
                      f"except {ast.unparse(node.type)}")
            yield self.finding(
                module, node,
                f"{caught} neither re-raises nor routes to the "
                f"repro.reliability quarantine/retry taxonomy; narrow "
                f"it or annotate with "
                f"'# reprolint: allow[RL004] -- <reason>'")
