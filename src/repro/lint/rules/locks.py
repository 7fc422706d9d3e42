"""RL005: memoized cache fields are written only under the owner's lock.

``AnalysisContext`` is shared by concurrent serve threads, and its
compute-at-most-once guarantee rests on every cache write happening
inside ``with self._lock``.  That is exactly the kind of invariant a
test can only sample -- a race that corrupts a memo table will not
show up on a two-thread CI box -- so this rule checks it lexically: in
any class that constructs a ``self._lock``, every assignment to an
underscore-prefixed ``self._*`` attribute (or into one, via
subscript) outside ``__init__``/``__post_init__`` must sit inside a
``with self._lock:`` block.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Union

from repro.lint.engine import Finding, ModuleInfo
from repro.lint.rules.base import Rule

#: Methods that run before the object is shared; unlocked writes fine.
CONSTRUCTION_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_self_lock(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute)
            and node.attr == "_lock"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _has_self_lock(cls: ast.ClassDef) -> bool:
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            if any(_is_self_lock(target) for target in node.targets):
                return True
        elif isinstance(node, ast.AnnAssign):
            if _is_self_lock(node.target):
                return True
    return False


def _cache_write_target(node: ast.expr) -> Union[str, None]:
    """The ``self._attr`` name a store targets, unwrapping subscripts."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr.startswith("_")
            and node.attr != "_lock"):
        return node.attr
    return None


class LockDisciplineRule(Rule):
    rule_id = "RL005"
    title = ("in classes owning a self._lock, cache-field writes happen "
             "only inside 'with self._lock' blocks")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _has_self_lock(node):
                yield from self._check_class(module, node)

    def _check_class(self, module: ModuleInfo,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if item.name in CONSTRUCTION_METHODS:
                continue
            yield from self._walk(module, cls, item.body, locked=False)

    def _walk(self, module: ModuleInfo, cls: ast.ClassDef,
              body: List[ast.stmt], locked: bool) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = locked or any(
                    _is_self_lock(entry.context_expr)
                    for entry in stmt.items)
                yield from self._walk(module, cls, stmt.body, inner)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested function may be called later, outside the
                # lock; require it to take the lock itself.
                yield from self._walk(module, cls, stmt.body, locked=False)
                continue
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets = [stmt.target]
            for target in targets:
                attr = _cache_write_target(target)
                if attr is not None and not locked:
                    yield self.finding(
                        module, stmt,
                        f"{cls.name}.{attr} is written outside a "
                        f"'with self._lock:' block; memoized state must "
                        f"be cache-consistent under concurrent serve "
                        f"threads")
            # Recurse into compound statements (if/for/while/try)
            # without losing the lock state.
            for field_name in ("body", "orelse", "finalbody"):
                sub_body = getattr(stmt, field_name, None)
                if isinstance(sub_body, list) and sub_body and isinstance(
                        sub_body[0], ast.stmt):
                    yield from self._walk(module, cls, sub_body, locked)
            for handler in getattr(stmt, "handlers", []) or []:
                yield from self._walk(module, cls, handler.body, locked)
