"""Rule interface for ``reprolint``.

A rule sees either one module at a time (:meth:`Rule.check_module`) or
the whole :class:`~repro.lint.engine.ProjectIndex`
(:meth:`Rule.check_project`); most rules implement exactly one of the
two.  Rules yield :class:`~repro.lint.engine.Finding` objects and never
mutate anything -- suppression (pragmas, baseline) is the engine's job,
so every rule stays a pure function of the parsed source.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Finding, ModuleInfo, ProjectIndex


class Rule:
    """Base class; subclasses set ``rule_id``/``title`` and override
    one of the two check hooks."""

    #: Stable identifier, e.g. ``RL001``; used by --rule, pragmas and
    #: the baseline file.
    rule_id: str = ""
    #: One-line human description shown by ``--list-rules``.
    title: str = ""
    #: Bump when the rule's logic changes so cached per-module
    #: findings (see :mod:`repro.lint.cache`) are invalidated.
    cache_version: str = "1"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        return iter(())

    def finding(self, module: ModuleInfo, node: ast.AST,
                message: str) -> Finding:
        """A finding anchored at ``node`` in ``module``."""
        return Finding(
            rule=self.rule_id,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )
