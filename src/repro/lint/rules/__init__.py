"""Rule registry for ``reprolint``.

Adding a rule: write a module here subclassing
:class:`~repro.lint.rules.base.Rule` with a unique ``rule_id``, append
an instance to :data:`ALL_RULES`, document it in
``docs/ARCHITECTURE.md`` / ``docs/LINTING.md``, and add
positive/negative fixtures in ``tests/lint/test_rules.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.lint.rules.anonymization import AnonymizationTaintRule
from repro.lint.rules.base import Rule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.exceptions import ExceptionDisciplineRule
from repro.lint.rules.kernel_twins import KernelTwinsRule
from repro.lint.rules.locks import LockDisciplineRule
from repro.lint.rules.rowloops import RowLoopRule
from repro.lint.rules.typed_core import TypedCoreRule

#: Every registered rule, in rule-id order (retired ids stay unused:
#: RL008-RL012 are now runtime checks on real runs, see docs/LINTING.md).
ALL_RULES: Sequence[Rule] = (
    DeterminismRule(),
    AnonymizationTaintRule(),
    KernelTwinsRule(),
    ExceptionDisciplineRule(),
    LockDisciplineRule(),
    TypedCoreRule(),
    RowLoopRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}


def select_rules(rule_ids: Optional[Sequence[str]]) -> List[Rule]:
    """The requested rules (all of them for ``None``).

    Each entry may itself be comma-separated (``"RL001,RL004"``), so
    ``--rule RL001,RL004`` and ``--rule RL001 --rule RL004`` are
    equivalent.  Raises ``KeyError`` naming *every* unknown id at
    once, so a typo-ridden invocation is fixed in one round trip.
    """
    if not rule_ids:
        return list(ALL_RULES)
    requested: List[str] = []
    for entry in rule_ids:
        requested.extend(
            part.strip() for part in entry.split(",") if part.strip())
    unknown = [rule_id for rule_id in requested
               if rule_id.upper() not in RULES_BY_ID]
    if unknown:
        known = ", ".join(sorted(RULES_BY_ID))
        listed = ", ".join(repr(rule_id) for rule_id in unknown)
        raise KeyError(
            f"unknown rule(s) {listed}; known rules: {known}")
    return [RULES_BY_ID[rule_id.upper()] for rule_id in requested]


__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "Rule",
    "select_rules",
]
