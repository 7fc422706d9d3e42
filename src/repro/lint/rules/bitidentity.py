"""RL009: no order nondeterminism in bit-identity-gated code.

The chaos and resume harnesses assert byte-identical artifacts across
reruns, worker counts, and crash/resume schedules; the golden tests pin
exact bytes per seed.  Two stdlib habits silently break that gate:

* iterating a ``set``/``frozenset`` (iteration order varies with the
  per-process hash seed),
* enumerating a directory without sorting (``os.listdir``, ``glob``,
  ``Path.iterdir`` return OS order).

Clocks and unseeded RNGs are RL001's: it scans every module this rule
gates, so it is not repeated here.

The rule works on the lowered facts IR: set-typedness is inferred per
function (literals, constructors, ``.union()`` results, set-annotated
parameters, module-level set constants) and propagated through plain
assignments -- loop-variable binds are excluded, so elements of a set
are not themselves set-typed.  ``sorted(...)`` wrappers sanction both
set iteration and directory enumeration.
"""

from __future__ import annotations

from typing import Iterator, Set

from repro.lint.engine import Finding
from repro.lint.rules.base import Rule
from repro.lint.semantics.facts import FunctionFacts, ModuleFacts
from repro.lint.semantics.model import SemanticModel

#: Packages under the bit-identity gate: everything whose output is
#: compared byte-for-byte by the golden/chaos/resume suites.  The CLI
#: (wall-clock progress) and the lint tooling itself are out.
GATED_PREFIXES = (
    "repro.pipeline", "repro.columnar", "repro.sessions",
    "repro.analysis", "repro.apps", "repro.core", "repro.stats",
    "repro.synth", "repro.reliability", "repro.serve",
)

#: Filesystem enumeration with OS-dependent ordering.
FS_ENUM_CALLS = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob", "os.walk",
})
FS_ENUM_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Parameter annotations denoting set types.
_SET_ANNOTATIONS = frozenset({
    "set", "frozenset", "abstractset", "mutableset",
})


def _set_typed_names(fn: FunctionFacts,
                     facts: ModuleFacts) -> Set[str]:
    """Local names that may hold a set, by forward inference."""
    names: Set[str] = set(facts.string_sets)
    for index, annotation in enumerate(fn.param_annotations):
        leaf = annotation.rsplit(".", 1)[-1].lower()
        if leaf in _SET_ANNOTATIONS:
            names.add(fn.params[index])
    changed = True
    while changed:
        changed = False
        for instr in fn.instrs:
            if instr.op != "assign" or instr.how == "iter-bind":
                continue
            if not any(atom.kind == "set"
                       or (atom.kind == "var" and atom.root in names)
                       for atom in instr.atoms):
                continue
            for target in instr.targets:
                if "." not in target and target not in names:
                    names.add(target)
                    changed = True
    return names


class BitIdentityRule(Rule):
    rule_id = "RL009"
    title = ("no set-order iteration or unsorted directory listings in "
             "bit-identity-gated code")
    cache_version = "2"
    needs_semantics = True

    def check_semantics(self,
                        model: SemanticModel) -> Iterator[Finding]:
        for module_name in sorted(model.modules):
            if not module_name.startswith(GATED_PREFIXES):
                continue
            facts = model.modules[module_name]
            for fn in facts.functions:
                yield from self._check_function(fn, facts)

    def _check_function(self, fn: FunctionFacts,
                        facts: ModuleFacts) -> Iterator[Finding]:
        set_names = _set_typed_names(fn, facts)
        for instr in fn.instrs:
            if instr.op == "iterate" and not instr.sorted_wrapped:
                culprit = next(
                    (atom for atom in instr.atoms
                     if atom.kind == "set"
                     or (atom.kind == "var" and atom.root in set_names)),
                    None)
                if culprit is not None:
                    what = ("a set expression" if culprit.kind == "set"
                            else f"set '{culprit.root}'")
                    yield self.finding_at(
                        facts.relpath, instr.line, instr.col,
                        f"{fn.qualname} iterates {what} whose order "
                        f"depends on the hash seed; wrap the iterable "
                        f"in sorted() to keep output bit-identical")
            if instr.op != "call" or instr.call is None:
                continue
            call = instr.call
            callee = call.callee
            if (callee in FS_ENUM_CALLS
                    or (not callee and call.method in FS_ENUM_METHODS)) \
                    and not call.sorted_wrapped:
                name = callee or f"<path>.{call.method}"
                yield self.finding_at(
                    facts.relpath, call.line, call.col,
                    f"{fn.qualname} enumerates a directory via {name}() "
                    f"without sorted(); filesystem order is not "
                    f"deterministic across hosts")
