"""``repro.lint.semantics``: project-wide semantic analysis for reprolint.

The subpackage turns the per-file AST view of :mod:`repro.lint.engine`
into a whole-program one, in three layers that build on each other:

* :mod:`~repro.lint.semantics.facts` lowers every function into a
  compact, picklable instruction stream (the *facts* IR): assignments
  between value atoms, import-resolved call records, f-string renders
  and iterations.  Facts carry no AST nodes, so they cache to disk
  keyed by file content (see :mod:`repro.lint.cache`).
* :mod:`~repro.lint.semantics.model` assembles the per-module facts
  into a :class:`~repro.lint.semantics.model.SemanticModel`: a
  project-wide symbol table (functions, classes, re-export chains) and
  the call-resolution oracle every client shares.
* :mod:`~repro.lint.semantics.callgraph` derives the call graph and
  reachability from the same resolution.

Rules consume the layer through :func:`model_for`, which memoizes one
model per :class:`~repro.lint.engine.ProjectIndex` so a multi-rule run
pays for extraction once.  Rules run small per-function forward passes
over the IR themselves (RL009's set typing, RL012's staged-path
tracking); there is no interprocedural dataflow.  Reachability is
deliberately conservative at dynamic dispatch: an attribute call on an
unknown receiver may bind to any project method of the same name.
"""

from repro.lint.semantics.callgraph import CallGraph
from repro.lint.semantics.facts import (
    FACTS_VERSION,
    ArgFact,
    Atom,
    CallFact,
    ClassFacts,
    FunctionFacts,
    Instr,
    ModuleFacts,
    extract_module_facts,
    iter_atoms,
)
from repro.lint.semantics.model import SemanticModel, model_for

__all__ = [
    "ArgFact",
    "Atom",
    "CallFact",
    "CallGraph",
    "ClassFacts",
    "FACTS_VERSION",
    "FunctionFacts",
    "Instr",
    "ModuleFacts",
    "SemanticModel",
    "extract_module_facts",
    "iter_atoms",
    "model_for",
]
