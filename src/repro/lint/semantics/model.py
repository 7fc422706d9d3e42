"""The project-wide semantic model: symbols + call resolution.

A :class:`SemanticModel` is built once per
:class:`~repro.lint.engine.ProjectIndex` (see :func:`model_for`) and
shared by every semantic rule in the run.  It holds the facts of every
module (:mod:`~repro.lint.semantics.facts`), a qualname-indexed symbol
table for functions and classes, and the resolution oracle that turns
a :class:`~repro.lint.semantics.facts.CallFact` into one of:

* ``("project", qualname)`` -- a function/method defined in the
  scanned package (following ``from x import y`` re-export chains and
  mapping ``Class(...)`` onto ``Class.__init__``);
* ``("external", dotted)`` -- a fully named target outside the
  project (``json.dumps``, ``os.replace``, builtins);
* ``("dynamic", method_name)`` -- an attribute call on an unknown
  receiver; conservative clients may bind it to every project method
  of that name;
* ``("unknown", "")`` -- a computed call target.

Facts extraction is the expensive part of a semantic run, so the model
accepts a loader hook -- the on-disk cache in :mod:`repro.lint.cache`
plugs in there, keyed by each file's sha256 -- and the built model is
memoized per index so multi-rule runs lower each module exactly once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.lint.engine import ModuleInfo, ProjectIndex
from repro.lint.semantics.facts import (
    CallFact,
    ClassFacts,
    FunctionFacts,
    ModuleFacts,
    extract_module_facts,
)

#: A pluggable facts loader: returns (possibly cached) facts for a
#: module.  The default extracts in-process.
FactsLoader = Callable[[ModuleInfo], ModuleFacts]

#: Resolution outcomes (see module docstring).
Resolution = Tuple[str, str]

_MAX_EXPORT_HOPS = 8


class SemanticModel:
    """Facts, symbols, and call resolution for one project index."""

    def __init__(self, project: ProjectIndex,
                 loader: Optional[FactsLoader] = None) -> None:
        self.project = project
        load = loader if loader is not None else extract_module_facts
        self.modules: Dict[str, ModuleFacts] = {}
        self.functions: Dict[str, FunctionFacts] = {}
        self.classes: Dict[str, ClassFacts] = {}
        self._methods_by_name: Dict[str, List[str]] = {}
        for info in project.modules:
            facts = load(info)
            self.modules[facts.module] = facts
            for fn in facts.functions:
                self.functions[fn.qualname] = fn
                if fn.class_name:
                    self._methods_by_name.setdefault(
                        fn.name, []).append(fn.qualname)
            for cls in facts.classes.values():
                self.classes[cls.qualname] = cls

    # -- symbol resolution ---------------------------------------------------

    def resolve_export(self, dotted: str) -> str:
        """Follow ``from x import y`` chains to a canonical qualname.

        ``repro.pipeline.FlowDataset`` (a façade re-export) resolves to
        ``repro.pipeline.dataset.FlowDataset``; names that never land
        on a project symbol come back unchanged.
        """
        current = dotted
        for _ in range(_MAX_EXPORT_HOPS):
            if current in self.functions or current in self.classes:
                return current
            module, _, leaf = current.rpartition(".")
            if not module:
                return current
            # `module.Class.method`: resolve the class, re-attach leaf.
            head_module, _, cls_leaf = module.rpartition(".")
            facts = self.modules.get(module)
            if facts is None and head_module:
                owner = self.resolve_export(module) \
                    if module != current else module
                if owner != module and f"{owner}.{leaf}" != current:
                    current = f"{owner}.{leaf}"
                    continue
                facts = self.modules.get(head_module)
                if facts is not None and cls_leaf in facts.imports:
                    current = f"{facts.imports[cls_leaf]}.{leaf}"
                    continue
                return current
            if facts is not None and leaf in facts.imports:
                current = facts.imports[leaf]
                continue
            return current
        return current

    def method_on(self, class_qualname: str,
                  method: str) -> Optional[str]:
        """Resolve a method through the project class hierarchy."""
        seen: set = set()
        stack = [class_qualname]
        while stack:
            qualname = stack.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            resolved = self.resolve_export(qualname)
            cls = self.classes.get(resolved)
            if cls is None:
                continue
            if method in cls.methods:
                return f"{resolved}.{method}"
            stack.extend(cls.bases)
        return None

    def methods_named(self, name: str) -> Tuple[str, ...]:
        """Every project method with this bare name (dynamic dispatch)."""
        return tuple(self._methods_by_name.get(name, ()))

    def resolve_callee(self, fn: FunctionFacts,
                       call: CallFact) -> Resolution:
        """Resolve one call site (see module docstring for outcomes)."""
        if call.callee.startswith(("self.", "cls.")) and fn.class_name:
            owner = f"{fn.module}.{fn.class_name}"
            target = self.method_on(owner, call.method)
            if target is not None:
                return "project", target
            return "dynamic", call.method
        if call.callee:
            resolved = self.resolve_export(call.callee)
            if resolved in self.functions:
                return "project", resolved
            if resolved in self.classes:
                init = self.method_on(resolved, "__init__")
                if init is not None:
                    return "project", init
                return "external", resolved
            return "external", resolved
        if call.method:
            return "dynamic", call.method
        return "unknown", ""


_MODEL_CACHE: List[Tuple[int, ProjectIndex, SemanticModel]] = []
_MODEL_CACHE_MAX = 4


def model_for(project: ProjectIndex,
              loader: Optional[FactsLoader] = None) -> SemanticModel:
    """The memoized model for an index (builds on first request).

    The cache keys on object identity and pins the index via the model
    itself, so entries stay valid for the index objects still alive in
    the run; a custom ``loader`` is only honored on the building call.
    """
    key = id(project)
    for cached_key, cached_project, model in _MODEL_CACHE:
        if cached_key == key and cached_project is project:
            return model
    model = SemanticModel(project, loader)
    _MODEL_CACHE.append((key, project, model))
    del _MODEL_CACHE[:-_MODEL_CACHE_MAX]
    return model
