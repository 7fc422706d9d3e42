"""Unit tests for the semantic-analysis layer as an API of its own.

These exercise :mod:`repro.lint.semantics` directly -- facts lowering,
symbol/export resolution and call-graph reachability -- independent of
any lint rule, because the layer is a documented API other tooling may
build on.
"""

import pickle
from textwrap import dedent

from repro.lint.engine import build_index
from repro.lint.semantics import (
    CallGraph,
    extract_module_facts,
    iter_atoms,
    model_for,
)


def _model(mini_repo):
    return model_for(build_index(mini_repo.root))


def _module_facts(mini_repo, relmodule, source):
    mini_repo.write(relmodule, source)
    index = build_index(mini_repo.root)
    info = index.module_named("repro." + relmodule.replace("/", "."))
    return extract_module_facts(info)


# --- facts lowering ---------------------------------------------------------

def test_facts_capture_assign_call_and_return(mini_repo):
    facts = _module_facts(mini_repo, "util/demo", """\
        import json

        def render(record):
            label = record.name
            return json.dumps(label)
        """)
    (fn,) = facts.functions
    ops = [instr.op for instr in fn.instrs]
    assert "assign" in ops and "call" in ops and "return" in ops
    call = next(i.call for i in fn.instrs if i.op == "call")
    assert call.callee == "json.dumps"


def test_facts_mark_sorted_wrappers_and_iter_binds(mini_repo):
    facts = _module_facts(mini_repo, "util/demo", """\
        import os

        def names(directory):
            out = []
            for name in sorted(os.listdir(directory)):
                out.append(name)
            return out
        """)
    (fn,) = facts.functions
    listdir = next(i.call for i in fn.instrs
                   if i.op == "call" and i.call.callee == "os.listdir")
    assert listdir.sorted_wrapped
    binds = [i for i in fn.instrs
             if i.op == "assign" and i.how == "iter-bind"]
    assert any("name" in i.targets for i in binds)


def test_facts_keep_unresolvable_call_bases_as_extra_atoms(mini_repo):
    # `text.strip().lower()`: the outer call's base is itself a call,
    # so it has no dotted path -- its atoms must survive in `extra` or
    # name tracking (RL012's staged paths) breaks mid-expression.
    facts = _module_facts(mini_repo, "util/demo", """\
        def norm(text):
            return text.strip().lower()
        """)
    (fn,) = facts.functions
    outer = next(i.call for i in fn.instrs
                 if i.op == "call" and i.call.method == "lower")
    assert outer.extra
    # The extra atom references the inner strip() call, whose receiver
    # is the parameter -- so the chain param -> strip -> lower stays
    # connected.
    inner = next(i.call for i in fn.instrs
                 if i.op == "call" and i.call.method == "strip")
    assert inner.receiver == "text"
    assert any(atom.kind == "call" and atom.root == str(inner.call_id)
               for atom in outer.extra)


def test_facts_read_module_level_string_sets(mini_repo):
    facts = _module_facts(mini_repo, "util/demo", """\
        FIELDS = frozenset({"b", "a"})
        """)
    assert set(facts.string_sets["FIELDS"]) == {"a", "b"}


def test_facts_are_picklable(mini_repo):
    facts = _module_facts(mini_repo, "util/demo", """\
        def add(a, b):
            return a + b
        """)
    clone = pickle.loads(pickle.dumps(facts, protocol=4))
    assert clone.functions[0].qualname == facts.functions[0].qualname


# --- symbol table / call resolution ----------------------------------------

def test_model_resolves_reexport_chains(mini_repo):
    mini_repo.write("inner/impl", """\
        def work():
            return 1
        """)
    mini_repo.write("inner/api", """\
        from repro.inner.impl import work
        """)
    mini_repo.write("outer/use", """\
        from repro.inner.api import work

        def call():
            return work()
        """)
    model = _model(mini_repo)
    assert model.resolve_export("repro.inner.api.work") \
        == "repro.inner.impl.work"
    fn = model.functions["repro.outer.use.call"]
    call = next(i.call for i in fn.instrs if i.op == "call")
    kind, target = model.resolve_callee(fn, call)
    assert kind == "project"
    assert target == "repro.inner.impl.work"


def test_callgraph_reachability_crosses_modules(mini_repo):
    mini_repo.write("a/root", """\
        from repro.b.leaf import helper

        def entry():
            return helper()
        """)
    mini_repo.write("b/leaf", """\
        def helper():
            return lonely()

        def lonely():
            return 1

        def unreachable():
            return 2
        """)
    model = _model(mini_repo)
    graph = CallGraph(model)
    roots = graph.functions_in_modules(("repro.a",))
    reached = set(graph.reachable_from(roots))
    assert "repro.b.leaf.helper" in reached
    assert "repro.b.leaf.lonely" in reached
    assert "repro.b.leaf.unreachable" not in reached
