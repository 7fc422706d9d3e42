"""The facts IR: picklable per-module semantic summaries of the AST.

Every function body is lowered into a flat tuple of :class:`Instr`
records over :class:`Atom` value references.  The lowering keeps just
enough structure for the semantic rules -- which names flow into
which, where calls/renders/iterations happen, and what each call
resolved to through the module's imports -- while dropping the AST
itself, so a module's facts pickle compactly and cache on disk
keyed by the file's content hash (bump :data:`FACTS_VERSION` whenever
the lowering changes shape or meaning).

Atoms name the possible *origins* of a value:

* ``var``   -- a local/parameter read (``root`` is the name);
* ``attr``  -- an attribute read (``root`` is the dotted base path,
  e.g. ``"self.config"``; ``getattr(x, "lit")`` lowers here too);
* ``call``  -- the result of the call whose id is in ``root``;
* ``set``   -- a syntactically set-typed constructor (set/frozenset
  literals, set comprehensions, ``set(...)`` calls, ``.union(...)``).

The lowering is a *may* abstraction: compound expressions union the
atoms of their operands, tuple targets all receive the full right-hand
side, and loops/branches impose no kill information.  Rules that
propagate names over the IR therefore over-approximate, never miss.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.engine import ModuleInfo

#: Cache schema version for pickled :class:`ModuleFacts`.
FACTS_VERSION = 3

#: Call targets whose only effect is ordering/shaping their argument;
#: descending into their arguments keeps `sorted(...)` wrappers visible
#: to order-sensitivity rules.
_SORT_WRAPPERS = frozenset({"sorted"})

#: Methods whose result is set-typed when called on anything.
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})

#: Constructors producing set-typed values.
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})


@dataclass(frozen=True)
class Atom:
    """One possible origin of a value inside an expression."""

    kind: str            # "var" | "attr" | "call" | "set"
    root: str = ""       # var name, attr base path, or call id
    attr: str = ""       # attribute name for kind == "attr"
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class ArgFact:
    """One call argument: its atoms plus literal value when constant."""

    atoms: Tuple[Atom, ...]
    const: Optional[str] = None   # str() of a literal argument
    keyword: str = ""             # keyword name, "" for positional


@dataclass(frozen=True)
class CallFact:
    """One call site, import-resolved as far as syntax allows.

    ``callee`` is the resolved dotted target (``"json.dumps"``,
    ``"repro.pipeline.dataset.build"``, ``"self.helper"``) or ``""``
    when the target is a method on an arbitrary object; then
    ``receiver``/``method`` carry the receiver's dotted base path and
    the method name (``other._index`` / ``update``).
    """

    call_id: int
    callee: str
    receiver: str
    method: str
    args: Tuple[ArgFact, ...]
    line: int
    col: int
    #: The call appears directly as an argument of ``sorted(...)``.
    sorted_wrapped: bool = False
    #: Atoms of an unresolvable callee base (``x().strip()``,
    #: ``handlers[k](...)``): the value the call is *on*, kept so label
    #: chains survive method calls on intermediate results.
    extra: Tuple[Atom, ...] = ()


@dataclass(frozen=True)
class Instr:
    """One lowered operation inside a function body.

    ``op`` is one of ``assign`` (targets get the atoms), ``return``,
    ``call`` (see :attr:`call`), ``render`` (an f-string/format
    interpolation of the atoms), ``iterate`` (a for-loop or
    comprehension walking the atoms), and ``use`` (the atoms are read
    and the value dropped: a branch or assert test, a comprehension
    filter, a raised exception or a bare expression statement).
    """

    op: str
    targets: Tuple[str, ...] = ()
    atoms: Tuple[Atom, ...] = ()
    call: Optional[CallFact] = None
    line: int = 0
    col: int = 0
    #: On an assign, "iter-bind" when the target is a loop variable.
    how: str = ""
    #: For ``iterate``: the iterable is already wrapped in sorted(...).
    sorted_wrapped: bool = False


@dataclass(frozen=True)
class FunctionFacts:
    """The IR of one function or method."""

    qualname: str                       # repro.mod.Class.method
    module: str
    name: str
    class_name: str                     # "" at module level
    params: Tuple[str, ...]
    param_annotations: Tuple[str, ...]  # import-resolved dotted, or ""
    instrs: Tuple[Instr, ...]

    def param_index(self, name: str) -> Optional[int]:
        """Position of a parameter (also resolving keyword args)."""
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass(frozen=True)
class ClassFacts:
    """Name, resolved bases, and method names of one class."""

    name: str
    qualname: str
    bases: Tuple[str, ...]
    methods: Tuple[str, ...]


@dataclass(frozen=True)
class ModuleFacts:
    """Everything the semantic layer keeps about one module."""

    module: str
    relpath: str
    functions: Tuple[FunctionFacts, ...]
    classes: Dict[str, ClassFacts] = field(default_factory=dict)
    #: Module-level ``NAME = frozenset({"a", ...})`` string-set
    #: constants (rules read policy sets like NON_SEMANTIC_FIELDS from
    #: the *scanned* project, not the running one).
    string_sets: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    imports: Dict[str, str] = field(default_factory=dict)


def _path_of(node: ast.expr) -> Optional[str]:
    """Dotted path of a Name/Attribute chain, else None."""
    parts: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if isinstance(cursor, ast.Name):
        parts.append(cursor.id)
        return ".".join(reversed(parts))
    return None


class _FunctionLowering:
    """Lowers one function body to an :class:`Instr` stream."""

    def __init__(self, extractor: "_ModuleExtractor") -> None:
        self._extractor = extractor
        self.instrs: List[Instr] = []
        self._next_call = 0

    # -- expressions --------------------------------------------------------

    def atoms(self, node: Optional[ast.expr],
              in_sorted: bool = False) -> Tuple[Atom, ...]:
        """Atoms of an expression, emitting call/render instrs inline."""
        if node is None:
            return ()
        if isinstance(node, ast.Name):
            return (Atom("var", node.id, line=node.lineno,
                         col=node.col_offset),)
        if isinstance(node, ast.Attribute):
            base = _path_of(node.value)
            inner: Tuple[Atom, ...] = ()
            if base is None:
                inner = self.atoms(node.value)
                base = ""
            return inner + (Atom("attr", base, node.attr,
                                 line=node.lineno, col=node.col_offset),)
        if isinstance(node, ast.Call):
            return self._call(node, in_sorted)
        if isinstance(node, ast.JoinedStr):
            rendered: List[Atom] = []
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    rendered.extend(self.atoms(value.value))
            if rendered:
                self.instrs.append(Instr(
                    "render", atoms=tuple(rendered),
                    line=node.lineno, col=node.col_offset))
            return tuple(rendered)
        if isinstance(node, (ast.Set,)):
            atoms = self._union(node.elts)
            return atoms + (Atom("set", line=node.lineno,
                                 col=node.col_offset),)
        if isinstance(node, ast.SetComp):
            atoms = self._comprehension(node.generators, [node.elt])
            return atoms + (Atom("set", line=node.lineno,
                                 col=node.col_offset),)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._comprehension(node.generators, [node.elt])
        if isinstance(node, ast.DictComp):
            return self._comprehension(node.generators,
                                       [node.key, node.value])
        if isinstance(node, ast.BoolOp):
            return self._union(node.values)
        if isinstance(node, ast.BinOp):
            return self._union([node.left, node.right])
        if isinstance(node, ast.UnaryOp):
            return self.atoms(node.operand)
        if isinstance(node, ast.Compare):
            return self._union([node.left, *node.comparators])
        if isinstance(node, ast.IfExp):
            return self._union([node.body, node.test, node.orelse])
        if isinstance(node, ast.Subscript):
            return self._union([node.value, node.slice])
        if isinstance(node, (ast.List, ast.Tuple)):
            return self._union(node.elts)
        if isinstance(node, ast.Dict):
            elems = [k for k in node.keys if k is not None]
            return self._union([*elems, *node.values])
        if isinstance(node, ast.Starred):
            return self.atoms(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.atoms(node.value)  # type: ignore[arg-type]
        if isinstance(node, ast.Yield):
            return self.atoms(node.value)
        if isinstance(node, ast.Slice):
            return self._union(
                [e for e in (node.lower, node.upper, node.step)
                 if e is not None])
        if isinstance(node, ast.NamedExpr):
            atoms = self.atoms(node.value)
            self.instrs.append(Instr(
                "assign", targets=(node.target.id,), atoms=atoms,
                line=node.lineno, col=node.col_offset))
            return atoms
        if isinstance(node, ast.Lambda):
            return ()
        if isinstance(node, ast.Constant):
            return ()
        return self._union(
            [child for child in ast.iter_child_nodes(node)
             if isinstance(child, ast.expr)])

    def _union(self, nodes: List[ast.expr]) -> Tuple[Atom, ...]:
        atoms: List[Atom] = []
        for node in nodes:
            atoms.extend(self.atoms(node))
        return tuple(atoms)

    def _comprehension(self, generators: List[ast.comprehension],
                       elements: List[ast.expr]) -> Tuple[Atom, ...]:
        for gen in generators:
            iter_atoms = self.atoms(gen.iter)
            wrapped = self._is_sorted_call(gen.iter)
            self.instrs.append(Instr(
                "iterate", atoms=iter_atoms, line=gen.iter.lineno,
                col=gen.iter.col_offset, sorted_wrapped=wrapped))
            self._bind_target(gen.target, iter_atoms, how="iter-bind")
            for cond in gen.ifs:
                self._use(cond)
        return self._union(elements)

    def _is_sorted_call(self, node: ast.expr) -> bool:
        return (isinstance(node, ast.Call)
                and self._extractor.resolve_name(node.func)
                in _SORT_WRAPPERS)

    def _call(self, node: ast.Call,
              in_sorted: bool) -> Tuple[Atom, ...]:
        extractor = self._extractor
        callee, receiver, method = extractor.callee_of(node.func)
        extra: Tuple[Atom, ...] = ()
        if not callee and not receiver:
            if isinstance(node.func, ast.Attribute):
                extra = self.atoms(node.func.value)
                method = method or node.func.attr
            elif not isinstance(node.func, ast.Name):
                extra = self.atoms(node.func)
        descend_sorted = callee in _SORT_WRAPPERS
        args: List[ArgFact] = []
        for arg in node.args:
            const = (str(arg.value)
                     if isinstance(arg, ast.Constant) else None)
            args.append(ArgFact(self.atoms(arg, descend_sorted),
                                const=const))
        for kw in node.keywords:
            const = (str(kw.value.value)
                     if isinstance(kw.value, ast.Constant) else None)
            args.append(ArgFact(self.atoms(kw.value, descend_sorted),
                                const=const, keyword=kw.arg or "**"))
        call_id = self._next_call
        self._next_call += 1
        fact = CallFact(
            call_id=call_id, callee=callee, receiver=receiver,
            method=method, args=tuple(args),
            line=node.lineno, col=node.col_offset,
            sorted_wrapped=in_sorted, extra=extra)
        self.instrs.append(Instr("call", call=fact, line=node.lineno,
                                 col=node.col_offset))
        atoms: List[Atom] = [Atom("call", str(call_id),
                                  line=node.lineno, col=node.col_offset)]
        if (callee in _SET_CONSTRUCTORS
                or (method in _SET_METHODS and not callee)):
            atoms.append(Atom("set", line=node.lineno,
                              col=node.col_offset))
        if callee == "getattr" and len(node.args) >= 2:
            base = _path_of(node.args[0])
            name_arg = node.args[1]
            if base is not None and isinstance(name_arg, ast.Constant) \
                    and isinstance(name_arg.value, str):
                atoms.append(Atom("attr", base, name_arg.value,
                                  line=node.lineno, col=node.col_offset))
        return tuple(atoms)

    # -- statements ---------------------------------------------------------

    def _bind_target(self, target: ast.expr, atoms: Tuple[Atom, ...],
                     how: str = "") -> None:
        if isinstance(target, ast.Name):
            self.instrs.append(Instr(
                "assign", targets=(target.id,), atoms=atoms, how=how,
                line=target.lineno, col=target.col_offset))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, atoms, how)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, atoms, how)
        elif isinstance(target, ast.Attribute):
            path = _path_of(target)
            if path is not None:
                self.instrs.append(Instr(
                    "assign", targets=(path,), atoms=atoms,
                    line=target.lineno, col=target.col_offset))
        elif isinstance(target, ast.Subscript):
            self.atoms(target.slice)
            base = _path_of(target.value)
            if base is not None:
                # Storing into x[k] flows the value into x.
                self.instrs.append(Instr(
                    "assign", targets=(base,), atoms=atoms,
                    line=target.lineno, col=target.col_offset))
            else:
                self.atoms(target.value)

    def lower_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _use(self, node: Optional[ast.expr]) -> None:
        """Lower an expression whose value is read, then dropped."""
        if node is not None:
            self.instrs.append(Instr(
                "use", atoms=self.atoms(node),
                line=node.lineno, col=node.col_offset))

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            atoms = self.atoms(node.value)
            for target in node.targets:
                self._bind_target(target, atoms)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._bind_target(node.target, self.atoms(node.value))
        elif isinstance(node, ast.AugAssign):
            self._bind_target(node.target, self.atoms(node.value))
        elif isinstance(node, ast.Return):
            self.instrs.append(Instr(
                "return", atoms=self.atoms(node.value),
                line=node.lineno, col=node.col_offset))
        elif isinstance(node, ast.Expr):
            self._use(node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            iter_atoms = self.atoms(node.iter)
            self.instrs.append(Instr(
                "iterate", atoms=iter_atoms, line=node.iter.lineno,
                col=node.iter.col_offset,
                sorted_wrapped=self._is_sorted_call(node.iter)))
            self._bind_target(node.target, iter_atoms, how="iter-bind")
            self.lower_body(node.body)
            self.lower_body(node.orelse)
        elif isinstance(node, (ast.While, ast.If)):
            self._use(node.test)
            self.lower_body(node.body)
            self.lower_body(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                atoms = self.atoms(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, atoms)
            self.lower_body(node.body)
        elif isinstance(node, ast.Try):
            self.lower_body(node.body)
            for handler in node.handlers:
                self.lower_body(handler.body)
            self.lower_body(node.orelse)
            self.lower_body(node.finalbody)
        elif isinstance(node, ast.Raise):
            self._use(node.exc)
        elif isinstance(node, ast.Assert):
            self._use(node.test)
            self._use(node.msg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._extractor.lower_function(
                node, class_name="", parent=None)
        # Import/Global/Nonlocal/Pass/Break/Continue/ClassDef/Delete:
        # no facts.


class _ModuleExtractor:
    """Extracts :class:`ModuleFacts` from one parsed module."""

    def __init__(self, info: ModuleInfo) -> None:
        self._info = info
        self.functions: List[FunctionFacts] = []
        self.classes: Dict[str, ClassFacts] = {}
        self.string_sets: Dict[str, Tuple[str, ...]] = {}
        self._toplevel: Dict[str, str] = {}  # local name -> kind

    # -- name resolution ----------------------------------------------------

    def resolve_name(self, node: ast.expr) -> str:
        """Import-resolved dotted name of an expression, or ''."""
        path = _path_of(node)
        if path is None:
            return ""
        head, _, rest = path.partition(".")
        origin = self._info.imports.get(head)
        if origin is not None:
            return f"{origin}.{rest}" if rest else origin
        return path

    def callee_of(self, func: ast.expr) -> Tuple[str, str, str]:
        """(callee, receiver, method) of a call target expression."""
        path = _path_of(func)
        if path is None:
            return "", "", ""
        head, _, rest = path.partition(".")
        if head in ("self", "cls"):
            if rest and "." not in rest:
                return path, head, rest
            receiver, _, method = path.rpartition(".")
            return "", receiver, method
        origin = self._info.imports.get(head)
        if origin is not None:
            resolved = f"{origin}.{rest}" if rest else origin
            return resolved, "", path.rpartition(".")[2] if rest else ""
        if not rest:
            if head in self._toplevel:
                return f"{self._info.module}.{head}", "", ""
            return head, "", ""   # builtin / unknown bare name
        receiver, _, method = path.rpartition(".")
        if receiver in self._toplevel:
            # Method on a module-level class/function object.
            return f"{self._info.module}.{path}", "", method
        return "", receiver, method

    # -- lowering -----------------------------------------------------------

    def lower_function(self, node: ast.AST, class_name: str,
                       parent: Optional[str]) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        pieces = [self._info.module]
        if class_name:
            pieces.append(class_name)
        if parent:
            pieces.append(parent)
        pieces.append(node.name)
        qualname = ".".join(pieces)
        args = node.args
        ordered = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        if args.vararg is not None:
            ordered.append(args.vararg)
        if args.kwarg is not None:
            ordered.append(args.kwarg)
        params = tuple(arg.arg for arg in ordered)
        annotations = tuple(
            self.resolve_name(arg.annotation)
            if arg.annotation is not None else ""
            for arg in ordered)
        lowering = _FunctionLowering(self)
        lowering.lower_body(node.body)
        self.functions.append(FunctionFacts(
            qualname=qualname,
            module=self._info.module,
            name=node.name,
            class_name=class_name,
            params=params,
            param_annotations=annotations,
            instrs=tuple(lowering.instrs),
        ))
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.lower_function(child, class_name, parent=node.name)

    def _string_set(self, node: ast.expr) -> Optional[Tuple[str, ...]]:
        elements: Optional[List[ast.expr]] = None
        if isinstance(node, ast.Call):
            name = self.resolve_name(node.func)
            if name in _SET_CONSTRUCTORS and len(node.args) == 1 \
                    and isinstance(node.args[0], (ast.Set, ast.List,
                                                  ast.Tuple)):
                elements = node.args[0].elts
        elif isinstance(node, ast.Set):
            elements = node.elts
        if elements is None:
            return None
        values: List[str] = []
        for element in elements:
            if not (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                return None
            values.append(element.value)
        return tuple(values)

    def extract(self) -> ModuleFacts:
        tree = self._info.tree
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._toplevel[node.name] = "function"
            elif isinstance(node, ast.ClassDef):
                self._toplevel[node.name] = "class"
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.lower_function(node, class_name="", parent=None)
            elif isinstance(node, ast.ClassDef):
                self._lower_class(node)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    values = self._string_set(node.value)
                    if values is not None:
                        self.string_sets[target.id] = values
        return ModuleFacts(
            module=self._info.module,
            relpath=self._info.relpath,
            functions=tuple(self.functions),
            classes=self.classes,
            string_sets=self.string_sets,
            imports=dict(self._info.imports),
        )

    def _lower_class(self, node: ast.ClassDef) -> None:
        methods: List[str] = []
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(child.name)
                self.lower_function(child, class_name=node.name,
                                    parent=None)
        bases = tuple(
            resolved for resolved in
            (self.resolve_name(base) for base in node.bases) if resolved)
        self.classes[node.name] = ClassFacts(
            name=node.name,
            qualname=f"{self._info.module}.{node.name}",
            bases=bases,
            methods=tuple(methods),
        )


def iter_atoms(fn: FunctionFacts) -> "Iterator[Atom]":
    """Every atom in a function body, including call arguments."""
    for instr in fn.instrs:
        for atom in instr.atoms:
            yield atom
        if instr.call is not None:
            for arg in instr.call.args:
                for atom in arg.atoms:
                    yield atom
            for atom in instr.call.extra:
                yield atom


def extract_module_facts(info: ModuleInfo) -> ModuleFacts:
    """Lower one parsed module into its picklable facts."""
    return _ModuleExtractor(info).extract()
