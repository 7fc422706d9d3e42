"""The package layering: measurement and analysis never import the study.

``repro.synth`` generates the campus, ``repro.pipeline`` and
``repro.columnar`` measure it, and ``repro.analysis`` turns the
measured dataset into figures. ``repro.core`` (the study driver),
``repro.serve`` and ``repro.cli`` sit on top of all four. An import the
other way round is a cycle waiting to happen, and it lets a lower layer
reach state it must only receive as input. An AST scan of every module,
lazy imports inside functions included, keeps the edges one-way.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Packages that must not depend on the layers above them.
LOWER = ("repro.analysis", "repro.pipeline", "repro.columnar", "repro.synth")

#: The layers above.
UPPER = ("repro.core", "repro.serve", "repro.cli")


def _module_name(path):
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _top_level_reexports():
    """Name -> defining module for each ``from repro.x import name`` in
    ``repro/__init__.py``, so ``from repro import name`` resolves to the
    module that actually defines it."""
    tree = ast.parse((SRC / "repro" / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module
            for node in tree.body if isinstance(node, ast.ImportFrom)
            and node.module and node.level == 0
            for alias in node.names}


def _imported_modules(source, package, reexports):
    """Every module the code ``source`` imports, as absolute dotted
    names; ``package`` anchors its relative imports."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield node.lineno, base
            for alias in node.names:
                if base == "repro" and alias.name in reexports:
                    yield node.lineno, reexports[alias.name]
                else:
                    yield node.lineno, f"{base}.{alias.name}"


def _within(module, packages):
    return any(module == package or module.startswith(package + ".")
               for package in packages)


def test_lower_layers_never_import_the_study_serve_or_cli():
    reexports = _top_level_reexports()
    scanned = {package: 0 for package in LOWER}
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        name = _module_name(path)
        layer = next((package for package in LOWER
                      if _within(name, (package,))), None)
        if layer is None:
            continue
        scanned[layer] += 1
        package = name if path.name == "__init__.py" else \
            name.rpartition(".")[0]
        for lineno, imported in _imported_modules(path.read_text(), package,
                                                  reexports):
            if _within(imported, UPPER):
                offenders.append(f"{path.relative_to(SRC)}:{lineno} "
                                 f"imports {imported}")
    assert all(scanned.values()), scanned
    assert offenders == [], "\n".join(offenders)


def test_scan_resolves_relative_and_reexported_imports():
    """The scan sees through the spellings a violation could hide
    behind: a relative import, a top-level re-export and a lazy import
    inside a function."""
    source = ("from ..core import study\n"
              "from repro import LockdownStudy\n"
              "def lazy():\n"
              "    import repro.cli\n")
    reexports = _top_level_reexports()
    imported = {name for _, name in _imported_modules(
        source, "repro.analysis", reexports)}
    assert {"repro.core", "repro.core.study", "repro.cli"} <= imported
    assert reexports["LockdownStudy"] in imported
    assert _within(reexports["LockdownStudy"], UPPER)
