"""The ``reprolint`` engine: parse, index, run rules, filter pragmas.

The engine walks every ``.py`` file under ``<root>/src/repro`` and hands
each :class:`ModuleInfo` to every registered rule. A module is parsed
into an :class:`ast.Module` once, on first use, so a run whose findings
all come from the cache parses nothing.  Rules that need a
whole-repository view (e.g. the kernel/reference-twin pairing of
RL003) get a :class:`ProjectIndex` instead, which also carries the raw
source of every file under ``<root>/tests`` so rules can require that
an invariant is *exercised*, not merely declared.

Findings are suppressible two ways, both intentionally explicit:

* an inline pragma ``# reprolint: allow[RL00X] -- reason`` on the
  offending line (or the line directly above it) waives one line for
  the listed rules; the reason text is mandatory so waivers stay
  reviewable;
* a committed baseline file grandfathers pre-existing findings by
  *fingerprint* (see :mod:`repro.lint.baseline`); fingerprints hash
  the offending source text rather than its line number, so unrelated
  edits moving a finding up or down the file do not invalidate the
  baseline.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # import-time cycle: rules.base imports this module
    from repro.lint.cache import LintCache
    from repro.lint.rules.base import Rule

#: Pragma waving one or more rules for a single line, e.g.
#: ``# reprolint: allow[RL004] -- diagnostic catch-all``.
PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*allow\[(?P<rules>[A-Z0-9,\s]+)\]\s*--\s*\S")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str          # repo-relative, POSIX separators
    line: int          # 1-based
    col: int           # 0-based, as reported by ``ast``
    message: str
    #: Line-number-independent identity used for baseline matching;
    #: filled in by the engine.
    fingerprint: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"


class ModuleInfo:
    """One source module plus the context rules need.

    ``tree`` and ``imports`` are built from ``source`` on first use
    (a syntax error surfaces there) unless given up front.
    """

    def __init__(self, path: Path, relpath: str, module: str, source: str,
                 lines: Tuple[str, ...], tree: Optional[ast.Module] = None,
                 imports: Optional[Dict[str, str]] = None,
                 sha256: str = "") -> None:
        self.path = path
        self.relpath = relpath  # repo-relative, POSIX separators
        self.module = module    # dotted name, e.g. ``repro.sessions.stitch``
        self.source = source
        self.lines = lines
        self._tree = tree
        self._imports = imports
        #: Content hash of the source text; the cache key component.
        self.sha256 = sha256

    @property
    def tree(self) -> ast.Module:
        if self._tree is None:
            self._tree = ast.parse(self.source, filename=str(self.path))
        return self._tree

    @property
    def imports(self) -> Dict[str, str]:
        """Local name -> fully dotted origin for every import binding,
        e.g. ``{"np": "numpy", "default_rng": "numpy.random.default_rng"}``."""
        if self._imports is None:
            self._imports = _import_bindings(self.tree)
        return self._imports

    def line_text(self, line: int) -> str:
        """The 1-based physical line, or '' when out of range."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


@dataclass(frozen=True)
class ProjectIndex:
    """Whole-repository view handed to project-level rules."""

    root: Path
    modules: Tuple[ModuleInfo, ...]
    #: Raw source of every ``tests/**/*.py`` file, keyed by its
    #: repo-relative POSIX path, in path order.
    test_sources: Dict[str, str]

    def module_named(self, dotted: str) -> Optional[ModuleInfo]:
        for info in self.modules:
            if info.module == dotted:
                return info
        return None


def _import_bindings(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted origins they were imported as."""
    bindings: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bindings[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0])
                if alias.asname:
                    bindings[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports never reach the stdlib names
            for alias in node.names:
                bindings[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}")
    return bindings


def dotted_name(node: ast.expr) -> Optional[str]:
    """Flatten a ``Name``/``Attribute`` chain to ``a.b.c`` (else None)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_call_name(node: ast.expr,
                      imports: Dict[str, str]) -> Optional[str]:
    """Dotted call target with its head rewritten through the imports.

    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
    under ``import numpy as np``; a bare ``time()`` resolves to
    ``time.time`` under ``from time import time``.  Attribute chains
    rooted at arbitrary objects (``self.clock.now``) stay unresolved.
    """
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = imports.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin


def module_name_for(path: Path, src_root: Path) -> str:
    """Dotted module name of ``path`` relative to the ``src`` root."""
    rel = path.relative_to(src_root).with_suffix("")
    parts = list(rel.parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def load_module(path: Path, root: Path, src_root: Path) -> ModuleInfo:
    """Read one file into a :class:`ModuleInfo` (parsed on first use)."""
    source = path.read_text(encoding="utf-8")
    return ModuleInfo(
        path=path,
        relpath=path.relative_to(root).as_posix(),
        module=module_name_for(path, src_root),
        source=source,
        lines=tuple(source.splitlines()),
        sha256=hashlib.sha256(source.encode("utf-8")).hexdigest(),
    )


def _read_test_sources(root: Path) -> Dict[str, str]:
    tests_dir = root / "tests"
    if not tests_dir.is_dir():
        return {}
    return {path.relative_to(root).as_posix(): path.read_text(
                encoding="utf-8")
            for path in sorted(tests_dir.rglob("*.py"))}


def build_index(root: Path,
                package_dir: str = "src/repro") -> ProjectIndex:
    """Read the whole package and index it for the rules."""
    src_root = root / "src"
    package_root = root / package_dir
    if not package_root.is_dir():
        raise FileNotFoundError(
            f"no package directory at {package_root}; pass --root at the "
            f"repository root (the directory holding pyproject.toml)")
    modules = tuple(
        load_module(path, root, src_root)
        for path in sorted(package_root.rglob("*.py")))
    return ProjectIndex(
        root=root,
        modules=modules,
        test_sources=_read_test_sources(root),
    )


def _pragma_rules(text: str) -> frozenset:
    match = PRAGMA_RE.search(text)
    if not match:
        return frozenset()
    return frozenset(
        part.strip() for part in match.group("rules").split(",")
        if part.strip())


def is_waived(finding: Finding, module: ModuleInfo) -> bool:
    """Whether an allow-pragma on the line (or the one above) covers it."""
    for line in (finding.line, finding.line - 1):
        if finding.rule in _pragma_rules(module.line_text(line)):
            return True
    return False


def fingerprint_findings(findings: Sequence[Finding],
                         modules_by_relpath: Dict[str, ModuleInfo],
                         ) -> List[Finding]:
    """Assign stable fingerprints, disambiguating identical lines.

    The hash covers (rule, path, stripped offending line text, ordinal
    among same-text findings) -- never the line number -- so a finding
    keeps its identity while unrelated edits shift it around the file.
    """
    seen: Dict[Tuple[str, str, str], int] = {}
    out: List[Finding] = []
    for finding in findings:
        module = modules_by_relpath.get(finding.path)
        text = module.line_text(finding.line).strip() if module else ""
        key = (finding.rule, finding.path, text)
        ordinal = seen.get(key, 0)
        seen[key] = ordinal + 1
        digest = hashlib.blake2b(
            f"{finding.rule}|{finding.path}|{text}|{ordinal}".encode("utf-8"),
            digest_size=12).hexdigest()
        out.append(replace(finding, fingerprint=digest))
    return out


class LintEngine:
    """Runs a set of rules over the repository and collects findings.

    With a :class:`~repro.lint.cache.LintCache` attached, per-module
    rule output is cached by file content hash and whole-project
    output (``check_project``) by a project-wide digest, so an
    unchanged tree re-lints from JSON without re-running a single
    rule.  Cached findings are raw (pre-waiver,
    pre-fingerprint): pragma filtering and fingerprinting always run
    against the current sources, so moving a waiver never serves a
    stale suppression.
    """

    def __init__(self, rules: Sequence["Rule"],
                 cache: Optional["LintCache"] = None) -> None:
        self.rules = list(rules)
        self.cache = cache

    def _module_findings(self, rule: "Rule",
                         info: ModuleInfo) -> List[Finding]:
        if self.cache is not None:
            cached = self.cache.load_module_findings(
                info, rule.rule_id, rule.cache_version)
            if cached is not None:
                return cached
        findings = list(rule.check_module(info))
        if self.cache is not None:
            self.cache.store_module_findings(
                info, rule.rule_id, rule.cache_version, findings)
        return findings

    def run(self, root: Path) -> List[Finding]:
        index = build_index(root)
        modules_by_relpath = {info.relpath: info for info in index.modules}
        project_key = (self.cache.project_key(index)
                       if self.cache is not None else "")
        raw: List[Finding] = []
        for rule in self.rules:
            for info in index.modules:
                raw.extend(self._module_findings(rule, info))
            if self.cache is not None:
                cached = self.cache.load_project_findings(
                    project_key, rule.rule_id, rule.cache_version)
                if cached is not None:
                    raw.extend(cached)
                    continue
            findings = list(rule.check_project(index))
            if self.cache is not None:
                self.cache.store_project_findings(
                    project_key, rule.rule_id, rule.cache_version,
                    findings)
            raw.extend(findings)
        kept = [
            finding for finding in raw
            if not (finding.path in modules_by_relpath
                    and is_waived(finding, modules_by_relpath[finding.path]))
        ]
        kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return fingerprint_findings(kept, modules_by_relpath)
