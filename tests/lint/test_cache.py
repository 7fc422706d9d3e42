"""Correctness tests for the on-disk lint cache.

The cache's contract: a warm run returns byte-identical findings
without re-running any rule; any edit invalidates exactly the right
entries; and no corrupt or torn entry can ever change lint output --
unreadable means miss, never garbage.
"""

from repro.lint.cache import LintCache
from repro.lint.engine import Finding, LintEngine
from repro.lint.rules.base import Rule


class SpyModuleRule(Rule):
    rule_id = "RL001"          # reuse a real id so pragmas apply
    title = "spy module rule"

    def __init__(self):
        self.calls = 0

    def check_module(self, module):
        self.calls += 1
        if "time.time()" in module.source:
            yield Finding(rule=self.rule_id, path=module.relpath, line=1,
                          col=0, message="spy finding")


class SpyProjectRule(Rule):
    rule_id = "RL003"
    title = "spy project rule"

    def __init__(self):
        self.calls = 0

    def check_project(self, project):
        self.calls += 1
        return iter(())


def _cache(tmp_path):
    return LintCache(tmp_path / "cache")


def test_warm_run_serves_module_findings_without_rule_calls(
        mini_repo, tmp_path):
    mini_repo.write("analysis/bad", """\
        import time
        T = time.time()
        """)
    rule = SpyModuleRule()
    cold = LintEngine([rule], cache=_cache(tmp_path)).run(mini_repo.root)
    cold_calls = rule.calls
    assert cold_calls > 0
    warm = LintEngine([rule], cache=_cache(tmp_path)).run(mini_repo.root)
    assert rule.calls == cold_calls    # every module served from cache
    assert warm == cold                # fingerprints included


def test_warm_run_skips_project_rules(mini_repo, tmp_path):
    mini_repo.write("analysis/ok", """\
        def f():
            return 1
        """)
    rule = SpyProjectRule()
    LintEngine([rule], cache=_cache(tmp_path)).run(mini_repo.root)
    assert rule.calls == 1
    LintEngine([rule], cache=_cache(tmp_path)).run(mini_repo.root)
    assert rule.calls == 1


def test_editing_one_file_invalidates_only_that_module(
        mini_repo, tmp_path):
    mini_repo.write("analysis/one", "A = 1\n")
    mini_repo.write("analysis/two", "B = 2\n")
    rule = SpyModuleRule()
    LintEngine([rule], cache=_cache(tmp_path)).run(mini_repo.root)
    before = rule.calls
    mini_repo.write("analysis/one", "A = 3\n")
    LintEngine([rule], cache=_cache(tmp_path)).run(mini_repo.root)
    # exactly one module re-checked (the edited one)
    assert rule.calls == before + 1


def test_any_edit_invalidates_project_findings(mini_repo, tmp_path):
    mini_repo.write("analysis/ok", "A = 1\n")
    rule = SpyProjectRule()
    LintEngine([rule], cache=_cache(tmp_path)).run(mini_repo.root)
    mini_repo.write("analysis/other", "B = 2\n")
    LintEngine([rule], cache=_cache(tmp_path)).run(mini_repo.root)
    assert rule.calls == 2


def test_pragma_filtering_reruns_against_current_sources(
        mini_repo, tmp_path):
    path = mini_repo.write("analysis/bad", """\
        import time
        T = time.time()
        """)
    rule = SpyModuleRule()
    assert LintEngine([rule], cache=_cache(tmp_path)).run(mini_repo.root)
    waived = path.read_text().replace(
        "import time",
        "import time  # reprolint: allow[RL001] -- test waiver")
    path.write_text(waived)
    assert LintEngine([rule],
                      cache=_cache(tmp_path)).run(mini_repo.root) == []


def test_corrupt_entries_read_as_misses(mini_repo, tmp_path):
    mini_repo.write("analysis/bad", """\
        import time
        T = time.time()
        """)
    rule = SpyModuleRule()
    cold = LintEngine([rule], cache=_cache(tmp_path)).run(mini_repo.root)
    cache_dir = _cache(tmp_path).directory
    for entry in cache_dir.iterdir():
        entry.write_bytes(b"\x00 definitely not json")
    again = LintEngine([rule],
                       cache=_cache(tmp_path)).run(mini_repo.root)
    assert again == cold


def test_project_key_covers_tests_text(mini_repo, tmp_path):
    from repro.lint.engine import build_index
    mini_repo.write("analysis/mod", "A = 1\n")
    cache = _cache(tmp_path)
    key_before = cache.project_key(build_index(mini_repo.root))
    mini_repo.write_test("test_new", "def test_x():\n    pass\n")
    key_after = cache.project_key(build_index(mini_repo.root))
    assert key_before != key_after


def test_warm_run_on_the_tree_parses_no_module(tmp_path, monkeypatch):
    """Raw (pre-waiver) findings on the real tree are identical cold and
    warm, and the warm run never builds an AST."""
    import ast
    from pathlib import Path

    from repro.lint import engine
    from repro.lint.rules import ALL_RULES

    root = Path(__file__).resolve().parents[2]
    monkeypatch.setattr(engine, "is_waived", lambda finding, module: False)
    cold = LintEngine(list(ALL_RULES), cache=_cache(tmp_path)).run(root)
    parses = []
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        parses.append(args)
        return real_parse(*args, **kwargs)
    monkeypatch.setattr(ast, "parse", counting_parse)
    warm = LintEngine(list(ALL_RULES), cache=_cache(tmp_path)).run(root)
    assert cold                        # the waived findings, unfiltered
    assert warm == cold
    assert parses == []
