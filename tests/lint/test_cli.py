"""End-to-end tests for ``python -m repro.lint``.

Covers the acceptance contract from the issue: the CLI exits 0 on the
current tree with the committed baseline, exits non-zero on a seeded
violation fixture, and the baseline survives unrelated line drift
because fingerprints hash source text, not line numbers.
"""

import io
import json
import re
import subprocess
import sys
import tokenize
from pathlib import Path

from repro.lint.cli import main
from repro.lint.engine import PRAGMA_RE
from repro.lint.rules import RULES_BY_ID

REPO_ROOT = Path(__file__).resolve().parents[2]


# --- the real repository ---------------------------------------------------

def test_real_tree_is_clean_with_committed_baseline():
    """`python -m repro.lint` exits 0 on the repo as committed."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--root", str(REPO_ROOT)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 new finding(s)" in result.stdout


def test_every_pragma_in_src_names_a_registered_rule():
    """A waiver for a retired or mistyped rule id waives nothing, so it
    would only hide the fact that its line is no longer checked."""
    unknown = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            match = (PRAGMA_RE.search(token.string)
                     if token.type == tokenize.COMMENT else None)
            if match is None:
                continue
            for rule_id in match.group("rules").split(","):
                if rule_id.strip() not in RULES_BY_ID:
                    unknown.append(f"{path.relative_to(REPO_ROOT)}:"
                                   f"{token.start[0]} {rule_id.strip()}")
    assert unknown == []


def test_committed_baseline_is_valid_and_empty():
    baseline = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
    assert baseline["tool"] == "reprolint"
    assert baseline["findings"] == []


# --- seeded violations ------------------------------------------------------

def test_seeded_violation_exits_nonzero(mini_repo, capsys):
    mini_repo.write("analysis/bad", """\
        import time

        def stamp():
            return time.time()
        """)
    code = main(["--root", str(mini_repo.root)])
    out = capsys.readouterr().out
    assert code == 1
    assert "RL001" in out
    assert "1 new finding(s)" in out


def test_rule_filter_limits_to_selected_rule(mini_repo, capsys):
    mini_repo.write("analysis/bad", """\
        import time

        def stamp(x, y):
            return time.time()
        """)
    code = main(["--root", str(mini_repo.root), "--rule", "RL002"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 new finding(s)" in out


def test_unknown_rule_is_a_usage_error(mini_repo, capsys):
    code = main(["--root", str(mini_repo.root), "--rule", "RL999"])
    assert code == 2
    assert "RL999" in capsys.readouterr().err


def test_missing_package_root_is_a_setup_error(tmp_path, capsys):
    code = main(["--root", str(tmp_path)])
    assert code == 2
    assert "no package directory" in capsys.readouterr().err


# --- baseline workflow ------------------------------------------------------

def test_update_baseline_then_clean_run(mini_repo, capsys):
    mini_repo.write("analysis/bad", """\
        import time

        def stamp():
            return time.time()
        """)
    assert main(["--root", str(mini_repo.root)]) == 1
    assert main(["--root", str(mini_repo.root), "--update-baseline"]) == 0
    assert main(["--root", str(mini_repo.root)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_baseline_survives_line_drift(mini_repo, capsys):
    path = mini_repo.write("analysis/bad", """\
        import time

        def stamp():
            return time.time()
        """)
    assert main(["--root", str(mini_repo.root), "--update-baseline"]) == 0
    # Unrelated edits above the finding move it down the file; the
    # text-based fingerprint keeps it matched to the baseline entry.
    drifted = path.read_text().replace(
        "import time", "import time\n\nPADDING = 1\nMORE_PADDING = 2")
    path.write_text(drifted)
    assert main(["--root", str(mini_repo.root)]) == 0
    assert "1 baselined" in capsys.readouterr().out


def test_fixed_finding_is_reported_stale(mini_repo, capsys):
    path = mini_repo.write("analysis/bad", """\
        import time

        def stamp():
            return time.time()
        """)
    assert main(["--root", str(mini_repo.root), "--update-baseline"]) == 0
    path.write_text("def stamp(seed: int) -> int:\n    return seed\n")
    assert main(["--root", str(mini_repo.root)]) == 0
    assert "stale" in capsys.readouterr().out


# --- output formats ---------------------------------------------------------

def test_json_format_is_machine_readable(mini_repo, capsys):
    mini_repo.write("analysis/bad", """\
        import time
        T = time.time()
        """)
    code = main(["--root", str(mini_repo.root), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["new"][0]["rule"] == "RL001"
    assert payload["new"][0]["fingerprint"]


def test_list_rules_and_docs_match_the_registry(capsys):
    assert main(["--list-rules"]) == 0
    listed = [line.split()[0]
              for line in capsys.readouterr().out.splitlines() if line]
    assert listed == list(RULES_BY_ID)
    table = (REPO_ROOT / "docs" / "LINTING.md").read_text()
    documented = re.findall(r"^\| (RL\d{3}) \|", table, re.MULTILINE)
    assert documented == list(RULES_BY_ID)


def test_comma_separated_rule_filter(mini_repo, capsys):
    mini_repo.write("analysis/bad", """\
        import time

        def stamp(path):
            try:
                return time.time(), open(path).read()
            except Exception:
                return None
        """)
    code = main(["--root", str(mini_repo.root), "--rule", "RL001,RL004"])
    out = capsys.readouterr().out
    assert code == 1
    assert "2 new finding(s)" in out


def test_unknown_rules_all_reported_at_once(mini_repo, capsys):
    code = main(["--root", str(mini_repo.root),
                 "--rule", "RL998,RL001", "--rule", "RL999"])
    err = capsys.readouterr().err
    assert code == 2
    assert "RL998" in err and "RL999" in err
