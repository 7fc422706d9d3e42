"""What ``import repro`` loads: no scipy, no server, no linter.

Every CLI call, the ``repro serve`` process and each study pay for
whatever the package imports. scipy alone once doubled the import time
and resident set of ``import repro, repro.cli``, and numpy is the only
declared dependency, so an install without scipy must still import the
package and run the CLI. Both checks run in a fresh interpreter, so
modules this test session has already loaded cannot hide a regression.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_ENV = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}

#: Modules the library, the CLI's import and every pipeline stage must
#: never load: optional extras and subcommand-only subsystems.
_HEAVY = ("scipy", "repro.serve", "repro.lint")


def _python(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_ENV, timeout=120)


def test_import_repro_and_cli_loads_no_heavy_module():
    result = _python(
        "import sys\n"
        "import repro, repro.cli\n"
        f"print(sorted(m for m in {_HEAVY!r} if m in sys.modules))\n")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_help_runs_without_scipy():
    # A None entry makes any ``import scipy`` raise ImportError, as on
    # an install without the examples extra.
    result = _python(
        "import runpy, sys\n"
        "sys.modules['scipy'] = None\n"
        "import repro, repro.cli\n"
        "sys.argv = ['repro', '--help']\n"
        "runpy.run_module('repro', run_name='__main__')\n")
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout
