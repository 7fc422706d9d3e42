"""Committed baseline of grandfathered lint findings.

The baseline lets the linter gate CI from day one without first
burning down every historical finding: known findings are recorded by
fingerprint in a committed JSON file and stop failing the build, while
anything *new* still does.  The workflow:

* ``python -m repro.lint --update-baseline`` rewrites the file from
  the current findings (review the diff like any other code change);
* a baselined finding that gets fixed simply disappears -- stale
  entries are reported so the file shrinks monotonically;
* an empty baseline is the steady state this repo maintains.

Fingerprints hash the offending source text, not line numbers (see
:func:`repro.lint.engine.fingerprint_findings`), so routine edits
elsewhere in a file do not churn the baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.lint.engine import Finding

#: Default baseline location, relative to the repository root.
DEFAULT_BASELINE_NAME = "lint-baseline.json"

_VERSION = 1


@dataclass(frozen=True)
class BaselineMatch:
    """Partition of a run's findings against a baseline."""

    new: Tuple[Finding, ...]
    baselined: Tuple[Finding, ...]
    #: Baseline fingerprints no current finding matched (fixed or moved).
    stale: Tuple[str, ...]


def load_baseline(path: Path) -> Dict[str, Dict[str, str]]:
    """Fingerprint -> recorded entry; empty for a missing file."""
    if not path.exists():
        return {}
    payload = json.loads(path.read_text(encoding="utf-8"))
    entries = payload.get("findings", [])
    return {entry["fingerprint"]: entry for entry in entries}


def save_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Write the committed baseline for the given findings."""
    payload = {
        "version": _VERSION,
        "tool": "reprolint",
        "findings": [
            {
                "fingerprint": finding.fingerprint,
                "rule": finding.rule,
                "path": finding.path,
                "message": finding.message,
            }
            for finding in findings
        ],
    }
    # Not staged: importing the atomic chokepoint would drag numpy
    # into the linter, and a torn baseline fails loudly on load.
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def match_baseline(findings: Sequence[Finding],
                   baseline: Dict[str, Dict[str, str]]) -> BaselineMatch:
    """Split findings into new vs grandfathered, and spot stale entries."""
    new: List[Finding] = []
    grandfathered: List[Finding] = []
    seen: set = set()
    for finding in findings:
        if finding.fingerprint in baseline:
            grandfathered.append(finding)
            seen.add(finding.fingerprint)
        else:
            new.append(finding)
    stale = tuple(sorted(set(baseline) - seen))
    return BaselineMatch(new=tuple(new), baselined=tuple(grandfathered),
                         stale=stale)
