"""On-disk findings cache for ``reprolint``, keyed by content hash.

Two granularities, one directory:

* **Per-module**: a rule's ``check_module`` findings for one file,
  keyed by ``(relpath, sha256, rule_id, rule.cache_version)`` --
  editing one file invalidates only that file's entries.
* **Per-project**: a rule's ``check_project`` findings, keyed by a
  digest over *every* module's ``(relpath, sha256)`` plus the tests
  text -- any edit anywhere invalidates these, which is the soundness
  RL003 needs, because it pairs kernels with twins across modules and
  reads the tests.

Entries live under a schema directory named by cache schema and
Python version; a version bump simply starts a fresh directory, so
stale formats are never misread.  Findings serialize as JSON, the
only format the cache reads.  All writes stage to a temp file and
rename, and any unreadable entry is treated as a miss -- the cache
must never be able to corrupt a lint run.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.lint.engine import Finding, ModuleInfo, ProjectIndex

#: Bump when the on-disk entry format changes. Schema 1 directories
#: also held pickled module facts; schema 2 is never read from them.
CACHE_SCHEMA = 2

#: Default cache directory name (repo-root relative, gitignored).
DEFAULT_CACHE_DIR = ".reprolint-cache"


def _digest(*parts: str) -> str:
    joined = "|".join(parts)
    return hashlib.blake2b(joined.encode("utf-8"),
                           digest_size=16).hexdigest()


class LintCache:
    """Content-addressed store for rule findings."""

    def __init__(self, directory: Path) -> None:
        schema = (f"v{CACHE_SCHEMA}-py{sys.version_info[0]}"
                  f"{sys.version_info[1]}")
        self.directory = directory / schema
        self.hits = 0
        self.misses = 0

    # -- keys ----------------------------------------------------------------

    def project_key(self, index: ProjectIndex) -> str:
        """One digest over every module's and test file's path and
        content."""
        parts = [f"{info.relpath}:{info.sha256}"
                 for info in index.modules]
        parts.extend(f"{path}:{_digest(source)}"
                     for path, source in index.test_sources.items())
        return _digest(*parts)

    # -- raw entry I/O -------------------------------------------------------

    def _read(self, name: str) -> Optional[bytes]:
        try:
            data = (self.directory / name).read_bytes()
        except OSError:
            self.misses += 1
            return None
        self.hits += 1
        return data

    def _write(self, name: str, data: bytes) -> None:
        # The atomic chokepoint (repro.reliability.atomic) is the
        # sanctioned writer, but importing it drags numpy into the
        # linter; scratch cache entries stage-and-rename locally and a
        # torn entry is simply a miss on the next run.
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            staged = self.directory / f".{name}.tmp"
            with open(staged, "wb") as fileobj:
                fileobj.write(data)
            os.replace(staged, self.directory / name)
        except OSError:
            return  # a read-only or full disk disables caching, not linting

    # -- findings ------------------------------------------------------------

    @staticmethod
    def _encode_findings(findings: Sequence[Finding]) -> bytes:
        payload = [
            {"rule": f.rule, "path": f.path, "line": f.line,
             "col": f.col, "message": f.message}
            for f in findings
        ]
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @staticmethod
    def _decode_findings(data: bytes) -> Optional[List[Finding]]:
        try:
            payload = json.loads(data.decode("utf-8"))
            return [
                Finding(rule=entry["rule"], path=entry["path"],
                        line=entry["line"], col=entry["col"],
                        message=entry["message"])
                for entry in payload
            ]
        except (ValueError, KeyError, TypeError):
            return None

    def load_module_findings(self, info: ModuleInfo, rule_id: str,
                             version: str) -> Optional[List[Finding]]:
        name = "m-" + _digest(info.relpath, info.sha256, rule_id,
                              version) + ".json"
        data = self._read(name)
        return self._decode_findings(data) if data is not None else None

    def store_module_findings(self, info: ModuleInfo, rule_id: str,
                              version: str,
                              findings: Sequence[Finding]) -> None:
        name = "m-" + _digest(info.relpath, info.sha256, rule_id,
                              version) + ".json"
        self._write(name, self._encode_findings(findings))

    def load_project_findings(self, project_key: str, rule_id: str,
                              version: str) -> Optional[List[Finding]]:
        name = "p-" + _digest(project_key, rule_id, version) + ".json"
        data = self._read(name)
        return self._decode_findings(data) if data is not None else None

    def store_project_findings(self, project_key: str, rule_id: str,
                               version: str,
                               findings: Sequence[Finding]) -> None:
        name = "p-" + _digest(project_key, rule_id, version) + ".json"
        self._write(name, self._encode_findings(findings))

    # -- stats ---------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}
