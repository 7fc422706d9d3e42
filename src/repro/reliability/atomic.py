"""Crash-consistent file writes: the single chokepoint for durability.

Every durable artifact in the system -- journaled run outputs, the
quarantine report, artifact-store envelopes, and the run journal --
goes to disk through this module, so crash consistency is one policy
enforced in one place instead of a convention scattered across
writers:

* **replace writes** (:func:`write_bytes`/:func:`write_text`/
  :func:`replacing`): payload to a ``*.tmp*`` sibling, flush, fsync,
  ``os.replace`` into place, fsync the directory. A reader sees the
  old content or the new content, never a torn hybrid; a crash leaves
  at worst an orphaned temp file, which :func:`sweep_orphans` removes
  (and counts) on the next open.
* **append writes** (:func:`append_line`): the run journal's
  append-only records, flushed and fsync'd per line. A crash can tear
  only the final record, which journal replay treats as absent.

The module also hosts the disk-fault seam: a
:class:`~repro.reliability.faults.DiskFaultInjector` installed via
:func:`disk_faults` (or the ``REPRO_DISK_FAULTS`` environment variable
for subprocess chaos runs) is consulted before every payload write and
fsync, injecting ``ENOSPC``, torn writes, and fsync failures exactly
where the real filesystem would produce them.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import IO, Iterator, Optional

from repro.reliability.errors import TornWriteError
from repro.reliability.faults import DiskFaultInjector

#: Marker embedded in every temp name; :func:`sweep_orphans` removes
#: files containing it. ``merged.tmp.npz`` keeps numpy's ``.npz``
#: suffix requirement happy while still carrying the marker.
TMP_MARKER = ".tmp"

_lock = threading.Lock()
_installed: Optional[DiskFaultInjector] = None
_env_loaded = False


def _injector() -> Optional[DiskFaultInjector]:
    """The active fault injector, if any (install > environment)."""
    global _env_loaded, _installed
    with _lock:
        if _installed is None and not _env_loaded:
            _env_loaded = True
            _installed = DiskFaultInjector.from_env()
        return _installed


@contextmanager
def disk_faults(injector: DiskFaultInjector) -> Iterator[DiskFaultInjector]:
    """Install a fault injector for the duration of the block (tests)."""
    global _installed
    with _lock:
        previous = _installed
        _installed = injector
    try:
        yield injector
    finally:
        with _lock:
            _installed = previous


def _fsync(fileobj: IO[bytes], path: str) -> None:
    plan = _injector()
    if plan is not None:
        plan.on_fsync(path)
    os.fsync(fileobj.fileno())


def _write_payload(fileobj: IO[bytes], path: str, data: bytes,
                   fsync: bool) -> None:
    """Write ``data``, honoring any injected fault for ``path``."""
    plan = _injector()
    if plan is not None:
        torn = plan.on_write(path, data)  # may raise DiskFullError
        if torn is not None:
            # Torn write: persist the prefix durably, then "crash".
            fileobj.write(torn)
            fileobj.flush()
            os.fsync(fileobj.fileno())
            raise TornWriteError(
                f"torn write: {len(torn)}/{len(data)} bytes of "
                f"{os.path.basename(path)}")
    fileobj.write(data)
    fileobj.flush()
    if fsync:
        _fsync(fileobj, path)


def fsync_dir(directory: str) -> None:
    """Persist a directory entry (best effort; no-op where unsupported)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def tmp_path_for(path: str) -> str:
    """The temp sibling a replace-write of ``path`` stages through.

    The marker goes *before* the final suffix so writers that insist
    on their extension (``np.savez`` appends ``.npz``) still work:
    ``filtered.npz`` stages through ``filtered.tmp.npz``.
    """
    directory, name = os.path.split(path)
    stem, dot, suffix = name.rpartition(".")
    if dot:
        staged = f"{stem}{TMP_MARKER}.{suffix}"
    else:
        staged = name + TMP_MARKER
    return os.path.join(directory, staged)


def write_bytes(path: str, data: bytes, *, fsync: bool = True) -> None:
    """Atomically replace ``path`` with ``data`` (temp + rename)."""
    staged = tmp_path_for(path)
    with open(staged, "wb") as fileobj:
        _write_payload(fileobj, path, data, fsync)
    os.replace(staged, path)
    if fsync:
        fsync_dir(os.path.dirname(path) or ".")


def write_text(path: str, text: str, *, fsync: bool = True) -> None:
    """Atomically replace ``path`` with UTF-8 ``text``."""
    write_bytes(path, text.encode("utf-8"), fsync=fsync)


@contextmanager
def replacing(path: str, *, fsync: bool = True) -> Iterator[str]:
    """Stage an externally written file (e.g. ``np.savez``) atomically.

    Yields the temp path for the caller to write; on clean exit the
    staged file is fsync'd and renamed into place. On an exception the
    temp file is left behind as an orphan -- exactly what a crash
    would leave -- for :func:`sweep_orphans` to collect later.
    """
    staged = tmp_path_for(path)
    yield staged
    if fsync:
        with open(staged, "rb") as fileobj:
            _fsync(fileobj, path)
    os.replace(staged, path)
    if fsync:
        fsync_dir(os.path.dirname(path) or ".")


def append_line(path: str, line: str, *, fsync: bool = True) -> None:
    """Durably append one ``\\n``-terminated line (journal records).

    No temp file: appends are the one write class where a crash can
    leave a torn suffix, and the journal's replay is built to treat
    exactly that as absent.
    """
    data = line.encode("utf-8")
    with open(path, "ab") as fileobj:
        _write_payload(fileobj, path, data, fsync)


def is_orphan(name: str) -> bool:
    """Whether a file name is crash debris from a staged write."""
    return TMP_MARKER in name


def sweep_orphans(directory: str, *, recursive: bool = False) -> int:
    """Remove staged-write debris under ``directory``; returns count.

    Called by stores on open/resume so a crash mid-write costs one
    counter tick, never a failed run. Missing directories sweep zero.
    """
    if not os.path.isdir(directory):
        return 0
    removed = 0
    if recursive:
        # Visit order is free: each removal is independent.
        for root, _dirs, files in os.walk(directory):
            for name in files:
                if is_orphan(name):
                    _remove_quietly(os.path.join(root, name))
                    removed += 1
    else:
        for name in sorted(os.listdir(directory)):
            if is_orphan(name):
                _remove_quietly(os.path.join(directory, name))
                removed += 1
    return removed


def _remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
