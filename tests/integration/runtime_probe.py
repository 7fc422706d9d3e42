"""Subprocess driver for the runtime checks in ``test_runtime_invariants``.

Each mode runs real pipeline code at ``StudyConfig.chaos_scale()`` in a
fresh interpreter, so nothing the test session already imported,
patched or seeded can leak in::

    python tests/integration/runtime_probe.py digests OUT [--reverse-listings]
    python tests/integration/runtime_probe.py audit OUT

``digests`` runs one journaled study under ``OUT`` and prints the SHA-256 of every output file as one JSON object. With
``--reverse-listings``, ``os.listdir`` and ``os.scandir`` (and with
them ``os.walk``, ``glob`` and ``Path.iterdir``) return entries in
reverse order, so an unsorted listing on an output path shows up as a
changed digest.

``audit`` installs a :func:`sys.addaudithook` hook that logs every
``open`` in a write mode and every ``os.rename`` (``os.replace``
raises the same event) to ``OUT/writes.jsonl``, then runs a journaled
study, a served query from its store, a query that finds a corrupt
entry, quarantines it and recomputes, and a one-point crash matrix
(:func:`repro.reliability.crashmatrix.run_matrix` at ``mid:ingest``),
whose CLI runs capture their output to raw log files. Forked day-pool
workers inherit the hook and the log descriptor, so their writes are
logged too. Each log line names the nearest ``repro`` frame that made
the call. The matrix's CLI runs are separate interpreters, so their own
writes are not logged; instead the probe checks that the process-group
kill after each run found the day-pool workers a SIGKILLed run
orphaned, and that none of the matrix's processes is left.
"""

import json
import os
import sys
import tempfile
import time

_WRITE_MODE_CHARS = frozenset("wax+")
_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_TRUNC


def _run_journaled(out_dir):
    from repro.config import StudyConfig
    from repro.core.runner import JournaledRun

    config = StudyConfig.chaos_scale()
    run = JournaledRun.start(os.path.join(out_dir, "journal"), config)
    return config, run, run.execute()


class _ReversedScandir:
    """``os.scandir``'s iterator and context manager, entries reversed."""

    def __init__(self, entries):
        self._entries = iter(entries)

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._entries)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def close(self):
        pass


def _reverse_listings():
    real_listdir, real_scandir = os.listdir, os.scandir

    def listdir(*args, **kwargs):
        return real_listdir(*args, **kwargs)[::-1]

    def scandir(*args, **kwargs):
        with real_scandir(*args, **kwargs) as entries:
            return _ReversedScandir(list(entries)[::-1])

    os.listdir, os.scandir = listdir, scandir


def digests(out_dir, reverse_listings):
    from repro.reliability.crashmatrix import output_digests

    if reverse_listings:
        _reverse_listings()
    _config, _run, result = _run_journaled(out_dir)
    print(json.dumps(output_digests(result.run_dir), sort_keys=True))


def _caller():
    """``module:function`` of the innermost ``repro`` frame, or ''."""
    frame = sys._getframe(2)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("repro."):
            return f"{module}:{frame.f_code.co_name}"
        frame = frame.f_back
    return ""


def _path(value):
    if isinstance(value, int):
        return f"<fd {value}>"
    return os.path.abspath(os.fsdecode(value))


def _install_write_log(log_path):
    fd = os.open(log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    state = {"paused": False}

    def hook(event, args):
        if state["paused"]:
            return
        if event == "open":
            path, mode, flags = args
            if isinstance(mode, str):
                if not _WRITE_MODE_CHARS.intersection(mode):
                    return
            elif not flags & _WRITE_FLAGS:
                return
            record = {"op": "open", "path": _path(path),
                      "mode": mode if isinstance(mode, str) else flags}
        elif event == "os.rename":
            record = {"op": "rename", "path": _path(args[0]),
                      "target": _path(args[1])}
        else:
            return
        record["caller"] = _caller()
        record["pid"] = os.getpid()
        os.write(fd, (json.dumps(record) + "\n").encode("utf-8"))

    sys.addaudithook(hook)
    return state


def _live_pids(match):
    """Live (non-zombie) processes for which ``match(stat, cmdline)``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fileobj:
                # Fields after the parenthesised command name: state,
                # ppid, pgrp, ...
                stat = fileobj.read().rsplit(b")", 1)[1].split()
            with open(f"/proc/{entry}/cmdline", "rb") as fileobj:
                cmdline = fileobj.read()
        except OSError:
            continue  # exited meanwhile
        if stat[0] != b"Z" and match(stat, cmdline):
            pids.append(int(entry))
    return pids


def _crash_matrix_leaves_no_process(out_dir):
    """Run a one-point crash matrix; return the processes each
    ``killpg`` found in its group."""
    from repro.reliability import crashmatrix

    base_dir = os.path.join(out_dir, "matrix")
    real_killpg = os.killpg
    groups = []

    def killpg(pgid, sig):
        if sig:  # signal 0 only asks whether the group still exists
            groups.append(_live_pids(lambda stat, _: int(stat[2]) == pgid))
        real_killpg(pgid, sig)

    os.killpg = killpg
    try:
        result = crashmatrix.run_matrix(base_dir, points=("mid:ingest",))
    finally:
        os.killpg = real_killpg
    assert result["passed"], result
    needle = os.fsencode(base_dir)
    deadline = time.monotonic() + 10.0
    while _live_pids(lambda _, cmdline: needle in cmdline):
        assert time.monotonic() < deadline, "matrix processes survived"
        time.sleep(0.1)
    return groups


def audit(out_dir):
    # The first temp dir a process asks for makes the standard library
    # probe that the directory is writable with a throwaway file; do
    # that here, so the log holds only the program's own writes.
    tempfile.gettempdir()
    state = _install_write_log(os.path.join(out_dir, "writes.jsonl"))

    from repro.serve.service import StudyService
    from repro.synth.generator import _pool_workers
    from repro.util.timeutil import iter_days
    from repro.serve.store import ArtifactStore

    config, run, _result = _run_journaled(out_dir)
    service = StudyService(ArtifactStore(run.store_root))
    served = service.query(config, compute=False)
    assert served.served and not served.computed, served
    # Corrupt one stored envelope (unlogged: the probe's own write),
    # so the next query quarantines it and recomputes the study.
    name = served.served[0]
    state["paused"] = True
    with open(service.store.entry_path(served.fingerprint, name), "w") as fileobj:
        fileobj.write("{torn")
    state["paused"] = False
    healed = service.query(config, names=[name])
    assert healed.computed, healed
    assert service.counters["artifacts_recovered"] == 1, service.counters
    # Golden run, killed run, resume: the killed run's group still held
    # its orphaned day-pool workers when killpg reaped it (a host with
    # one usable CPU generates in process and has none).
    pooled = _pool_workers(len(list(iter_days(config.start_ts,
                                              config.end_ts)))) > 0
    groups = _crash_matrix_leaves_no_process(out_dir)
    assert len(groups) == 3 and (groups[1] or not pooled), groups


def main(argv):
    mode, out_dir = argv[0], argv[1]
    if mode == "digests":
        digests(out_dir, reverse_listings="--reverse-listings" in argv[2:])
    elif mode == "audit":
        audit(out_dir)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
