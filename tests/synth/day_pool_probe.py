"""Subprocess script for the process-lifetime checks in ``test_day_pool``.

Each mode runs :meth:`CampusTraceGenerator.iter_days` at
``StudyConfig.chaos_scale()`` in a fresh interpreter, with the pool
sized as on a two-CPU host, and prints one JSON object::

    python tests/synth/day_pool_probe.py close
    python tests/synth/day_pool_probe.py raise
    python tests/synth/day_pool_probe.py kill

``close`` closes the iterator after two days; ``raise`` runs the serial
study ingest with a progress hook that raises mid-window; ``kill``
SIGKILLs one pool worker after the first day and consumes the rest.
Every mode reports the worker processes alive while the pool ran
(``workers``) and after the iterator ended (``left``), and how many
forks it made (``forks``) and how many of them with a second thread
running (``forks_with_threads``); ``kill`` also
reports how many days this process generated itself after the kill
(``in_process``) and whether its traces equal a serial
``generate_day`` loop.
"""

import json
import multiprocessing
import os
import signal
import sys
import threading
import time

from repro.config import StudyConfig
from repro.core import study
from repro.synth import generator as generator_module
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import iter_days


class _Stop(Exception):
    pass


def _pids():
    return sorted(child.pid for child in multiprocessing.active_children())


def _same(trace, reference):
    for name in ("bursts", "dns_records"):
        ours, theirs = getattr(trace, name), getattr(reference, name)
        for column in type(ours).__slots__:
            a, b = getattr(ours, column), getattr(theirs, column)
            if a.dtype != b.dtype or a.tolist() != b.tolist():
                return False
    return ((trace.day_start, trace.session_count, trace.connection_count,
             trace.dhcp_records)
            == (reference.day_start, reference.session_count,
                reference.connection_count, reference.dhcp_records))


def close(config):
    traces = CampusTraceGenerator(config).iter_days()
    next(traces)
    next(traces)
    workers = _pids()
    traces.close()
    return {"workers": len(workers), "left": len(_pids())}


def raise_mid_ingest(config):
    seen = []

    def report(message):
        seen.append(_pids())
        if message.startswith("ingested"):
            raise _Stop(message)

    try:
        study._ingest(config, CampusTraceGenerator(config), report)
    except _Stop as exc:
        # Held, as a caller that reports the error later would: its
        # traceback keeps the ingest frame, and so the iterator, alive.
        held = exc
    else:
        raise AssertionError("the progress hook never ran")
    left = len(_pids())
    del held
    return {"workers": max(map(len, seen)), "left": left}


def kill(config):
    generator = CampusTraceGenerator(config)
    traces = generator.iter_days()
    pooled = [next(traces)]
    workers = _pids()
    os.kill(workers[0], signal.SIGKILL)
    # Time for the pool to see the death, so the days not yet handed
    # to it are refused and fall back to this process.
    time.sleep(1.0)
    in_process = []
    day_content = generator.day_content

    def counted(*args, **kwargs):
        in_process.append(args[0])
        return day_content(*args, **kwargs)

    generator.day_content = counted
    pooled.extend(traces)
    serial = CampusTraceGenerator(config)
    identical = len(pooled) == len(list(iter_days(config.start_ts,
                                                  config.end_ts)))
    for trace in pooled:
        identical = identical and _same(
            trace, serial.generate_day(trace.day_start))
    return {"workers": len(workers), "left": len(_pids()),
            "in_process": len(in_process), "identical": identical}


def main(mode):
    generator_module._usable_cpus = lambda: 2
    threads_at_fork = []
    real_fork = os.fork

    def fork():
        threads_at_fork.append(threading.active_count())
        return real_fork()

    os.fork = fork
    config = StudyConfig.chaos_scale()
    outcome = {"close": close, "raise": raise_mid_ingest,
               "kill": kill}[mode](config)
    outcome["forks"] = len(threads_at_fork)
    outcome["forks_with_threads"] = sum(count > 1
                                        for count in threads_at_fork)
    print(json.dumps(outcome))


if __name__ == "__main__":
    main(sys.argv[1])
