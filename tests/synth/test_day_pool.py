"""The day-step pool behind ``CampusTraceGenerator.iter_days``.

Pooled generation must yield exactly the traces of a fresh generator's
in-process ``generate_day`` loop, in every field; it must leave no
worker process behind however the iterator ends; and it must not start
at all where forking is unnecessary or unsafe. The pool is sized as on
a two-CPU host throughout, so these checks hold on one-CPU runners too.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro import constants
from repro.config import StudyConfig
from repro.synth import generator as generator_module
from repro.synth.generator import (
    PRESENCE_ALL_RESIDENTS,
    CampusTraceGenerator,
)
from repro.synth.population import build_population
from repro.synth.timeline import Phase
from repro.util.timeutil import DAY, iter_days, utc_ts

REPO_ROOT = Path(__file__).resolve().parents[2]
PROBE = Path(__file__).resolve().with_name("day_pool_probe.py")

_CONFIG = StudyConfig(n_students=8, seed=5)


@pytest.fixture(autouse=True)
def forks_alone(monkeypatch):
    """Fail a test that forks while a second thread runs: the child
    could inherit a lock that thread held. (Python 3.12 warns about
    this, but clears the warning even under ``-W error``.)"""
    threads_at_fork = []
    real_fork = os.fork

    def fork():
        threads_at_fork.append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    yield
    assert [count for count in threads_at_fork if count > 1] == []


@pytest.fixture
def pools(monkeypatch):
    """Two usable CPUs; records the worker count of every pool built."""
    built = []
    real = generator_module.ProcessPoolExecutor

    def spy(*args, **kwargs):
        built.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(generator_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(generator_module, "ProcessPoolExecutor", spy)
    return built


def _assert_same_columns(ours, theirs):
    assert type(ours) is type(theirs)
    for name in type(ours).__slots__:
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype, name
        assert a.tolist() == b.tolist(), name


def _assert_matches_serial(make_generator, start, end, presence):
    pooled = list(make_generator().iter_days(start, end, presence=presence))
    serial = make_generator()
    days = list(iter_days(start, end))
    assert [trace.day_start for trace in pooled] == days
    for trace in pooled:
        reference = serial.generate_day(trace.day_start, presence=presence)
        _assert_same_columns(trace.bursts, reference.bursts)
        _assert_same_columns(trace.dns_records, reference.dns_records)
        assert trace.dhcp_records == reference.dhcp_records
        assert trace.session_count == reference.session_count
        assert trace.connection_count == reference.connection_count
    assert sum(len(trace.bursts) for trace in pooled) > 0
    return pooled


class TestPooledEqualsSerial:
    def test_eval_scale_window_across_stay_at_home(self, pools):
        config = StudyConfig.eval_scale()
        start = constants.STAY_AT_HOME - 3 * DAY
        _assert_matches_serial(lambda: CampusTraceGenerator(config),
                               start, start + 6 * DAY, "study")
        assert pools == [2]

    def test_counterfactual(self, pools):
        _assert_matches_serial(
            lambda: CampusTraceGenerator(_CONFIG, phase_override=Phase.PRE),
            utc_ts(2020, 4, 13), utc_ts(2020, 4, 17),
            PRESENCE_ALL_RESIDENTS)
        assert pools == [2]

    def test_2019_baseline_window(self, pools):
        _assert_matches_serial(lambda: CampusTraceGenerator(_CONFIG),
                               utc_ts(2019, 4, 1), utc_ts(2019, 4, 5),
                               PRESENCE_ALL_RESIDENTS)
        assert pools == [2]

    def test_one_day_window_stays_in_process(self, pools):
        start = utc_ts(2020, 2, 5)
        _assert_matches_serial(lambda: CampusTraceGenerator(_CONFIG),
                               start, start + DAY, "study")
        assert pools == []

    def test_explicit_population(self, pools):
        population = build_population(_CONFIG)
        _assert_matches_serial(
            lambda: CampusTraceGenerator(_CONFIG, population=population),
            utc_ts(2020, 3, 2), utc_ts(2020, 3, 6), "study")
        assert pools == [2]


def _probe(mode):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))))
    # Warning filters given to this interpreter (``-W error::...``)
    # apply to the probe too.
    flags = [f"-W{option}" for option in sys.warnoptions]
    result = subprocess.run([sys.executable, *flags, str(PROBE), mode],
                            capture_output=True, text=True, env=env,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


class TestNoWorkerOutlivesTheIterator:
    _FORKED_ALONE = {"workers": 2, "left": 0, "forks": 2,
                     "forks_with_threads": 0}

    def test_closed_after_two_days(self):
        assert _probe("close") == self._FORKED_ALONE

    def test_consumer_raises(self):
        assert _probe("raise") == self._FORKED_ALONE

    def test_worker_killed_mid_run(self):
        outcome = _probe("kill")
        assert outcome.pop("in_process") > 0
        assert outcome.pop("identical") is True
        assert outcome == self._FORKED_ALONE


class TestNoPool:
    _WINDOW = (utc_ts(2020, 2, 3), utc_ts(2020, 2, 6))

    def _generate(self):
        return list(CampusTraceGenerator(_CONFIG).iter_days(*self._WINDOW))

    def test_one_usable_cpu(self, pools, monkeypatch):
        monkeypatch.setattr(generator_module, "_usable_cpus", lambda: 1)
        assert len(self._generate()) == 3
        assert pools == []

    def test_live_second_thread(self, pools):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert len(self._generate()) == 3
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert pools == []
        # With the thread gone, the same call uses the pool.
        self._generate()
        assert pools == [2]

    def test_inside_a_parallel_pipeline_worker(self, pools):
        """A process-pool worker -- a day-pool worker included -- never
        starts a pool of its own."""
        assert generator_module._pool_workers(10) == 2
        with ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context("fork")) as pool:
            in_worker = pool.submit(generator_module._pool_workers, 10)
            assert in_worker.result(timeout=120) == 0
