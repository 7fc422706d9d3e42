"""Day-by-day campus trace generation.

Orchestrates the whole simulation side: behaviour sampling, DHCP lease
acquisition, DNS resolution and wire-event expansion, producing one
:class:`DayTrace` per day in two steps:

1. The *day step* (:meth:`CampusTraceGenerator.day_content`) is a pure
   function of the seed, the day and the presence mode. It samples the
   day's sessions, sorts them by start and expands them into DNS rows
   and segment bursts. Every draw comes from a ``(seed, day, device)``
   stream, so the step needs no history. Each event's client IP is
   still a placeholder: the *slot* of its session in start order.
2. The *lease step* acquires a DHCP lease for every session, in start
   order, and maps the slots to the leased IPs with one gather per
   column. DHCP pool state is the only thing one day hands to the next,
   so this step always runs in the caller's process, day after day.

:meth:`CampusTraceGenerator.iter_days` runs the day step of upcoming
days in a pool of forked worker processes and the lease step in order
as each day is consumed; the output is byte-identical to calling
:meth:`~CampusTraceGenerator.generate_day` day by day in process.
Generation stays in process when only one CPU is usable, the window is
one day, the platform cannot fork, the caller is itself a pool worker
(pools never nest) or the caller runs a second thread
(forking a multi-threaded process is unsafe).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.config import StudyConfig
from repro.dhcp.log import DhcpLogRecord
from repro.dhcp.server import DhcpServer
from repro.dns.records import DnsColumns
from repro.dns.resolver import SyntheticResolver
from repro.net.mac import MacAddress
from repro.net.oui_db import OuiDatabase, default_oui_database
from repro.net.wire import BurstColumns
from repro.synth.archetypes import default_archetypes
from repro.synth.behavior import BehaviorModel
from repro.synth.devices import SimDevice
from repro.synth.population import Population, build_population
from repro.synth.sessions import AppSession, sample_day_sessions
from repro.synth.wiregen import (
    BurstColumnLists,
    DnsCache,
    DnsColumnLists,
    WireGenerator,
)
from repro.util.rng import RngFactory
from repro.util.timeutil import DAY, format_day, iter_days
from repro.world.addressing import AddressPlan, build_address_plan
from repro.world.catalog import default_directory

#: Presence modes for :meth:`CampusTraceGenerator.generate_day`.
PRESENCE_STUDY = "study"          # honour arrivals/departures (the study)
PRESENCE_ALL_RESIDENTS = "all_residents"  # everyone home (2019 baseline)


@dataclass
class DayTrace:
    """Everything the monitoring infrastructure captures in one day."""

    day_start: float
    #: The DNS query log, in time order.
    dns_records: DnsColumns
    #: The tap's input, in time order.
    bursts: BurstColumns
    dhcp_records: List[DhcpLogRecord]
    #: Simulation-side tallies (ground truth; tests only).
    session_count: int
    connection_count: int


@dataclass
class DayContent:
    """One day's output before any DHCP lease is assigned.

    ``client_ip`` in both column sets holds each event's session slot,
    the index into ``sessions``.
    """

    day_start: float
    dns_records: DnsColumns
    bursts: BurstColumns
    #: ``(mac, start)`` of every session, ordered by start.
    sessions: List[Tuple[MacAddress, float]]
    connection_count: int


class CampusTraceGenerator:
    """Generates the synthetic campus's wire events, one day at a time."""

    def __init__(self,
                 config: StudyConfig,
                 population: Optional[Population] = None,
                 oui_db: Optional[OuiDatabase] = None,
                 phase_override: Optional[str] = None):
        """``phase_override`` pins behaviour to one pandemic phase;
        overriding to ``Phase.PRE`` yields the no-pandemic
        counterfactual (combine with ``PRESENCE_ALL_RESIDENTS`` so
        nobody leaves campus either)."""
        self.config = config
        self.oui_db = oui_db or default_oui_database()
        self.directory = default_directory()
        self.plan: AddressPlan = build_address_plan(self.directory)
        self.archetypes = default_archetypes(self.directory)
        self.behavior = BehaviorModel(self.archetypes,
                                      phase_override=phase_override)
        self.population = population or build_population(config, self.oui_db)
        self._rngs = RngFactory(config.seed).child("traffic")
        self.resolver = SyntheticResolver(
            self.plan, RngFactory(config.seed))
        self.dhcp = DhcpServer(self.plan.client_pools,
                               config.dhcp_lease_seconds)
        self.wiregen = WireGenerator(
            self.plan, self.resolver,
            lockdown_tail_boost=phase_override is None)

    # -- generation ------------------------------------------------------

    def iter_days(self,
                  start_ts: Optional[float] = None,
                  end_ts: Optional[float] = None,
                  presence: str = PRESENCE_STUDY) -> Iterator[DayTrace]:
        """Yield a :class:`DayTrace` for each day of the window.

        Day sub-ranges are reproducible from the seed alone: every
        behaviour/wire decision draws from a stream keyed by (day,
        device), never by generation history, so a *fresh* generator
        over ``[a, b)`` emits the same sessions, bursts and DNS answers
        for those days as any other fresh generator covering them. The
        one history-dependent output is DHCP address assignment (pool state
        accumulates), so client IPs may differ between sub-range and
        full runs; each run's DHCP log remains self-consistent with its
        bursts, and client IPs never reach the measured dataset.
        Reusing one generator instance for several ranges keeps its
        lease state across calls; create a fresh instance per range for
        cold-start reproducibility.

        The same property lets the day step of upcoming days run in a
        pool of forked workers, one per usable CPU, with at most twice
        that many days in flight; each day still passes through
        :meth:`generate_day` in order, which waits for its content and
        assigns its leases here. The traces are the ones an in-process
        loop of :meth:`generate_day` yields (see the module docstring
        for when no pool is used). A worker that dies leaves the
        remaining days to this process. The pool lives as long as the
        iterator: exhausting, closing or raising out of it shuts the
        workers down.
        """
        start = self.config.start_ts if start_ts is None else start_ts
        end = self.config.end_ts if end_ts is None else end_ts
        days = list(iter_days(start, end))
        workers = _pool_workers(len(days))
        pool = _DayPool(self, days, presence, workers) if workers else None
        try:
            for day_start in days:
                yield self.generate_day(day_start, presence=presence,
                                        pool=pool)
        finally:
            if pool is not None:
                pool.close()

    def generate_day(self, day_start: float,
                     presence: str = PRESENCE_STUDY, *,
                     pool: Optional["_DayPool"] = None) -> DayTrace:
        """Generate one day's wire events and assign their leases.

        ``pool`` is :meth:`iter_days`'s day pool. The wait for this
        day's content from it is spent here, so it counts as generation
        time. Without a pool, or when its worker died, the content is
        generated in process.
        """
        content = None if pool is None else pool.content(day_start)
        if content is None:
            content = self.day_content(day_start, presence)
        return self._attach_leases(content)

    def day_content(self, day_start: float,
                    presence: str = PRESENCE_STUDY) -> DayContent:
        """The day step: sessions and wire events, client IPs as slots.

        A pure function of the seed, the day and ``presence``; it reads
        no DHCP state, so any process holding a copy of this generator
        computes the same content.
        """
        day_label = format_day(day_start)
        sessions: List[Tuple[AppSession, SimDevice]] = []

        for device in self.population.devices:
            persona = self.population.personas[device.owner_id]
            cutoff = self._activity_cutoff(device, day_start, presence)
            if cutoff is None:
                continue
            rng = self._rngs.stream("day", day_label, device.device_id)
            active_probability = self.behavior.device_active_probability(
                persona, device, day_start)
            if rng.random() >= active_probability:
                continue
            for session in sample_day_sessions(
                    persona, device, self.behavior, self.archetypes,
                    day_start, rng, cutoff_ts=cutoff):
                if (presence == PRESENCE_STUDY
                        and session.start < device.arrival_ts):
                    continue  # device bought mid-day: nothing before then
                sessions.append((session, device))

        sessions.sort(key=lambda pair: pair[0].start)

        dns_rows = DnsColumnLists()
        bursts = BurstColumnLists()
        caches: Dict[int, DnsCache] = {}
        connection_count = 0

        for slot, (session, device) in enumerate(sessions):
            cache = caches.setdefault(device.device_id, DnsCache())
            rng = self._rngs.stream(
                "wire", day_label, device.device_id, int(session.start))
            connection_count += self.wiregen.expand_session(
                session, device, self.archetypes[session.archetype_name],
                slot, rng, cache, dns_rows, bursts)

        return DayContent(
            day_start=day_start,
            dns_records=dns_rows.columns(),
            bursts=bursts.columns(),
            sessions=[(device.mac, session.start)
                      for session, device in sessions],
            connection_count=connection_count,
        )

    def _attach_leases(self, content: DayContent) -> DayTrace:
        """The lease step: acquire every session's lease in start order
        (sessions that emitted nothing included, as a real client
        would) and replace the slots with the leased IPs."""
        lease_ips = np.array(
            [self.dhcp.acquire(mac, start).ip
             for mac, start in content.sessions], dtype=np.int64)
        bursts, dns_records = content.bursts, content.dns_records
        bursts.client_ip = lease_ips[bursts.client_ip]
        dns_records.client_ip = lease_ips[dns_records.client_ip]
        return DayTrace(
            day_start=content.day_start,
            dns_records=dns_records,
            bursts=bursts,
            dhcp_records=self.dhcp.drain_log(),
            session_count=len(content.sessions),
            connection_count=content.connection_count,
        )

    # -- presence --------------------------------------------------------

    def _activity_cutoff(self, device: SimDevice, day_start: float,
                         presence: str) -> Optional[float]:
        """Return the day's activity cutoff, or None when absent all day.

        In the study mode the cutoff is the device's departure (clipped
        to the day); in all-residents mode every non-visitor device is
        present all day (used to synthesize the prior-year baseline).
        """
        day_end = day_start + DAY
        if presence == PRESENCE_ALL_RESIDENTS:
            persona = self.population.personas[device.owner_id]
            return None if persona.is_visitor else day_end
        if presence != PRESENCE_STUDY:
            raise ValueError(f"unknown presence mode {presence!r}")
        if device.arrival_ts >= day_end:
            return None
        if device.departure_ts is None:
            return day_end
        if device.departure_ts <= day_start:
            return None
        return min(device.departure_ts, day_end)


# -- the day-step pool ---------------------------------------------------

#: The generator a forked pool worker computes day content for.
_WORKER_GENERATOR: Optional[CampusTraceGenerator] = None


def _adopt_generator(generator: CampusTraceGenerator) -> None:
    """Pool initializer: a forked worker inherits ``generator`` as is
    (fork passes initializer arguments without pickling them)."""
    global _WORKER_GENERATOR
    _WORKER_GENERATOR = generator


def _worker_day_content(day_start: float, presence: str) -> DayContent:
    assert _WORKER_GENERATOR is not None, "not a day-step pool worker"
    return _WORKER_GENERATOR.day_content(day_start, presence)


class _DayPool:
    """Day content of a window's days, computed ahead in forked workers.

    At most twice as many days as workers are in flight. Submitting
    and waiting both happen in :meth:`content`, which only
    :meth:`CampusTraceGenerator.generate_day` calls, so every moment
    the caller spends on the pool counts as generation time.
    """

    def __init__(self, generator: CampusTraceGenerator, days: List[float],
                 presence: str, workers: int) -> None:
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt_generator, initargs=(generator,))
        self._presence = presence
        self._window = 2 * workers
        self._unsent: Deque[float] = deque(days)
        self._ahead: Dict[float, Future] = {}

    def content(self, day_start: float) -> Optional[DayContent]:
        """The day's content, or None when a worker died before
        delivering it (the caller then generates the day itself)."""
        while self._unsent and len(self._ahead) < self._window:
            day = self._unsent.popleft()
            try:
                self._ahead[day] = self._executor.submit(
                    _worker_day_content, day, self._presence)
            except BrokenProcessPool:
                self._unsent.clear()  # a worker died: send no more
        future = self._ahead.pop(day_start, None)
        if future is None:
            return None
        try:
            return future.result()
        except BrokenProcessPool:
            return None

    def close(self) -> None:
        """Stop every worker; days not yet delivered are dropped."""
        self._executor.shutdown(wait=True, cancel_futures=True)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool_workers(n_days: int) -> int:
    """Day-step workers for a window of ``n_days``; 0 keeps it in process."""
    if (n_days < 2
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.parent_process() is not None
            or threading.active_count() > 1):
        return 0
    cpus = _usable_cpus()
    return min(cpus, n_days) if cpus > 1 else 0
