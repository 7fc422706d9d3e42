"""Day-by-day campus trace generation.

Orchestrates the whole simulation side: behaviour sampling, DHCP lease
acquisition, DNS resolution and wire-event expansion, producing one
:class:`DayTrace` per day. Lease acquisitions are replayed in global
chronological order within each day so the DHCP server's state (and
its logs) evolve exactly as a real server's would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.config import StudyConfig
from repro.dhcp.log import DhcpLogRecord
from repro.dhcp.server import DhcpServer
from repro.dns.records import DnsColumns
from repro.dns.resolver import SyntheticResolver
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
        for those days as any other fresh generator covering them --
        the property sharded parallel ingest
        (:mod:`repro.pipeline.parallel`) is built on. The one
        history-dependent output is DHCP address assignment (pool state
        accumulates), so client IPs may differ between sub-range and
        full runs; each run's DHCP log remains self-consistent with its
        bursts, and client IPs never reach the measured dataset.
        Reusing one generator instance for several ranges keeps its
        lease state across calls; create a fresh instance per range for
        cold-start reproducibility.
        """
        start = self.config.start_ts if start_ts is None else start_ts
        end = self.config.end_ts if end_ts is None else end_ts
        for day_start in iter_days(start, end):
            yield self.generate_day(day_start, presence=presence)

    def generate_day(self, day_start: float,
                     presence: str = PRESENCE_STUDY) -> DayTrace:
        """Generate one day's wire events."""
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

        for session, device in sessions:
            lease = self.dhcp.acquire(device.mac, session.start)
            cache = caches.setdefault(device.device_id, DnsCache())
            rng = self._rngs.stream(
                "wire", day_label, device.device_id, int(session.start))
            connection_count += self.wiregen.expand_session(
                session, device, self.archetypes[session.archetype_name],
                lease.ip, rng, cache, dns_rows, bursts)

        return DayTrace(
            day_start=day_start,
            dns_records=dns_rows.columns(),
            bursts=bursts.columns(),
            dhcp_records=self.dhcp.drain_log(),
            session_count=len(sessions),
            connection_count=connection_count,
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
