"""Expansion of application sessions into wire-level events.

Turns each :class:`~repro.synth.sessions.AppSession` into the things a
passive tap actually sees: DNS transactions (unless the connection is
made straight to an IP) and bidirectional segment bursts grouped by
five-tuple. Client-side DNS caching is modelled so repeated connections
within a TTL reuse an earlier answer -- which forces the measurement
side's IP->domain mapping to be genuinely time-aware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import constants
from repro.dns.records import DnsLogRecord
from repro.dns.resolver import SyntheticResolver
from repro.net.wire import BurstColumns
from repro.synth.archetypes import AppArchetype, DomainComponent
from repro.synth.devices import SimDevice
from repro.synth.sessions import AppSession, lognormal_with_mean
from repro.util.timeutil import MINUTE
from repro.world.addressing import AddressPlan
from repro.world.services import Service

#: Client DNS cache entries live this much longer than the answer TTL
#: (browsers and OS resolvers hold on past expiry).
_CACHE_SLACK = 2.0

#: Minimum bytes for any connection (TLS handshake floor).
_MIN_CONNECTION_BYTES = 600.0


class BurstColumnLists:
    """One day's bursts as growing per-field lists, in emission order.

    The generator appends plain scalars here -- no per-burst object is
    ever built -- and :meth:`columns` types and time-orders them once
    the day is complete.
    """

    __slots__ = BurstColumns.__slots__

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, [])

    def columns(self) -> BurstColumns:
        """The day's bursts as columns, ordered by ``ts``.

        A stable argsort keeps equal-``ts`` bursts in emission order,
        exactly the order a stable sort of the rows by ``ts`` gives.
        """
        columns = BurstColumns(**{name: getattr(self, name)
                                  for name in self.__slots__})
        return columns.take(np.argsort(columns.ts, kind="stable"))


@dataclass
class DnsCache:
    """Per-device client resolver cache: domain -> (queried, expiry, address).

    An entry only serves lookups at or after its query time: a flow must
    never use an answer that was not yet resolved when it started.
    """

    entries: Dict[str, Tuple[float, float, int]] = field(default_factory=dict)

    def get(self, domain: str, ts: float) -> Optional[int]:
        entry = self.entries.get(domain)
        if entry is None:
            return None
        queried, expiry, address = entry
        if not queried <= ts < expiry:
            return None
        return address

    def put(self, domain: str, ts: float, ttl: float, address: int) -> None:
        self.entries[domain] = (ts, ts + ttl * _CACHE_SLACK, address)


class WireGenerator:
    """Expands sessions into DNS records and segment bursts."""

    #: Zipf exponent for long-tail site popularity.
    TAIL_ZIPF_EXPONENT = 0.9
    #: Bytes-to-connections factor of a long-tail page fetch.
    TAIL_BYTE_FACTOR = 0.5
    #: Locked-down users explore the tail harder (boredom browsing):
    #: multiplies the archetype's longtail fraction after the stay-at-
    #: home order. Calibrated so distinct sites per user grow ~1/3
    #: (Section 4.1 reports +34%).
    TAIL_LOCKDOWN_BOOST = 1.3

    def __init__(self, plan: AddressPlan, resolver: SyntheticResolver,
                 lockdown_tail_boost: bool = True):
        self.plan = plan
        self.resolver = resolver
        #: Disabled for counterfactual (no-pandemic) generation.
        self.lockdown_tail_boost = lockdown_tail_boost
        self.directory = plan.directory
        self._tail_domains = [
            service.primary_domain for service in self.directory
            if service.name.startswith("tail-")
        ]
        if self._tail_domains:
            ranks = np.arange(1, len(self._tail_domains) + 1,
                              dtype=np.float64)
            weights = ranks ** -self.TAIL_ZIPF_EXPONENT
            self._tail_probs = weights / weights.sum()
        else:
            self._tail_probs = np.empty(0)

    def expand_session(self,
                       session: AppSession,
                       device: SimDevice,
                       archetype: AppArchetype,
                       client_ip: int,
                       rng: np.random.Generator,
                       dns_cache: DnsCache,
                       dns_out: List[DnsLogRecord],
                       burst_out: BurstColumnLists) -> int:
        """Append the session's wire events; returns connections emitted."""
        minutes = session.duration / MINUTE
        n_connections = max(1, int(rng.poisson(
            archetype.connections_per_minute * minutes)))

        components = self._pick_components(archetype, rng, n_connections,
                                           session.start)
        shares = self._byte_shares(archetype, components, rng)
        timings = sorted(
            (self._flow_times(session, archetype, rng)
             for _ in components),
            key=lambda span: span[0])
        # Connections are emitted in chronological order so a flow can
        # only reuse DNS answers that were already resolved.
        for component, share, (start, duration) in zip(
                components, shares, timings):
            conn_bytes = max(_MIN_CONNECTION_BYTES,
                             session.total_bytes * share)
            self._emit_connection(
                session, device, archetype, component, client_ip,
                conn_bytes, start, duration, rng, dns_cache,
                dns_out, burst_out)
        return len(components)

    # -- helpers ---------------------------------------------------------

    def _pick_components(self, archetype: AppArchetype,
                         rng: np.random.Generator,
                         count: int,
                         session_start: float) -> List[DomainComponent]:
        weights = np.array([c.weight for c in archetype.components])
        indices = rng.choice(len(archetype.components), size=count,
                             p=weights / weights.sum())
        components = [archetype.components[int(i)] for i in indices]
        if archetype.longtail_fraction > 0 and self._tail_domains:
            fraction = archetype.longtail_fraction
            if (self.lockdown_tail_boost
                    and session_start >= constants.STAY_AT_HOME):
                fraction = min(1.0, fraction * self.TAIL_LOCKDOWN_BOOST)
            to_tail = np.flatnonzero(rng.random(count) < fraction)
            for slot in to_tail:
                choice = int(rng.choice(len(self._tail_domains),
                                        p=self._tail_probs))
                domain = self._tail_domains[choice]
                service = self.directory.find_domain(domain)
                components[slot] = DomainComponent(
                    service=service.name,
                    domain=domain,
                    weight=1.0,
                    byte_share=self.TAIL_BYTE_FACTOR,
                )
        return components

    @staticmethod
    def _byte_shares(archetype: AppArchetype,
                     components: List[DomainComponent],
                     rng: np.random.Generator) -> np.ndarray:
        """Split session bytes across connections.

        Each connection draws an exponential mass scaled by its
        component's bytes-to-connections ratio, then masses are
        normalized -- heavy CDN components carry more per connection.
        """
        factors = np.array([
            component.byte_share / max(component.weight, 1e-9)
            for component in components
        ])
        raw = rng.exponential(1.0, size=len(components)) * factors
        total = raw.sum()
        if total <= 0:
            return np.full(len(components), 1.0 / len(components))
        return raw / total

    def _emit_connection(self, session: AppSession, device: SimDevice,
                         archetype: AppArchetype,
                         component: DomainComponent, client_ip: int,
                         conn_bytes: float, start: float, duration: float,
                         rng: np.random.Generator,
                         dns_cache: DnsCache,
                         dns_out: List[DnsLogRecord],
                         burst_out: BurstColumnLists) -> None:
        service = self.directory.get(component.service)

        server_ip = self._server_address(
            service, component.domain, client_ip, start, rng,
            dns_cache, dns_out)
        if server_ip is None:
            return  # unresolvable domain: no connection happens

        port, proto = self._endpoint(service, rng)
        upload = conn_bytes * archetype.upload_fraction
        download = conn_bytes - upload

        plaintext = rng.random() < service.http_fraction
        user_agent = None
        http_host = None
        if plaintext:
            # The Host header is visible on any plaintext request; the
            # User-Agent only when the client app exposes one.
            http_host = component.domain
            if rng.random() < device.ua_exposure:
                user_agent = device.user_agent

        client_port = int(rng.integers(10_000, 60_000))
        self._emit_bursts(
            start, duration, client_ip, client_port, server_ip, port,
            proto, int(upload), int(download), user_agent, http_host,
            rng, burst_out)

    @staticmethod
    def _flow_times(session: AppSession, archetype: AppArchetype,
                    rng: np.random.Generator) -> Tuple[float, float]:
        style = archetype.flow_style
        if style == "mixed":
            style = "long" if rng.random() < 0.5 else "bursty"
        if style == "long":
            start = session.start + float(
                rng.uniform(0, 0.2)) * session.duration
            remaining = session.end - start
            duration = float(rng.uniform(0.6, 1.0)) * remaining
        else:
            start = session.start + float(rng.uniform(0, 0.95)) * session.duration
            duration = min(lognormal_with_mean(rng, 20.0, 0.8),
                           max(1.0, session.end - start))
        return start, max(1.0, duration)

    def _server_address(self, service: Service, domain: str, client_ip: int,
                        ts: float, rng: np.random.Generator,
                        dns_cache: DnsCache,
                        dns_out: List[DnsLogRecord]) -> Optional[int]:
        if rng.random() < service.dnsless_fraction:
            # Direct-to-IP (media servers, P2P introductions): pick a
            # host from the service's blocks with no query at all.
            prefixes = self.plan.prefixes_for_service(service.name)
            prefix = prefixes[int(rng.integers(0, len(prefixes)))]
            span = max(1, prefix.size - 2)
            return prefix.first + 1 + int(rng.integers(0, span))

        cached = dns_cache.get(domain, ts)
        if cached is not None:
            return cached

        record = self.resolver.query(client_ip, domain, ts - 0.05)
        if record is None:
            return None
        dns_out.append(record)
        address = record.answers[int(rng.integers(0, len(record.answers)))]
        dns_cache.put(domain, ts, record.ttl, address)
        return address

    @staticmethod
    def _endpoint(service: Service, rng: np.random.Generator) -> Tuple[int, str]:
        endpoints = service.endpoints
        if len(endpoints) == 1 or rng.random() < 0.7:
            chosen = endpoints[0]
        else:
            chosen = endpoints[int(rng.integers(1, len(endpoints)))]
        return chosen.port, chosen.proto

    @staticmethod
    def _emit_bursts(start: float, duration: float, client_ip: int,
                     client_port: int, server_ip: int, server_port: int,
                     proto: str, upload: int, download: int,
                     user_agent: Optional[str], http_host: Optional[str],
                     rng: np.random.Generator,
                     burst_out: BurstColumnLists) -> None:
        """Split one connection into bursts along its lifetime.

        The first burst sits at the flow start and the last at the flow
        end (carrying the teardown), so the flow engine can recover the
        connection's true span; longer flows get extra mid-life bursts.
        """
        if duration < 5.0:
            offsets = [0.0]
        elif duration < 60.0:
            offsets = [0.0, duration]
        else:
            extra = sorted(
                float(x) for x in rng.uniform(0, duration,
                                              size=int(rng.integers(1, 3))))
            offsets = [0.0, *extra, duration]
        n_bursts = len(offsets)
        raw = rng.exponential(1.0, size=n_bursts)
        splits = (raw / raw.sum()).tolist()
        burst_out.ts.extend([start + offset for offset in offsets])
        burst_out.client_ip.extend([client_ip] * n_bursts)
        burst_out.client_port.extend([client_port] * n_bursts)
        burst_out.server_ip.extend([server_ip] * n_bursts)
        burst_out.server_port.extend([server_port] * n_bursts)
        burst_out.proto.extend([proto] * n_bursts)
        burst_out.orig_bytes.extend(
            [max(1, int(upload * split)) for split in splits])
        burst_out.resp_bytes.extend(
            [max(1, int(download * split)) for split in splits])
        # Headers ride the first burst only; the last carries teardown.
        later = n_bursts - 1
        burst_out.user_agent.append(user_agent)
        burst_out.user_agent.extend([None] * later)
        burst_out.http_host.append(http_host)
        burst_out.http_host.extend([None] * later)
        burst_out.is_final.extend([False] * later)
        burst_out.is_final.append(True)
