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
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import constants
from repro.dns.records import DnsColumns
from repro.dns.resolver import SyntheticResolver
from repro.net.wire import BurstColumns
from repro.synth.archetypes import AppArchetype
from repro.synth.devices import SimDevice
from repro.synth.sessions import AppSession, lognormal_with_mean
from repro.util.rng import weighted_cdf
from repro.util.timeutil import MINUTE
from repro.world.addressing import AddressPlan
from repro.world.services import Service

#: Client DNS cache entries live this much longer than the answer TTL
#: (browsers and OS resolvers hold on past expiry).
_CACHE_SLACK = 2.0

#: Minimum bytes for any connection (TLS handshake floor).
_MIN_CONNECTION_BYTES = 600.0


class BurstColumnLists:
    """One day's bursts, recorded one row per connection.

    The generator appends one tuple per connection to ``connections``
    -- ``(start, client_ip, client_port, server_ip, server_port, proto,
    upload, download, user_agent, http_host, n_bursts)`` -- and the
    connection's ``n_bursts`` offsets from its start and raw exponential
    byte masses to the flat ``offsets`` and ``masses``. No per-burst
    object is ever built: :meth:`columns` expands the rows into burst
    columns and time-orders them once the day is complete.
    """

    __slots__ = ("connections", "offsets", "masses")

    def __init__(self) -> None:
        self.connections: List[tuple] = []
        self.offsets: List[float] = []
        self.masses: List[float] = []

    def columns(self) -> BurstColumns:
        """The day's bursts as columns, ordered by ``ts``.

        Each connection's bytes split over its bursts in proportion to
        their masses, and each burst carries ``max(1, int(bytes *
        split))``. Headers ride the first burst only; the last carries
        the teardown. A stable argsort keeps equal-``ts`` bursts in
        emission order, exactly the order a stable sort of the rows by
        ``ts`` gives. The lists are emptied, so the day's Python rows
        are released as soon as the columns exist.
        """
        rows = self.connections
        offsets = np.array(self.offsets, dtype=np.float64)
        masses = np.array(self.masses, dtype=np.float64)
        self.connections, self.offsets, self.masses = [], [], []
        if not rows:
            return BurstColumns(**{name: [] for name in BurstColumns.__slots__})
        (start, client_ip, client_port, server_ip, server_port, proto,
         upload, download, user_agent, http_host, n_bursts) = zip(*rows)
        del rows
        counts = np.array(n_bursts, dtype=np.int64)
        last = np.cumsum(counts) - 1
        first = last - (counts - 1)
        split = masses / np.repeat(_segment_sums(masses, first, counts),
                                   counts)

        def spread(values: tuple, dtype: type) -> np.ndarray:
            return np.repeat(np.array(values, dtype=dtype), counts)

        headers = {}
        for name, values in (("user_agent", user_agent),
                             ("http_host", http_host)):
            column = np.full(len(masses), None, dtype=object)
            column[first] = np.array(values, dtype=object)
            headers[name] = column
        is_final = np.zeros(len(masses), dtype=np.bool_)
        is_final[last] = True
        ts = spread(start, np.float64) + offsets
        order = np.argsort(ts, kind="stable")
        columns = dict(
            ts=ts,
            client_ip=spread(client_ip, np.int64),
            client_port=spread(client_port, np.int64),
            server_ip=spread(server_ip, np.int64),
            server_port=spread(server_port, np.int64),
            proto=np.repeat(np.array(proto, dtype=object), counts),
            orig_bytes=_burst_bytes(spread(upload, np.float64), split),
            resp_bytes=_burst_bytes(spread(download, np.float64), split),
            is_final=is_final,
            **headers)
        return BurstColumns(**{name: column[order]
                               for name, column in columns.items()})


class DnsColumnLists:
    """One day's DNS log, recorded one row per query.

    The generator appends one ``(ts, client_ip, qname, answers, ttl)``
    tuple per logged query to ``rows``; no :class:`DnsLogRecord` is
    built. :meth:`columns` turns the day's rows into
    :class:`~repro.dns.records.DnsColumns` once the day is complete.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: List[tuple] = []

    def columns(self) -> DnsColumns:
        """The day's DNS log as columns, ordered by ``ts``.

        A stable argsort keeps equal-``ts`` queries in emission order,
        the order a stable sort of the rows gives. The row list is
        emptied, so the day's Python rows are released as soon as the
        columns exist.
        """
        columns = DnsColumns.from_tuples(self.rows)
        self.rows = []
        return columns.take(np.argsort(columns.ts, kind="stable"))


def _segment_sums(values: np.ndarray, first: np.ndarray,
                  counts: np.ndarray) -> np.ndarray:
    """Each segment's sum, bit-identical to ``segment.sum()``.

    ``ndarray.sum`` adds fewer than eight items left to right (numpy's
    pairwise sum only splits longer runs); ``np.add.reduceat`` does
    not reproduce that. So the segments are laid out as zero-padded
    rows and the columns added left to right: adding 0.0 to a positive
    partial sum changes no bit.
    """
    width = int(counts.max())
    assert width < 8, "pairwise summation would reorder the adds"
    segment = np.repeat(np.arange(len(counts)), counts)
    padded = np.zeros((len(counts), width))
    padded[segment, np.arange(len(values)) - first[segment]] = values
    total = padded[:, 0].copy()
    for column in padded.T[1:]:
        total += column
    return total


def _burst_bytes(conn_bytes: np.ndarray, split: np.ndarray) -> np.ndarray:
    """``max(1, int(conn_bytes * split))`` per burst."""
    return np.maximum((conn_bytes * split).astype(np.int64), 1)


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


class _ComponentTable(NamedTuple):
    """One archetype's connection draw, resolved once per generator."""

    archetype: AppArchetype
    #: ``weighted_cdf`` of the normalised component weights.
    cdf: np.ndarray
    #: ``(domain, service)`` per component.
    targets: Tuple[Tuple[str, Service], ...]
    #: Bytes-to-connections ratio per component.
    byte_factors: np.ndarray


class WireGenerator:
    """Expands sessions into DNS log rows and segment bursts."""

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
        self._tables: Dict[str, _ComponentTable] = {}
        tail = [service for service in self.directory
                if service.name.startswith("tail-")]
        self._tail_targets = tuple(
            (service.primary_domain,
             self.directory.find_domain(service.primary_domain))
            for service in tail)
        self._tail_cdf = np.empty(0)
        if tail:
            ranks = np.arange(1, len(tail) + 1, dtype=np.float64)
            weights = ranks ** -self.TAIL_ZIPF_EXPONENT
            self._tail_cdf = weighted_cdf(weights / weights.sum())

    def expand_session(self,
                       session: AppSession,
                       device: SimDevice,
                       archetype: AppArchetype,
                       client_ip: int,
                       rng: np.random.Generator,
                       dns_cache: DnsCache,
                       dns_out: DnsColumnLists,
                       burst_out: BurstColumnLists) -> int:
        """Append the session's wire events; returns connections emitted.

        A connection to a domain that does not resolve is drawn but not
        emitted, and is not counted. ``client_ip`` is recorded verbatim
        in every DNS row and connection and drives no draw, so a caller
        may pass a placeholder (the generator passes the session's
        slot) and map it to the leased address afterwards.
        """
        minutes = session.duration / MINUTE
        n_connections = max(1, int(rng.poisson(
            archetype.connections_per_minute * minutes)))

        targets, factors = self._pick_components(
            archetype, rng, n_connections, session.start)
        shares = self._byte_shares(factors, rng)
        timings = sorted(
            (self._flow_times(session, archetype, rng)
             for _ in targets),
            key=lambda span: span[0])
        # Connections are emitted in chronological order so a flow can
        # only reuse DNS answers that were already resolved.
        emitted = 0
        for (domain, service), share, (start, duration) in zip(
                targets, shares.tolist(), timings):
            conn_bytes = max(_MIN_CONNECTION_BYTES,
                             session.total_bytes * share)
            emitted += self._emit_connection(
                device, archetype, domain, service, client_ip,
                conn_bytes, start, duration, rng, dns_cache,
                dns_out, burst_out)
        return emitted

    # -- helpers ---------------------------------------------------------

    def _table(self, archetype: AppArchetype) -> _ComponentTable:
        table = self._tables.get(archetype.name)
        if table is None or table.archetype is not archetype:
            components = archetype.components
            weights = np.array([c.weight for c in components])
            table = _ComponentTable(
                archetype=archetype,
                cdf=weighted_cdf(weights / weights.sum()),
                targets=tuple((c.domain, self.directory.get(c.service))
                              for c in components),
                byte_factors=np.array([c.byte_share / max(c.weight, 1e-9)
                                       for c in components]))
            self._tables[archetype.name] = table
        return table

    def _pick_components(self, archetype: AppArchetype,
                         rng: np.random.Generator,
                         count: int,
                         session_start: float
                         ) -> Tuple[List[Tuple[str, Service]], np.ndarray]:
        """Draw ``count`` connection targets and their byte factors.

        Draws what ``rng.choice`` over the component weights, then over
        the Zipf tail one slot at a time, would draw.
        """
        table = self._table(archetype)
        indices = table.cdf.searchsorted(rng.random(count), side="right")
        targets = [table.targets[i] for i in indices.tolist()]
        factors = table.byte_factors[indices]
        if archetype.longtail_fraction > 0 and self._tail_targets:
            fraction = archetype.longtail_fraction
            if (self.lockdown_tail_boost
                    and session_start >= constants.STAY_AT_HOME):
                fraction = min(1.0, fraction * self.TAIL_LOCKDOWN_BOOST)
            to_tail = np.flatnonzero(rng.random(count) < fraction)
            if to_tail.size:
                picks = self._tail_cdf.searchsorted(
                    rng.random(to_tail.size), side="right")
                for slot, pick in zip(to_tail.tolist(), picks.tolist()):
                    targets[slot] = self._tail_targets[pick]
                # A tail component has weight 1.0: its factor is the
                # byte factor itself.
                factors[to_tail] = self.TAIL_BYTE_FACTOR
        return targets, factors

    @staticmethod
    def _byte_shares(factors: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        """Split session bytes across connections.

        Each connection draws an exponential mass scaled by its
        component's bytes-to-connections ratio, then masses are
        normalized -- heavy CDN components carry more per connection.
        """
        raw = rng.exponential(1.0, size=len(factors)) * factors
        total = raw.sum()
        if total <= 0:
            return np.full(len(factors), 1.0 / len(factors))
        return raw / total

    def _emit_connection(self, device: SimDevice, archetype: AppArchetype,
                         domain: str, service: Service, client_ip: int,
                         conn_bytes: float, start: float, duration: float,
                         rng: np.random.Generator,
                         dns_cache: DnsCache,
                         dns_out: DnsColumnLists,
                         burst_out: BurstColumnLists) -> bool:
        """Record one connection; False when its domain is unresolvable."""
        server_ip = self._server_address(
            service, domain, client_ip, start, rng, dns_cache, dns_out)
        if server_ip is None:
            return False  # unresolvable domain: no connection happens

        port, proto = self._endpoint(service, rng)
        upload = conn_bytes * archetype.upload_fraction
        download = conn_bytes - upload

        plaintext = rng.random() < service.http_fraction
        user_agent = None
        http_host = None
        if plaintext:
            # The Host header is visible on any plaintext request; the
            # User-Agent only when the client app exposes one.
            http_host = domain
            if rng.random() < device.ua_exposure:
                user_agent = device.user_agent

        client_port = int(rng.integers(10_000, 60_000))
        offsets = self._burst_offsets(duration, rng)
        burst_out.connections.append((
            start, client_ip, client_port, server_ip, port, proto,
            int(upload), int(download), user_agent, http_host,
            len(offsets)))
        burst_out.offsets.extend(offsets)
        burst_out.masses.extend(
            rng.exponential(1.0, size=len(offsets)).tolist())
        return True

    @staticmethod
    def _flow_times(session: AppSession, archetype: AppArchetype,
                    rng: np.random.Generator) -> Tuple[float, float]:
        # lo + (hi - lo) * rng.random() is rng.uniform(lo, hi), drawn
        # more cheaply.
        style = archetype.flow_style
        if style == "mixed":
            style = "long" if rng.random() < 0.5 else "bursty"
        if style == "long":
            start = session.start + 0.2 * rng.random() * session.duration
            remaining = session.end - start
            duration = (0.6 + 0.4 * rng.random()) * remaining
        else:
            start = session.start + 0.95 * rng.random() * session.duration
            duration = min(lognormal_with_mean(rng, 20.0, 0.8),
                           max(1.0, session.end - start))
        return start, max(1.0, duration)

    def _server_address(self, service: Service, domain: str, client_ip: int,
                        ts: float, rng: np.random.Generator,
                        dns_cache: DnsCache,
                        dns_out: DnsColumnLists) -> Optional[int]:
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

        # The query goes out just before the connection; its time also
        # picks the answer epoch.
        queried = ts - 0.05
        answers = self.resolver.resolve(domain, queried)
        if not answers:
            return None  # NXDOMAIN: nothing is logged
        ttl = self.resolver.default_ttl
        dns_out.rows.append((queried, client_ip, domain, answers, ttl))
        address = answers[int(rng.integers(0, len(answers)))]
        dns_cache.put(domain, ts, ttl, address)
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
    def _burst_offsets(duration: float,
                       rng: np.random.Generator) -> Tuple[float, ...]:
        """Burst offsets from a connection's start, along its lifetime.

        The first burst sits at the flow start and the last at the flow
        end (carrying the teardown), so the flow engine can recover the
        connection's true span; longer flows get extra mid-life bursts.
        """
        if duration < 5.0:
            return (0.0,)
        if duration < 60.0:
            return (0.0, duration)
        # duration * rng.random(k) is rng.uniform(0, duration, size=k).
        extra = duration * rng.random(int(rng.integers(1, 3)))
        extra.sort()
        return (0.0, *extra.tolist(), duration)
