"""Tests for session -> wire-event expansion."""

import numpy as np
import pytest

from repro.net.oui_db import default_oui_database
from repro.synth.archetypes import (
    AppArchetype,
    DomainComponent,
    default_archetypes,
)
from repro.synth.devices import DeviceKind, make_device
from repro.synth.sessions import AppSession
from repro.synth.wiregen import (
    BurstColumnLists,
    DnsCache,
    DnsColumnLists,
    WireGenerator,
)
from repro.dns.resolver import SyntheticResolver
from repro.util.rng import RngFactory
from repro.util.timeutil import utc_ts
from repro.world.addressing import build_address_plan
from repro.world.catalog import default_directory

SESSION_START = utc_ts(2020, 2, 5, 20)


@pytest.fixture(scope="module")
def env():
    directory = default_directory(longtail_sites=20)
    plan = build_address_plan(directory)
    resolver = SyntheticResolver(plan, RngFactory(2))
    generator = WireGenerator(plan, resolver)
    archetypes = default_archetypes(directory)
    return plan, generator, archetypes


def _device(kind=DeviceKind.LAPTOP, seed=1):
    return make_device(
        device_id=3, owner_id=0, kind=kind, oui_db=default_oui_database(),
        rng=np.random.default_rng(seed), arrival_ts=0.0, departure_ts=None)


def _session(name, minutes=20.0, total_bytes=50e6):
    return AppSession(device_id=3, archetype_name=name,
                      start=SESSION_START, duration=minutes * 60,
                      total_bytes=total_bytes)


def _expand(env, name, seed=0, device=None, **session_kwargs):
    plan, generator, archetypes = env
    dns_out, bursts = DnsColumnLists(), BurstColumnLists()
    count = generator.expand_session(
        _session(name, **session_kwargs), device or _device(),
        archetypes[name], client_ip=0x64400101,
        rng=np.random.default_rng(seed), dns_cache=DnsCache(),
        dns_out=dns_out, burst_out=bursts)
    return (count, list(dns_out.columns().rows()),
            list(bursts.columns().rows()))


class TestExpansion:
    def test_bursts_cover_session_span(self, env):
        count, dns_out, bursts = _expand(env, "facebook")
        assert count >= 1
        assert bursts
        for burst in bursts:
            assert SESSION_START - 1 <= burst.ts <= SESSION_START + 21 * 60

    def test_bytes_roughly_conserved(self, env):
        _, _, bursts = _expand(env, "facebook", total_bytes=80e6)
        total = sum(b.orig_bytes + b.resp_bytes for b in bursts)
        assert total == pytest.approx(80e6, rel=0.25)

    def test_servers_belong_to_archetype_services(self, env):
        plan, _, archetypes = env
        _, _, bursts = _expand(env, "facebook")
        expected = {c.service for c in archetypes["facebook"].components}
        for burst in bursts:
            service = plan.service_of_address(burst.server_ip)
            assert service is not None
            assert service.name in expected

    def test_dns_precedes_connection(self, env):
        """Every flow's server IP must have a DNS observation at or
        before the flow start (unless the service is dnsless)."""
        _, dns_out, bursts = _expand(env, "instagram", seed=5)
        first_burst = {}
        for burst in bursts:
            key = burst.five_tuple
            if key not in first_burst or burst.ts < first_burst[key].ts:
                first_burst[key] = burst
        for burst in first_burst.values():
            observations = [r.ts for r in dns_out
                            if burst.server_ip in r.answers
                            and r.ts <= burst.ts]
            assert observations, "flow without prior DNS observation"

    def test_zoom_emits_dnsless_media(self, env):
        plan, _, _ = env
        dnsless = 0
        for seed in range(5):
            _, dns_out, bursts = _expand(env, "zoom_class", seed=seed,
                                         total_bytes=300e6)
            answered = {ip for record in dns_out for ip in record.answers}
            for burst in bursts:
                if burst.server_ip not in answered:
                    dnsless += 1
        assert dnsless > 0

    def test_logged_row_fields(self, env):
        """A query is logged 0.05 s before its connection starts, from
        the client, with the resolver's answers for that time and its
        default TTL."""
        _, generator, _ = env
        _, dns_out, bursts = _expand(env, "instagram", seed=5)
        assert dns_out
        resolver = generator.resolver
        for record in dns_out:
            assert record.client_ip == 0x64400101
            assert record.ttl == resolver.default_ttl
            assert record.answers == resolver.resolve(record.qname,
                                                      record.ts)
            assert any(abs(burst.ts - 0.05 - record.ts) < 1e-6
                       and burst.server_ip in record.answers
                       for burst in bursts)

    def test_dns_cache_reduces_queries(self, env):
        plan, generator, archetypes = env
        device = _device()
        cache = DnsCache()
        dns_out, bursts = DnsColumnLists(), BurstColumnLists()
        rng = np.random.default_rng(0)
        for offset in (0.0, 120.0):
            session = AppSession(
                device_id=3, archetype_name="facebook",
                start=SESSION_START + offset, duration=100.0,
                total_bytes=10e6)
            generator.expand_session(session, device,
                                     archetypes["facebook"], 0x64400101,
                                     rng, cache, dns_out, bursts)
        domains_queried = dns_out.columns().qname.tolist()
        # Cached answers mean strictly fewer queries than connections.
        assert len(domains_queried) < len(
            {b.five_tuple for b in bursts.columns().rows()}) + len(set(domains_queried))

    def test_final_burst_flagged(self, env):
        _, _, bursts = _expand(env, "netflix", total_bytes=1e9)
        by_conn = {}
        for burst in bursts:
            by_conn.setdefault(burst.five_tuple, []).append(burst)
        for conn_bursts in by_conn.values():
            last = max(conn_bursts, key=lambda b: b.ts)
            assert last.is_final

    def test_user_agent_only_on_exposing_devices(self, env):
        silent = _device(seed=2)
        object.__setattr__(silent, "ua_exposure", 0.0)
        for seed in range(4):
            _, _, bursts = _expand(env, "web_browse", seed=seed,
                                   device=silent)
            assert all(b.user_agent is None for b in bursts)


class TestUnresolvableDomain:
    """A component whose domain no service registers draws its
    connections but never emits them: no bursts, no DNS record, and no
    count toward the connections emitted."""

    @staticmethod
    def _archetype(components):
        return AppArchetype(
            "ghost", components=components, mean_session_minutes=12,
            session_minutes_sigma=0.7, connections_per_minute=1.2,
            mean_session_bytes=22e6, bytes_sigma=0.8, flow_style="bursty")

    @staticmethod
    def _expand_archetype(env, archetype, seed):
        plan, generator, _ = env
        dns_out, bursts = DnsColumnLists(), BurstColumnLists()
        count = generator.expand_session(
            AppSession(device_id=3, archetype_name=archetype.name,
                       start=SESSION_START, duration=20 * 60,
                       total_bytes=50e6),
            _device(), archetype, client_ip=0x64400101,
            rng=np.random.default_rng(seed), dns_cache=DnsCache(),
            dns_out=dns_out, burst_out=bursts)
        return count, list(dns_out.columns().rows()), bursts.columns()

    def test_unresolvable_connections_not_counted(self, env):
        plan = env[0]
        # facebook is never reached straight by IP, so an unresolvable
        # domain of its can yield no connection at all.
        assert plan.directory.get("facebook").dnsless_fraction == 0.0
        assert plan.directory.find_domain("ghost.invalid") is None
        archetype = self._archetype(
            (DomainComponent("facebook", "ghost.invalid", 1.0, 1.0),))
        count, dns_out, bursts = self._expand_archetype(env, archetype, 0)
        assert (count, dns_out, len(bursts)) == (0, [], 0)

    def test_count_is_connections_emitted(self, env):
        archetype = self._archetype((
            DomainComponent("facebook", "ghost.invalid", 0.5, 0.5),
            DomainComponent("facebook", "facebook.com", 0.5, 0.5),
        ))
        count, _, bursts = self._expand_archetype(env, archetype, 1)
        assert count > 0
        assert count == int(bursts.is_final.sum())
        assert set(bursts.http_host.tolist()) <= {None, "facebook.com"}


class TestLongtail:
    def test_longtail_sites_visited(self, env):
        plan, _, _ = env
        tail_hits = 0
        for seed in range(5):
            _, _, bursts = _expand(env, "web_browse", seed=seed,
                                   minutes=60, total_bytes=30e6)
            for burst in bursts:
                service = plan.service_of_address(burst.server_ip)
                if service and service.name.startswith("tail-"):
                    tail_hits += 1
        assert tail_hits > 0

    def test_non_browsing_apps_stay_on_catalog(self, env):
        plan, _, archetypes = env
        _, _, bursts = _expand(env, "netflix", total_bytes=1e9)
        expected = {c.service for c in archetypes["netflix"].components}
        for burst in bursts:
            assert plan.service_of_address(burst.server_ip).name in expected


class TestDnsCacheUnit:
    def test_entry_not_served_before_query_time(self):
        cache = DnsCache()
        cache.put("x.com", ts=100.0, ttl=300.0, address=42)
        assert cache.get("x.com", 99.0) is None
        assert cache.get("x.com", 100.0) == 42

    def test_expiry(self):
        cache = DnsCache()
        cache.put("x.com", ts=0.0, ttl=100.0, address=42)
        assert cache.get("x.com", 150.0) == 42  # within slack
        assert cache.get("x.com", 250.0) is None

    def test_miss(self):
        assert DnsCache().get("nope.com", 0.0) is None
