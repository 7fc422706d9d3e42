"""Property-based tests for the DHCP server + resolver pair."""

from hypothesis import given, settings, strategies as st

from repro.dhcp.server import DhcpServer, PoolExhaustedError
from repro.net.ip import Prefix
from repro.net.mac import MacAddress
from tests.oracles.resolvers import IpMacResolver

#: A request is (client id, seconds since previous request).
_request = st.tuples(
    st.integers(min_value=0, max_value=11),
    st.floats(min_value=0, max_value=30_000),
)


class TestDhcpProperties:
    @given(st.lists(_request, max_size=80))
    @settings(max_examples=150)
    def test_no_concurrent_ip_sharing(self, requests):
        """At any acquire instant, active leases have distinct IPs."""
        server = DhcpServer([Prefix.parse("10.0.0.0/27")],
                            lease_seconds=5_000)
        clock = 0.0
        active = {}
        try:
            for client, delta in requests:
                clock += delta
                lease = server.acquire(MacAddress(0x9C1A0000_0000 + client),
                                       clock)
                # Evict our own view of expired leases, then check.
                active = {mac: l for mac, l in active.items()
                          if l.active_at(clock)}
                for mac, other in active.items():
                    if mac != lease.mac:
                        assert other.ip != lease.ip
                active[lease.mac] = lease
        except PoolExhaustedError:
            pass  # acceptable terminal state for dense request patterns

    @given(st.lists(_request, max_size=80))
    @settings(max_examples=150)
    def test_resolver_reconstructs_server_truth(self, requests):
        """mac_at(ip, t) from logs equals the server's assignment at t."""
        server = DhcpServer([Prefix.parse("10.0.0.0/26")],
                            lease_seconds=5_000)
        clock = 0.0
        observations = []
        try:
            for client, delta in requests:
                clock += delta
                mac = MacAddress(0x9C1A0000_0000 + client)
                lease = server.acquire(mac, clock)
                observations.append((lease.ip, clock, mac))
        except PoolExhaustedError:
            pass
        resolver = IpMacResolver.from_records(server.drain_log())
        for ip, ts, mac in observations:
            assert resolver.mac_at(ip, ts) == mac

    @given(st.lists(_request, max_size=60))
    @settings(max_examples=100)
    def test_lease_always_covers_acquire_instant(self, requests):
        server = DhcpServer([Prefix.parse("10.0.0.0/26")],
                            lease_seconds=3_000)
        clock = 0.0
        try:
            for client, delta in requests:
                clock += delta
                lease = server.acquire(
                    MacAddress(0x9C1A0000_0000 + client), clock)
                assert lease.active_at(clock)
                assert lease.end - clock >= 3_000 * server.RENEW_FRACTION
        except PoolExhaustedError:
            pass
