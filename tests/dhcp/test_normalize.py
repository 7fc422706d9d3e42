"""Tests for IP->MAC normalization from DHCP logs."""

import pytest

from repro.columnar.leases import ColumnarLeaseIndex
from repro.dhcp.log import DhcpLogRecord
from repro.net.mac import MacAddress
from repro.reliability.errors import CATEGORY_ORDER, RecordError
from tests.oracles.resolvers import IpMacResolver

MAC_A = MacAddress.parse("9c:1a:00:00:00:01")
MAC_B = MacAddress.parse("9c:1a:00:00:00:02")
IP = 0x0A000001


def _ack(ts, mac, ip=IP, lease=3600.0):
    return DhcpLogRecord(ts=ts, mac=mac, ip=ip, lease_end=ts + lease)


class TestIngest:
    def test_simple_binding(self):
        resolver = IpMacResolver.from_records([_ack(100.0, MAC_A)])
        assert resolver.mac_at(IP, 100.0) == MAC_A
        assert resolver.mac_at(IP, 3699.0) == MAC_A
        assert resolver.mac_at(IP, 3700.0) is None
        assert resolver.mac_at(IP, 99.0) is None

    def test_unknown_ip(self):
        resolver = IpMacResolver.from_records([_ack(0.0, MAC_A)])
        assert resolver.mac_at(IP + 1, 0.0) is None

    def test_renewal_extends(self):
        resolver = IpMacResolver.from_records([
            _ack(0.0, MAC_A),
            _ack(2000.0, MAC_A),  # renewal -> lease to 5600
        ])
        assert resolver.mac_at(IP, 5000.0) == MAC_A
        assert len(resolver.bindings_of(IP)) == 1

    def test_reassignment_truncates(self):
        """A grant to a new MAC ends the previous binding."""
        resolver = IpMacResolver.from_records([
            _ack(0.0, MAC_A, lease=10_000.0),
            _ack(5000.0, MAC_B),
        ])
        assert resolver.mac_at(IP, 4999.0) == MAC_A
        assert resolver.mac_at(IP, 5000.0) == MAC_B
        assert resolver.mac_at(IP, 6000.0) == MAC_B

    def test_reuse_after_gap(self):
        resolver = IpMacResolver.from_records([
            _ack(0.0, MAC_A, lease=100.0),
            _ack(1000.0, MAC_B, lease=100.0),
        ])
        assert resolver.mac_at(IP, 50.0) == MAC_A
        assert resolver.mac_at(IP, 500.0) is None  # nobody held it
        assert resolver.mac_at(IP, 1050.0) == MAC_B

    def test_out_of_order_rejected(self):
        resolver = IpMacResolver()
        resolver.ingest(_ack(1000.0, MAC_A))
        with pytest.raises(ValueError):
            resolver.ingest(_ack(500.0, MAC_B))

    @pytest.mark.parametrize("twin", [IpMacResolver, ColumnarLeaseIndex])
    def test_out_of_order_is_a_typed_record_error(self, twin):
        resolver = twin()
        resolver.ingest(_ack(1000.0, MAC_A))
        with pytest.raises(RecordError) as excinfo:
            resolver.ingest(_ack(500.0, MAC_B))
        assert excinfo.value.source == "dhcp"
        assert excinfo.value.category == CATEGORY_ORDER

    def test_counters(self):
        resolver = IpMacResolver.from_records([
            _ack(0.0, MAC_A),
            _ack(0.0, MAC_B, ip=IP + 1),
        ])
        assert resolver.record_count == 2
        assert len(resolver) == 2


class TestRoundTripWithServer:
    def test_server_log_replays_exactly(self):
        """Resolver reconstructed from server logs matches server truth."""
        from repro.dhcp.server import DhcpServer
        from repro.net.ip import Prefix

        server = DhcpServer([Prefix.parse("10.0.0.0/28")],
                            lease_seconds=100.0)
        macs = [MacAddress(0x9C1A0000_0000 + i) for i in range(10)]
        times = {}
        # Clients churn through the small pool across several epochs.
        clock = 0.0
        for epoch in range(6):
            for index, mac in enumerate(macs):
                if (epoch + index) % 3 == 0:
                    lease = server.acquire(mac, clock)
                    times[(mac, clock)] = lease.ip
                clock += 7.0
        resolver = IpMacResolver.from_records(server.drain_log())
        for (mac, ts), ip in times.items():
            assert resolver.mac_at(ip, ts) == mac
