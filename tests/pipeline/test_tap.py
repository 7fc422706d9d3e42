"""Tests for the mirror tap's excluded-network filter.

Run on :class:`~tests.oracles.pipeline.RowTap`, whose per-burst filter
shares the production :class:`~repro.pipeline.tap.Tap`'s merged
excluded-span table.
"""

from repro.net.ip import Prefix, ip_to_int
from repro.net.wire import SegmentBurst
from tests.oracles.pipeline import RowTap


def _burst(server_ip, orig=10, resp=20):
    return SegmentBurst(
        ts=0.0, client_ip=1, client_port=2, server_ip=server_ip,
        server_port=443, proto="tcp", orig_bytes=orig, resp_bytes=resp)


class TestTap:
    def test_no_exclusions_passes_everything(self):
        tap = RowTap()
        bursts = [_burst(ip_to_int("50.0.0.1"))]
        assert tap.filter(bursts) == bursts

    def test_excluded_dropped(self):
        tap = RowTap([Prefix.parse("60.0.0.0/12")])
        kept = tap.filter([
            _burst(ip_to_int("60.0.0.1")),
            _burst(ip_to_int("50.0.0.1")),
            _burst(ip_to_int("60.15.255.255")),
            _burst(ip_to_int("60.16.0.0")),
        ])
        assert [b.server_ip for b in kept] == [
            ip_to_int("50.0.0.1"), ip_to_int("60.16.0.0")]

    def test_drop_counters(self):
        tap = RowTap([Prefix.parse("60.0.0.0/12")])
        tap.filter([_burst(ip_to_int("60.0.0.1"), orig=100, resp=200)])
        assert tap.dropped_bursts == 1
        assert tap.dropped_bytes == 300

    def test_multiple_blocks(self):
        tap = RowTap([Prefix.parse("60.0.0.0/16"),
                   Prefix.parse("60.2.0.0/16")])
        assert tap.is_excluded(ip_to_int("60.0.5.5"))
        assert not tap.is_excluded(ip_to_int("60.1.5.5"))
        assert tap.is_excluded(ip_to_int("60.2.5.5"))

    def test_adjacent_blocks_merged(self):
        tap = RowTap([Prefix.parse("60.0.0.0/17"),
                   Prefix.parse("60.0.128.0/17")])
        assert tap.is_excluded(ip_to_int("60.0.128.0"))
        assert tap.is_excluded(ip_to_int("60.0.127.255"))
        assert not tap.is_excluded(ip_to_int("60.1.0.0"))

    def test_overlapping_blocks(self):
        tap = RowTap([Prefix.parse("60.0.0.0/12"),
                   Prefix.parse("60.1.0.0/16")])
        assert tap.is_excluded(ip_to_int("60.1.2.3"))
        assert tap.is_excluded(ip_to_int("60.9.2.3"))
