"""Property-based tests for lenient parsing and quarantine accounting.

Each replay stream is read the way :mod:`repro.io.tracedir` reads it:
one record parser under :func:`~repro.reliability.parsing.read_jsonl_records`.
The load-bearing invariant, for every stream: for any log and any
corruption pattern, every input line is accounted for exactly once --

    parsed + quarantined(malformed) + quarantined(blank) == total lines

-- and lenient mode on a *clean* log is indistinguishable from strict
mode (same records, empty sink).
"""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.dhcp.log import DhcpLogRecord
from repro.dns.records import DnsLogRecord
from repro.io.tracedir import burst_from_json, burst_to_json
from repro.net.mac import MacAddress
from repro.net.wire import SegmentBurst
from repro.reliability.faults import corrupt_log_lines
from repro.reliability.parsing import read_jsonl_records
from repro.reliability.quarantine import QuarantineSink


def _dhcp_lines(n):
    return [
        DhcpLogRecord(ts=float(i), mac=MacAddress(0x9C1A0000 + i),
                      ip=0x0A000001 + i, lease_end=float(i) + 43200.0
                      ).to_json()
        for i in range(n)
    ]


def _dns_lines(n):
    return [
        DnsLogRecord(ts=float(i), client_ip=0x64400001 + i,
                     qname=f"host{i}.example.com",
                     answers=tuple(0x32000001 + i + k for k in range(i % 3)),
                     ttl=60.0 + i).to_json()
        for i in range(n)
    ]


def _wire_lines(n):
    return [
        burst_to_json(SegmentBurst(
            ts=float(i), client_ip=0x64400001 + i, client_port=40000 + i,
            server_ip=0x32000001, server_port=443,
            proto="udp" if i % 2 else "tcp", orig_bytes=10 * i,
            resp_bytes=20 * i,
            user_agent="Mozilla/5.0" if i % 3 == 0 else None,
            is_final=i % 4 == 0))
        for i in range(n)
    ]


#: source -> (line parser, clean-line generator), one per replay stream.
STREAMS = {
    "dhcp": (DhcpLogRecord.from_json, _dhcp_lines),
    "dns": (DnsLogRecord.from_json, _dns_lines),
    "wire": (burst_from_json, _wire_lines),
}


def _read(source, text, **kwargs):
    parse, _ = STREAMS[source]
    return list(read_jsonl_records(io.StringIO(text), parse, source=source,
                                   **kwargs))


@pytest.mark.parametrize("source", sorted(STREAMS))
class TestAccountingInvariant:
    @given(n=st.integers(min_value=0, max_value=80),
           rate=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_every_line_is_parsed_or_quarantined(self, source, n, rate,
                                                 seed):
        lines, touched = corrupt_log_lines(STREAMS[source][1](n), rate, seed)
        sink = QuarantineSink()
        parsed = _read(source, "\n".join(lines), mode="lenient", sink=sink)
        assert len(parsed) + sink.malformed(source) == n
        assert sink.malformed(source) == len(touched)
        assert sink.blank(source) == 0  # the injector never blanks lines

    @given(n=st.integers(min_value=0, max_value=40),
           blanks=st.lists(st.sampled_from(["", " ", "\t", "   "]),
                           max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_blank_lines_extend_the_invariant(self, source, n, blanks):
        """With interleaved blanks: parsed + malformed + blank == total."""
        lines = STREAMS[source][1](n) + blanks
        # Newline-terminate every line (as log writers do) so trailing
        # blanks survive as real input lines.
        content = "".join(line + "\n" for line in lines)
        sink = QuarantineSink()
        parsed = _read(source, content, mode="lenient", sink=sink)
        assert len(parsed) == n
        assert sink.malformed(source) == 0
        assert sink.blank(source) == len(blanks)
        assert len(parsed) + len(sink) == len(lines)


@pytest.mark.parametrize("source", sorted(STREAMS))
class TestCleanLogEquivalence:
    @given(n=st.integers(min_value=0, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_lenient_equals_strict_on_clean_log(self, source, n):
        lines = "\n".join(STREAMS[source][1](n))
        strict = _read(source, lines)
        sink = QuarantineSink()
        lenient = _read(source, lines, mode="lenient", sink=sink)
        assert lenient == strict
        assert len(sink) == 0
