"""Property-based tests for lenient parsing and quarantine accounting.

The load-bearing invariant: for any log and any corruption pattern,
every input line is accounted for exactly once --

    parsed + quarantined(malformed) + quarantined(blank) == total lines

-- and lenient mode on a *clean* log is indistinguishable from strict
mode (same records, empty sink).
"""

import io

from hypothesis import given, settings, strategies as st

from repro.dhcp.log import DhcpLogRecord, read_dhcp_log
from repro.net.mac import MacAddress
from repro.reliability.faults import corrupt_log_lines
from repro.reliability.quarantine import QuarantineSink


def _dhcp_lines(n):
    return [
        DhcpLogRecord(ts=float(i), mac=MacAddress(0x9C1A0000 + i),
                      ip=0x0A000001 + i, lease_end=float(i) + 43200.0
                      ).to_json()
        for i in range(n)
    ]


class TestAccountingInvariant:
    @given(n=st.integers(min_value=0, max_value=80),
           rate=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_every_dhcp_line_is_parsed_or_quarantined(self, n, rate, seed):
        lines, touched = corrupt_log_lines(_dhcp_lines(n), rate, seed)
        sink = QuarantineSink()
        parsed = list(read_dhcp_log(io.StringIO("\n".join(lines)),
                                    mode="lenient", sink=sink))
        assert len(parsed) + sink.malformed("dhcp") == n
        assert sink.malformed("dhcp") == len(touched)
        assert sink.blank("dhcp") == 0  # the injector never blanks lines

    @given(n=st.integers(min_value=0, max_value=40),
           blanks=st.lists(st.sampled_from(["", " ", "\t", "   "]),
                           max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_blank_lines_extend_the_invariant(self, n, blanks):
        """With interleaved blanks: parsed + malformed + blank == total."""
        lines = _dhcp_lines(n) + blanks
        # Newline-terminate every line (as log writers do) so trailing
        # blanks survive as real input lines.
        content = "".join(line + "\n" for line in lines)
        sink = QuarantineSink()
        parsed = list(read_dhcp_log(io.StringIO(content),
                                    mode="lenient", sink=sink))
        assert len(parsed) == n
        assert sink.malformed("dhcp") == 0
        assert sink.blank("dhcp") == len(blanks)
        assert len(parsed) + len(sink) == len(lines)


class TestCleanLogEquivalence:
    @given(n=st.integers(min_value=0, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_lenient_equals_strict_on_clean_dhcp_log(self, n):
        lines = "\n".join(_dhcp_lines(n))
        strict = list(read_dhcp_log(io.StringIO(lines)))
        sink = QuarantineSink()
        lenient = list(read_dhcp_log(io.StringIO(lines),
                                     mode="lenient", sink=sink))
        assert lenient == strict
        assert len(sink) == 0
