"""Tests for repro.net.ip."""

import pytest
from hypothesis import given, strategies as st

from repro.net.ip import (
    Prefix,
    PrefixAllocator,
    int_to_ip,
    ip_to_int,
)


class TestConversions:
    def test_known_values(self):
        assert ip_to_int("0.0.0.0") == 0
        assert ip_to_int("0.0.0.1") == 1
        assert ip_to_int("1.0.0.0") == 2**24
        assert ip_to_int("255.255.255.255") == 2**32 - 1

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    def test_rejects_malformed(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"):
            with pytest.raises(ValueError):
                ip_to_int(bad)

    def test_int_to_ip_range(self):
        with pytest.raises(ValueError):
            int_to_ip(-1)
        with pytest.raises(ValueError):
            int_to_ip(2**32)


class TestPrefix:
    def test_parse(self):
        prefix = Prefix.parse("10.1.0.0/16")
        assert prefix.network == ip_to_int("10.1.0.0")
        assert prefix.length == 16
        assert prefix.size == 65536

    def test_parse_requires_length(self):
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.0")

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            Prefix(ip_to_int("10.0.0.1"), 24)

    def test_contains(self):
        prefix = Prefix.parse("10.0.0.0/24")
        assert prefix.contains(ip_to_int("10.0.0.0"))
        assert prefix.contains(ip_to_int("10.0.0.255"))
        assert not prefix.contains(ip_to_int("10.0.1.0"))

    def test_str(self):
        assert str(Prefix.parse("50.0.0.0/8")) == "50.0.0.0/8"

    def test_host_count(self):
        assert Prefix.parse("10.0.0.0/30").size == 4
        assert len(list(Prefix.parse("10.0.0.0/30").addresses())) == 4


class TestPrefixAllocator:
    def test_sequential_disjoint(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/16"))
        children = [allocator.allocate(24) for _ in range(4)]
        seen = set()
        for child in children:
            addresses = set(range(child.first, child.last + 1))
            assert not addresses & seen
            seen |= addresses

    def test_alignment_after_mixed_sizes(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/16"))
        allocator.allocate(26)  # quarter of a /24
        aligned = allocator.allocate(24)
        assert aligned.network % aligned.size == 0

    def test_exhaustion(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/30"))
        allocator.allocate(31)
        allocator.allocate(31)
        with pytest.raises(ValueError):
            allocator.allocate(31)

    def test_rejects_oversized_child(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/16"))
        with pytest.raises(ValueError):
            allocator.allocate(8)

    def test_deterministic(self):
        def plan():
            allocator = PrefixAllocator(Prefix.parse("10.0.0.0/12"))
            return [str(allocator.allocate(length))
                    for length in (24, 26, 20, 28)]
        assert plan() == plan()

    def test_remaining_decreases(self):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/24"))
        before = allocator.remaining()
        allocator.allocate(26)
        assert allocator.remaining() == before - 64
