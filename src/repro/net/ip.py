"""IPv4 helpers and prefix allocation.

Addresses travel through the pipeline as plain integers (fast to hash,
compare, and store in numpy arrays); dotted-quad strings exist only at
the logging boundary. The :class:`PrefixAllocator` hands out disjoint
prefixes from a parent block -- used to lay out the synthetic internet's
address plan and the campus DHCP pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple


def ip_to_int(text: str) -> int:
    """Parse dotted-quad notation into an integer address."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Format an integer address as dotted-quad notation."""
    if not 0 <= value < 2**32:
        raise ValueError(f"IPv4 value out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 CIDR prefix ``network/length`` with integer network base."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length out of range: {self.length}")
        if self.network & (self.size - 1):
            raise ValueError(
                f"network {int_to_ip(self.network)} not aligned to /{self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` notation."""
        address, _, length = text.partition("/")
        if not length:
            raise ValueError(f"missing prefix length in {text!r}")
        return cls(ip_to_int(address), int(length))

    @property
    def size(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.length)

    @property
    def first(self) -> int:
        return self.network

    @property
    def last(self) -> int:
        return self.network + self.size - 1

    def contains(self, address: int) -> bool:
        """Return True when ``address`` falls inside the prefix."""
        return self.network <= address <= self.last

    def addresses(self) -> Iterable[int]:
        """Iterate over every address in the prefix."""
        return range(self.first, self.last + 1)

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.length}"


class PrefixAllocator:
    """Carves disjoint child prefixes out of one parent block.

    Allocation is first-fit and deterministic: the same sequence of
    requests always yields the same address plan, which keeps the whole
    synthetic internet reproducible under a fixed study seed.
    """

    def __init__(self, parent: Prefix):
        self.parent = parent
        self._cursor = parent.first
        self._allocated: List[Prefix] = []

    def allocate(self, length: int) -> Prefix:
        """Return the next free child prefix of the requested length."""
        if length < self.parent.length:
            raise ValueError(
                f"child /{length} larger than parent /{self.parent.length}"
            )
        size = 1 << (32 - length)
        base = (self._cursor + size - 1) & ~(size - 1)  # align up
        if base + size - 1 > self.parent.last:
            raise ValueError(
                f"parent {self.parent} exhausted allocating a /{length}"
            )
        child = Prefix(base, length)
        self._cursor = base + size
        self._allocated.append(child)
        return child

    @property
    def allocated(self) -> Tuple[Prefix, ...]:
        """All child prefixes handed out so far, in allocation order."""
        return tuple(self._allocated)

    def remaining(self) -> int:
        """Number of unallocated addresses left in the parent block."""
        return self.parent.last - self._cursor + 1
