"""DHCP lease records."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.net.mac import MacAddress


@dataclass(frozen=True)
class Lease:
    """One address binding: ``ip`` belongs to ``mac`` over [start, end)."""

    mac: MacAddress
    ip: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("lease must have positive duration")

    def active_at(self, ts: float) -> bool:
        """True while the binding is valid."""
        return self.start <= ts < self.end

    def renewed(self, ts: float, duration: float) -> "Lease":
        """Return this lease extended by a renewal at ``ts``."""
        if not self.active_at(ts):
            raise ValueError("cannot renew an expired lease")
        return replace(self, end=ts + duration)
