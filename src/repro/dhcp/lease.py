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

    def holdover_active_at(self, ts: float,
                           staleness_seconds: float) -> bool:
        """Degraded validity: the binding plus a bounded hold-over.

        When the DHCP log has a gap, a renewal may have happened without
        being logged; a lease is then conservatively held over for up to
        ``staleness_seconds`` past its logged expiry. The columnar
        interval join
        (``repro.columnar.leases.ColumnarLeaseIndex.mac_ids_at_stale``)
        applies the same idea as mask algebra over whole batches; the
        property suite (``tests/property/test_columnar_props.py``)
        holds it in exact agreement with a per-flow reference resolver.
        """
        return self.start <= ts < self.end + staleness_seconds

    def renewed(self, ts: float, duration: float) -> "Lease":
        """Return this lease extended by a renewal at ``ts``."""
        if not self.active_at(ts):
            raise ValueError("cannot renew an expired lease")
        return replace(self, end=ts + duration)
