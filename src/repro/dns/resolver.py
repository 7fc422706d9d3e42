"""The campus-facing synthetic resolver.

Answers queries for catalog domains with host addresses drawn from the
owning service's prefixes. Answers rotate hourly (like load-balanced
authoritative DNS), so the measurement side cannot rely on one stable
IP per domain -- it must use the logs, as the paper does.
"""

from __future__ import annotations

from typing import Tuple

from repro.net.ip import Prefix
from repro.util.rng import RngFactory
from repro.world.addressing import AddressPlan

#: Seconds per answer-rotation epoch.
_ROTATION_PERIOD = 3600.0


class SyntheticResolver:
    """Resolves catalog domains against the address plan."""

    #: Entries kept in the per-(domain, epoch) answer memo. Answers are
    #: deterministic in (domain, epoch), so memoization changes nothing
    #: observable -- it only avoids re-deriving the same RNG stream for
    #: every client that asks within the hour.
    CACHE_LIMIT = 50_000

    def __init__(self, plan: AddressPlan, rngs: RngFactory,
                 answer_count: int = 3, default_ttl: float = 300.0):
        if answer_count < 1:
            raise ValueError("answer_count must be at least 1")
        self.plan = plan
        self._rngs = rngs.child("dns-resolver")
        self.answer_count = answer_count
        self.default_ttl = default_ttl
        self._memo: dict = {}

    def resolve(self, domain: str, ts: float) -> Tuple[int, ...]:
        """Return the answer set for a domain at a time (empty if NXDOMAIN)."""
        epoch = int(ts // _ROTATION_PERIOD)
        key = (domain, epoch)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        answers = self._resolve_fresh(domain, epoch)
        if len(self._memo) >= self.CACHE_LIMIT:
            self._memo.clear()
        self._memo[key] = answers
        return answers

    def _resolve_fresh(self, domain: str, epoch: int) -> Tuple[int, ...]:
        prefixes = self.plan.prefixes_for_domain(domain)
        if not prefixes:
            return ()
        rng = self._rngs.stream(domain, epoch)
        answers = []
        for _ in range(self.answer_count):
            prefix = prefixes[int(rng.integers(0, len(prefixes)))]
            answers.append(_host_in(prefix, rng))
        # Deduplicate while preserving order (small prefixes collide).
        seen = set()
        unique = []
        for address in answers:
            if address not in seen:
                seen.add(address)
                unique.append(address)
        return tuple(unique)


def _host_in(prefix: Prefix, rng) -> int:
    """Pick a host address inside a prefix, avoiding network/broadcast."""
    if prefix.size <= 2:
        return prefix.first
    return prefix.first + 1 + int(rng.integers(0, prefix.size - 2))
