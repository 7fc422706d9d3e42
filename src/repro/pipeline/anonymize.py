"""One-way anonymization of device identifiers.

The paper's privacy controls (IRB-exempt because no identifiable data
is kept) anonymize device MAC and IP addresses and discard the raw
data after processing. The :class:`Anonymizer` is a keyed one-way
tokenizer: the same identifier always yields the same opaque token
under one salt, tokens differ across salts, and the raw value cannot
be recovered from the token.

Device-classification inputs that must survive anonymization (the OUI
and the locally-administered bit) are extracted *here*, at the privacy
boundary, so nothing downstream ever touches a raw MAC.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.net.ip import int_to_ip
from repro.net.mac import MacAddress


@dataclass(frozen=True)
class AnonymizedDevice:
    """The privacy-preserving projection of one device's MAC."""

    token: str
    #: 24-bit vendor prefix, or None for randomized (LAA) addresses --
    #: kept because classification needs it (Section 3).
    oui: Optional[int]
    is_locally_administered: bool


class Anonymizer:
    """Salted, keyed tokenization of MACs and IPs."""

    TOKEN_BYTES = 12

    def __init__(self, salt: str):
        if not salt:
            raise ValueError("anonymization salt must be non-empty")
        self._salt = salt.encode("utf-8")

    def _token(self, kind: bytes, payload: bytes) -> str:
        hasher = hashlib.blake2b(
            payload, digest_size=self.TOKEN_BYTES,
            key=self._salt[:64], person=kind[:16])
        return hasher.hexdigest()

    def device(self, mac: MacAddress) -> AnonymizedDevice:
        """Tokenize a MAC, preserving only classification-safe bits."""
        token = self._token(b"mac", str(mac).encode("ascii"))
        laa = mac.is_locally_administered
        return AnonymizedDevice(
            token=token,
            oui=None if laa else mac.oui,
            is_locally_administered=laa,
        )

    def ip_token(self, address: int) -> str:
        """Tokenize a (client) IP address."""
        return self._token(b"ip", int_to_ip(address).encode("ascii"))


class TokenCache:
    """Memoized MAC tokenization for the pipeline's hot path.

    Tokenization is deterministic per (salt, MAC), so caching changes
    nothing observable -- it only skips the keyed hash. The cache
    reports whether each lookup hit so the pipeline can surface
    hit/miss counters in its stats.
    """

    __slots__ = ("_anonymizer", "_entries")

    def __init__(self, anonymizer: Anonymizer):
        self._anonymizer = anonymizer
        self._entries: "dict[int, AnonymizedDevice]" = {}

    def lookup(self, mac: MacAddress) -> "tuple[AnonymizedDevice, bool]":
        """Return ``(anonymized, hit)`` for a MAC, tokenizing on miss."""
        anon = self._entries.get(mac.value)
        if anon is not None:
            return anon, True
        anon = self._anonymizer.device(mac)
        self._entries[mac.value] = anon
        return anon, False

    def __len__(self) -> int:
        return len(self._entries)
