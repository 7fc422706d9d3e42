"""Deterministic random-number substreams and cheap weighted draws.

Every stochastic component of the synthetic campus derives its generator
from the single study seed plus a tuple of string/int keys naming the
component (e.g. ``("device", mac, "2020-03-14")``). Substreams are
independent of the order in which they are requested, so adding a new
consumer never perturbs existing output -- a property the tests rely on.

The generator builds tens of thousands of substreams and makes millions
of scalar draws per study, so two helpers here draw the *same* numbers
as the obvious numpy call at a fraction of its per-call cost:

- :func:`substream` seeds ``SeedSequence`` from the key digest's 32-bit
  words instead of from the digest as one Python int. Both give the
  same stream, because ``SeedSequence`` splits an int into the same
  little-endian words and hashes a missing word as 0.
- :func:`weighted_cdf` validates ``p`` exactly as ``Generator.choice``
  does and returns the cdf ``choice`` builds internally, so
  ``cdf.searchsorted(rng.random(size), side="right")`` returns the
  indices ``rng.choice(len(p), size, p=p)`` returns and leaves ``rng``
  at the same position.

Likewise ``lo + (hi - lo) * rng.random()`` is what numpy computes for
``rng.uniform(lo, hi)``. Each equivalence rests on numpy's
implementation, so ``tests/property/test_synth_draw_props.py`` pins it
against the numpy call, values and bit-generator state alike.
"""

from __future__ import annotations

import hashlib
import math
from typing import Sequence, Union

import numpy as np

Key = Union[str, int, bytes]

#: ``Generator.choice``'s tolerance on ``sum(p) - 1`` for float64 ``p``.
_CHOICE_ATOL = math.sqrt(float(np.finfo(np.float64).eps))


def _digest(seed: int, keys: tuple) -> bytes:
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(str(int(seed)).encode("ascii"))
    for key in keys:
        if isinstance(key, bytes):
            payload = key
        elif isinstance(key, int):
            payload = b"i:" + str(key).encode("ascii")
        elif isinstance(key, str):
            payload = b"s:" + key.encode("utf-8")
        else:
            raise TypeError(f"unsupported RNG key type: {type(key)!r}")
        hasher.update(b"\x00")
        hasher.update(payload)
    return hasher.digest()


def substream(seed: int, *keys: Key) -> np.random.Generator:
    """Return a generator unique to ``(seed, *keys)``.

    The same arguments always yield the same stream; distinct key tuples
    yield statistically independent streams. The stream is the one
    ``np.random.default_rng(int.from_bytes(digest, "big"))`` gives.
    """
    # The big-endian digest's int, as little-endian 32-bit words.
    words = np.frombuffer(_digest(seed, keys)[::-1], dtype="<u4")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def weighted_cdf(p: Sequence[float]) -> np.ndarray:
    """The cdf ``Generator.choice`` draws from for probabilities ``p``.

    Raises the ``ValueError`` ``choice`` raises for the same ``p``: not
    1-d, a NaN entry, a negative entry, or a (Kahan) sum farther than
    ``sqrt(eps)`` from 1 -- checked in ``choice``'s order.
    """
    atol = _CHOICE_ATOL
    if isinstance(p, np.ndarray) and np.issubdtype(p.dtype, np.floating):
        atol = max(atol, math.sqrt(float(np.finfo(p.dtype).eps)))
    probs = np.ascontiguousarray(p, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    if probs.size == 0:
        raise ValueError("a must be a positive integer unless no samples "
                         "are taken")
    values = probs.tolist()
    total = values[0]
    carry = 0.0
    for value in values[1:]:
        term = value - carry
        step = total + term
        carry = (step - total) - term
        total = step
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (probs < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > atol:
        raise ValueError("Probabilities do not sum to 1. See Notes section "
                         "of docstring for more information.")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


class RngFactory:
    """A seed-carrying factory for named RNG substreams.

    Passing one ``RngFactory`` around is more convenient than threading
    the raw seed everywhere, and makes the derivation root explicit.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, *keys: Key) -> np.random.Generator:
        """Return the substream named by ``keys``."""
        return substream(self.seed, *keys)

    def child(self, *keys: Key) -> "RngFactory":
        """Return a factory rooted at a derived seed.

        Useful to hand a component its own namespace without it knowing
        the parent's key layout.
        """
        seed = int.from_bytes(_digest(self.seed, keys), "big") % (2**63)
        return RngFactory(seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self.seed})"
