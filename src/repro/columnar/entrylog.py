"""Append-only per-IP entry log with an incremental point-in-time index.

The storage and lookup shared by both columnar join indexes: DHCP
bindings (:mod:`repro.columnar.leases`) and DNS epochs
(:mod:`repro.columnar.dnsindex`). Entry ``i`` is one binding or epoch
of ``ip[i]`` that opened at ``start[i]``, carrying an interned
``label[i]`` (MAC or name id) and an ``until[i]`` time its owner may
still move after the append: the lease end on renewal or truncation,
the epoch's last sighting on refresh.

A lookup asks for the last entry of an IP whose start is at or before
a time -- a per-IP ``bisect_right - 1``, batched. The
index keeps the entries sorted by the key ``ip + 1j * start`` (numpy
orders complex numbers lexicographically, and IPv4 ints are exact in
float64) along with the permutation back to flat entry ids. Each
lookup first merges the entries appended since the previous one: it
sorts only those, stably by IP, and inserts them with
``searchsorted(side="right")``, an O(N) copy per ingested day instead
of an O(N log N) re-sort of the whole log.

Invariant: within one IP, starts never decrease in append order (both
ingest paths raise on out-of-order records). Stably sorting new entries
by IP therefore sorts them by key, equal keys keep append order, and
the merged order equals a stable sort of the whole log by IP. ``until``
and ``label`` are read live through the flat ids, never snapshotted at
merge time.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


def _grown(column: np.ndarray, size: int, cap: int) -> np.ndarray:
    grown = np.empty(cap, dtype=column.dtype)
    grown[:size] = column[:size]
    return grown


class EntryLog:
    """Flat ``(ip, start, until, label)`` entry log with batch lookup."""

    def __init__(self) -> None:
        # Growable columns (amortized doubling, `size` live entries).
        self.size = 0
        self.ip = np.empty(0, dtype=np.int64)
        self.start = np.empty(0, dtype=np.float64)
        self.until = np.empty(0, dtype=np.float64)
        self.label = np.empty(0, dtype=np.int64)
        #: ip -> flat id of its most recent entry.
        self.tail: Dict[int, int] = {}
        # The point-in-time index over the first len(_ids) entries.
        self._keys = np.empty(0, dtype=np.complex128)
        self._ids = np.empty(0, dtype=np.int64)

    def reserve(self, extra: int) -> int:
        """Grow the columns to fit ``extra`` more entries; returns the
        first free slot."""
        need = self.size + extra
        if need > len(self.ip):
            cap = max(64, 2 * len(self.ip), need)
            self.ip = _grown(self.ip, self.size, cap)
            self.start = _grown(self.start, self.size, cap)
            self.until = _grown(self.until, self.size, cap)
            self.label = _grown(self.label, self.size, cap)
        return self.size

    def append(self, ip: int, start: float, until: float,
               label: int) -> None:
        """Open one entry as ``ip``'s most recent."""
        slot = self.reserve(1)
        self.ip[slot] = ip
        self.start[slot] = start
        self.until[slot] = until
        self.label[slot] = label
        self.tail[ip] = slot
        self.size = slot + 1

    def extend(self, ips: np.ndarray, starts: np.ndarray,
               untils: np.ndarray, labels: np.ndarray) -> None:
        """Vector twin of :meth:`append` over entries in append order."""
        count = len(ips)
        base = self.reserve(count)
        end = base + count
        self.ip[base:end] = ips
        self.start[base:end] = starts
        self.until[base:end] = untils
        self.label[base:end] = labels
        self.size = end
        # Later duplicates win in zip order, exactly like sequential
        # tail assignment.
        self.tail.update(zip(ips.tolist(), range(base, end)))

    def _merge(self) -> None:
        merged = len(self._ids)
        if merged == self.size:
            return
        order = np.argsort(self.ip[merged:self.size], kind="stable")
        ids = order + merged
        keys = self.ip[ids] + 1j * self.start[ids]
        pos = np.searchsorted(self._keys, keys, side="right")
        self._keys = np.insert(self._keys, pos, keys)
        self._ids = np.insert(self._ids, pos, ids)

    def locate(self, ips: np.ndarray,
               tss: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Flat id of each IP's last entry starting at or before its ts.

        Returns ``(ids, valid)``; ``ids`` entries are meaningless where
        ``valid`` is False.
        """
        self._merge()
        if not self.size:
            return (np.zeros(len(ips), dtype=np.int64),
                    np.zeros(len(ips), dtype=bool))
        p = np.searchsorted(self._keys, ips + 1j * tss, side="right") - 1
        pc = np.maximum(p, 0)
        valid = (p >= 0) & (self._keys.real[pc] == ips)
        return self._ids[pc], valid
