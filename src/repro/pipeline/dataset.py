"""Columnar storage of annotated, anonymized flows.

Analyses over four months of flows need array math, not row objects:
the builder accumulates compact typed arrays and finalizes into numpy,
with side tables for domains and per-device profiles. All analysis
modules consume this one structure.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.pipeline.anonymize import AnonymizedDevice
from repro.util.timeutil import DAY

PROTO_TCP = 0
PROTO_UDP = 1
_PROTO_CODES = {"tcp": PROTO_TCP, "udp": PROTO_UDP}
_PROTO_NAMES = {code: name for name, code in _PROTO_CODES.items()}

#: Domain index used for flows with no DNS annotation.
NO_DOMAIN = -1

#: The columnar arrays of a finalized dataset and their dtypes, in
#: schema order.
COLUMN_DTYPES = {
    "ts": np.float64, "duration": np.float64, "device": np.int32,
    "resp_h": np.int64, "resp_p": np.int32, "proto": np.int8,
    "orig_bytes": np.int64, "resp_bytes": np.int64, "domain": np.int32,
    "day": np.int32,
}
ARRAY_FIELDS = tuple(COLUMN_DTYPES)


@dataclass
class DeviceProfile:
    """Everything the pipeline retains about one device."""

    index: int
    token: str
    oui: Optional[int]
    is_locally_administered: bool
    user_agents: Set[str] = field(default_factory=set)
    days_seen: Set[int] = field(default_factory=set)
    flow_count: int = 0
    total_bytes: int = 0
    first_ts: float = float("inf")
    last_ts: float = float("-inf")

    @property
    def active_day_count(self) -> int:
        return len(self.days_seen)


class FlowDataset:
    """Finalized columnar flow data plus device/domain side tables."""

    def __init__(self, *, ts: np.ndarray, duration: np.ndarray,
                 device: np.ndarray, resp_h: np.ndarray, resp_p: np.ndarray,
                 proto: np.ndarray, orig_bytes: np.ndarray,
                 resp_bytes: np.ndarray, domain: np.ndarray,
                 day: np.ndarray, domains: List[str],
                 devices: List[DeviceProfile], day0: float):
        self.ts = ts
        self.duration = duration
        self.device = device
        self.resp_h = resp_h
        self.resp_p = resp_p
        self.proto = proto
        self.orig_bytes = orig_bytes
        self.resp_bytes = resp_bytes
        self.domain = domain
        self.day = day
        self.domains = domains
        self.devices = devices
        self.day0 = day0

    # -- basic shape -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def total_bytes(self) -> np.ndarray:
        """Per-flow byte totals (both directions)."""
        return self.orig_bytes + self.resp_bytes

    def proto_name(self, code: int) -> str:
        return _PROTO_NAMES[code]

    # -- lookups ----------------------------------------------------------

    def domain_index(self, name: str) -> Optional[int]:
        """Index of a domain string in the table, or None."""
        try:
            return self.domains.index(name)
        except ValueError:
            return None

    def domain_indices(self, names: Sequence[str]) -> np.ndarray:
        """Indices of the given domain names that exist in the table."""
        wanted = set(names)
        return np.array(
            [i for i, name in enumerate(self.domains) if name in wanted],
            dtype=np.int32)

    def flows_to_domains(self, names: Sequence[str]) -> np.ndarray:
        """Boolean flow mask: annotated with any of the given domains."""
        indices = self.domain_indices(names)
        if len(indices) == 0:
            return np.zeros(len(self), dtype=bool)
        return np.isin(self.domain, indices)

    def flows_of_devices(self, device_mask: np.ndarray) -> np.ndarray:
        """Boolean flow mask selecting flows of the masked devices."""
        if device_mask.shape != (self.n_devices,):
            raise ValueError("device_mask must have one entry per device")
        return device_mask[self.device]

    def select(self, flow_mask: np.ndarray) -> "FlowDataset":
        """A new dataset restricted to the masked flows; consumes this one.

        Each column is filtered and then deleted from this dataset
        before the next one is filtered, so the table is never held
        twice. Afterwards this dataset keeps only its side tables and
        ``day0``; reading a column of it raises ``AttributeError``.

        Device and domain side tables are shared (indices stay valid);
        call :meth:`compact` afterwards to prune devices that lost all
        their flows.
        """
        columns: Dict[str, np.ndarray] = {}
        for name in ARRAY_FIELDS:
            columns[name] = getattr(self, name)[flow_mask]
            delattr(self, name)
        return FlowDataset(**columns, domains=self.domains,
                           devices=self.devices, day0=self.day0)

    def compact(self) -> "FlowDataset":
        """Drop device profiles with no remaining flows, re-indexing.

        After the visitor filter, dropped devices must not linger in the
        device table: per-device analyses (classification counts,
        sub-population fractions) iterate that table.
        """
        used = np.unique(self.device)
        remap = np.full(len(self.devices), -1, dtype=np.int32)
        remap[used] = np.arange(used.size, dtype=np.int32)
        new_devices = [
            dataclasses.replace(self.devices[int(old)],
                                index=int(remap[old]))
            for old in used
        ]
        return FlowDataset(
            ts=self.ts,
            duration=self.duration,
            device=remap[self.device],
            resp_h=self.resp_h,
            resp_p=self.resp_p,
            proto=self.proto,
            orig_bytes=self.orig_bytes,
            resp_bytes=self.resp_bytes,
            domain=self.domain,
            day=self.day,
            domains=self.domains,
            devices=new_devices,
            day0=self.day0,
        )

    # -- comparison -------------------------------------------------------

    def identical(self, other: "FlowDataset") -> bool:
        """Byte-level equality of every array and side table.

        Order-sensitive. Every dataset keeps its flows in the order the
        ingest registered them, and one seeded ingest always registers
        them in the same order, so two datasets of one run compare
        equal as they are.
        """
        if self is other:
            return True
        if self.day0 != other.day0 or self.domains != other.domains:
            return False
        if self.devices != other.devices:
            return False
        for name in ARRAY_FIELDS:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine.dtype != theirs.dtype or not np.array_equal(mine, theirs):
                return False
        return True


class FlowDatasetBuilder:
    """Accumulates flows into compact typed arrays.

    Each column lives in one array of its final dtype that grows
    geometrically, and :meth:`add_flow_batch` copies a batch onto its
    tail. :meth:`finalize` trims the columns one at a time, releasing
    each growth buffer before it trims the next, so the flows are never
    held twice. Per-day chunks concatenated at the end would be: the
    allocator keeps the chunks' freed memory beside the new full table.
    """

    def __init__(self, day0: float):
        self.day0 = day0
        #: Growth buffers of every column, in final dtypes; the first
        #: ``_rows`` entries of each are the flows in arrival order.
        self._columns: Dict[str, np.ndarray] = {
            name: np.empty(0, dtype=dtype)
            for name, dtype in COLUMN_DTYPES.items()}
        self._rows = 0

        self._domains: List[str] = []
        self._domain_index: Dict[str, int] = {}
        self._devices: List[DeviceProfile] = []
        self._device_index: Dict[str, int] = {}

    # -- registries -------------------------------------------------------

    def device_index(self, anon: AnonymizedDevice) -> int:
        """Index for an anonymized device, creating its profile."""
        index = self._device_index.get(anon.token)
        if index is None:
            index = len(self._devices)
            self._device_index[anon.token] = index
            self._devices.append(DeviceProfile(
                index=index,
                token=anon.token,
                oui=anon.oui,
                is_locally_administered=anon.is_locally_administered,
            ))
        return index

    def domain_index(self, name: Optional[str]) -> int:
        if name is None:
            return NO_DOMAIN
        index = self._domain_index.get(name)
        if index is None:
            index = len(self._domains)
            self._domain_index[name] = index
            self._domains.append(name)
        return index

    # -- ingestion ----------------------------------------------------------

    def add_flow_batch(self, *, ts: np.ndarray, duration: np.ndarray,
                       device: np.ndarray, resp_h: np.ndarray,
                       resp_p: np.ndarray, proto: np.ndarray,
                       orig_bytes: np.ndarray, resp_bytes: np.ndarray,
                       domain: np.ndarray, user_agent: np.ndarray,
                       ua_table: Sequence[str]) -> None:
        """Append a column set of annotated flows.

        ``proto`` carries dataset protocol codes, ``device``/``domain``
        builder indices (devices must already exist via
        :meth:`device_index`), ``user_agent`` int ids into ``ua_table``
        with ``-1`` for None. Per-device profile aggregates are folded
        in with the same results as folding the rows one at a time.
        """
        n = len(ts)
        if n == 0:
            return
        ts = np.asarray(ts, dtype=np.float64)
        duration = np.asarray(duration, dtype=np.float64)
        device = np.asarray(device, dtype=np.int32)
        orig_bytes = np.asarray(orig_bytes, dtype=np.int64)
        resp_bytes = np.asarray(resp_bytes, dtype=np.int64)
        day = ((ts - self.day0) // DAY).astype(np.int64)
        self._append_rows({
            "ts": ts,
            "duration": duration,
            "device": device,
            "resp_h": np.asarray(resp_h, dtype=np.int64),
            "resp_p": np.asarray(resp_p, dtype=np.int32),
            "proto": np.asarray(proto, dtype=np.int8),
            "orig_bytes": orig_bytes,
            "resp_bytes": resp_bytes,
            "domain": np.asarray(domain, dtype=np.int32),
            "day": day.astype(np.int32),
        })

        # Per-device aggregates via sort + reduceat: one pass touches
        # each distinct device once instead of once per flow.
        dev = device.astype(np.int64)
        order = np.argsort(dev, kind="stable")
        dev_sorted = dev[order]
        starts = np.flatnonzero(
            np.concatenate(([True], dev_sorted[1:] != dev_sorted[:-1])))
        uniq_devices = dev_sorted[starts]
        counts = np.diff(np.append(starts, n))
        byte_sums = np.add.reduceat(
            (orig_bytes + resp_bytes)[order], starts)
        first_min = np.minimum.reduceat(ts[order], starts)
        end_ts = ts + duration
        last_max = np.maximum.reduceat(end_ts[order], starts)
        for k in range(uniq_devices.size):
            profile = self._devices[int(uniq_devices[k])]
            profile.flow_count += int(counts[k])
            profile.total_bytes += int(byte_sums[k])
            profile.first_ts = min(profile.first_ts, float(first_min[k]))
            profile.last_ts = max(profile.last_ts, float(last_max[k]))

        end_day = ((end_ts - self.day0) // DAY).astype(np.int64)
        spans = end_day != day
        pair_dev = np.concatenate((dev, dev[spans]))
        pair_day = np.concatenate((day, end_day[spans]))
        for key in np.unique((pair_dev << np.int64(32))
                             | (pair_day & np.int64(0xFFFFFFFF))):
            self._devices[int(key >> np.int64(32))].days_seen.add(
                int(np.int32(key & np.int64(0xFFFFFFFF))))

        ua = np.asarray(user_agent, dtype=np.int64)
        present = np.flatnonzero(ua >= 0)
        if present.size:
            width = np.int64(max(len(ua_table), 1))
            for key in np.unique(dev[present] * width + ua[present]):
                self._devices[int(key // width)].user_agents.add(
                    ua_table[int(key % width)])

    def _append_rows(self, columns: Dict[str, np.ndarray]) -> None:
        """Copy one equal-length set of typed columns onto the tails."""
        start = self._rows
        stop = start + len(columns["ts"])
        capacity = len(self._columns["ts"])
        if stop > capacity:
            capacity = max(stop, 2 * capacity)
            for name in ARRAY_FIELDS:
                grown = np.empty(capacity, dtype=COLUMN_DTYPES[name])
                grown[:start] = self._columns[name][:start]
                self._columns[name] = grown
        for name in ARRAY_FIELDS:
            self._columns[name][start:stop] = columns[name]
        self._rows = stop

    def __len__(self) -> int:
        return self._rows

    def finalize(self) -> FlowDataset:
        """Freeze into numpy arrays (typed and empty when no flow came).

        The builder hands its flows over: each column is trimmed to
        length and its growth buffer dropped before the next column is
        trimmed, and the builder holds no flow afterwards.
        """
        columns: Dict[str, np.ndarray] = {}
        for name in ARRAY_FIELDS:
            columns[name] = self._columns[name][:self._rows].copy()
            self._columns[name] = np.empty(0, dtype=COLUMN_DTYPES[name])
        self._rows = 0
        return FlowDataset(**columns, domains=list(self._domains),
                           devices=list(self._devices), day0=self.day0)
