"""Batch flow registration: attribution, anonymization, annotation.

One :meth:`BatchRegistrar.register` call runs a whole
:class:`~repro.columnar.batch.FlowBatch` through the decision tree a
scalar loop would walk per flow (the per-flow loop survives as the
test-side oracle ``tests/oracles/pipeline.py``) -- DHCP
attribution (with the gap-holdover degraded path), tokenization,
protocol validation, DNS / Host-header annotation (with the
gap-discount degraded path) -- updating the same
:class:`~repro.pipeline.pipeline.PipelineStats` counters by the same
amounts and materializing rows into the shared
:class:`~repro.pipeline.dataset.FlowDatasetBuilder` batch-at-a-time.

Index-assignment parity is the subtle part: device profiles and domain
table entries must be *created* in the scalar loop's first-occurrence
order. That registration order is the one order a dataset has from
the builder to a saved file, so a dataset built another way compares
identical only if it registers in the same order. Both registries are
therefore factorized per batch
(``np.unique`` + first-occurrence argsort) and only the distinct new
keys touch the Python-side registries, in order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.columnar.batch import FlowBatch
from repro.columnar.dnsindex import ColumnarDnsIndex
from repro.columnar.leases import ColumnarLeaseIndex
from repro.config import StudyConfig
from repro.pipeline.anonymize import TokenCache
from repro.pipeline.dataset import NO_DOMAIN, FlowDatasetBuilder
from repro.reliability.errors import CATEGORY_VALUE, RecordError

if TYPE_CHECKING:  # imported lazily to avoid a cycle with pipeline.py
    from repro.pipeline.pipeline import PipelineStats


class BatchRegistrar:
    """Registers closed-flow batches into the dataset builder."""

    def __init__(self, config: StudyConfig, builder: FlowDatasetBuilder,
                 anon_cache: TokenCache, leases: ColumnarLeaseIndex,
                 dns: ColumnarDnsIndex, stats: "PipelineStats",
                 gap_spans: Dict[str, List[Tuple[float, float]]]
                 ) -> None:
        self.config = config
        self.builder = builder
        self.anon_cache = anon_cache
        self.leases = leases
        self.dns = dns
        self.stats = stats
        self._gap_spans = gap_spans
        #: mac-table id -> builder device index (lazily grown; the
        #: vectorized twin of the TokenCache + device_index dict hops).
        self._device_of_mac = np.zeros(0, dtype=np.int32)
        #: DNS name id / engine host id -> builder domain index. Both
        #: id spaces are stable across batches, so after warm-up the
        #: domain lookup is one gather instead of a factorization.
        self._domain_of_nid = np.zeros(0, dtype=np.int32)
        self._domain_of_host = np.zeros(0, dtype=np.int32)

    # -- helpers -----------------------------------------------------------

    def _in_gap(self, source: str, ts: np.ndarray) -> np.ndarray:
        out = np.zeros(len(ts), dtype=bool)
        for start, end in self._gap_spans[source]:
            out |= (ts >= start) & (ts < end)
        return out

    def _device_indices(self, mac_ids: np.ndarray) -> np.ndarray:
        """Builder device index per flow; new MACs tokenized in order."""
        table = self.leases.mac_table
        if len(self._device_of_mac) < len(table):
            grown = np.full(len(table), -1, dtype=np.int32)
            grown[:len(self._device_of_mac)] = self._device_of_mac
            self._device_of_mac = grown
        dev = self._device_of_mac[mac_ids]
        new = np.flatnonzero(dev < 0)
        misses = 0
        if new.size:
            uniq, first = np.unique(mac_ids[new], return_index=True)
            # First-occurrence order = the order the scalar loop would
            # have created these profiles (and warmed the token cache).
            for k in np.argsort(first, kind="stable"):
                mid = int(uniq[k])
                anon, _hit = self.anon_cache.lookup(table[mid])
                self._device_of_mac[mid] = self.builder.device_index(anon)
            misses = int(uniq.size)
            dev[new] = self._device_of_mac[mac_ids[new]]
        self.stats.anon_cache_misses += misses
        self.stats.anon_cache_hits += len(mac_ids) - misses
        return dev

    def _domain_indices(self, flows: FlowBatch,
                        dns_ids: np.ndarray) -> np.ndarray:
        """Builder domain index per flow, creating names in scalar order.

        DNS-annotated flows carry a name-table id; Host-header fills
        carry a batch-local string. Both funnel through one combined
        factorization so interleaved first occurrences create builder
        entries in exactly the per-flow order -- the builder's own dict
        collapses a Host string that equals a DNS name onto one index,
        just as the scalar loop's ``domain_index(name)`` would.
        """
        n_dns = len(self.dns.name_table)
        n_host = len(flows.host_table)
        combined = np.where(dns_ids >= 0, dns_ids.astype(np.int64),
                            np.int64(-1))
        fills = np.flatnonzero((dns_ids < 0) & (flows.host >= 0))
        if fills.size:
            # Host ids are engine-global, so offsetting by the DNS name
            # count keys them into the same factorization space.
            combined[fills] = n_dns + flows.host[fills]
        self.stats.flows_host_annotated += int(fills.size)

        domain_idx = np.full(flows.n, NO_DOMAIN, dtype=np.int32)
        annotated = np.flatnonzero(combined >= 0)
        if not annotated.size:
            return domain_idx
        if len(self._domain_of_nid) < n_dns:
            grown = np.full(n_dns, -1, dtype=np.int32)
            grown[:len(self._domain_of_nid)] = self._domain_of_nid
            self._domain_of_nid = grown
        if len(self._domain_of_host) < n_host:
            grown = np.full(n_host, -1, dtype=np.int32)
            grown[:len(self._domain_of_host)] = self._domain_of_host
            self._domain_of_host = grown
        lut = np.concatenate([self._domain_of_nid[:n_dns],
                              self._domain_of_host[:n_host]])
        resolved = lut[combined[annotated]]
        new = np.flatnonzero(resolved < 0)
        if new.size:
            uniq, first = np.unique(combined[annotated[new]],
                                    return_index=True)
            for k in np.argsort(first, kind="stable"):
                cid = int(uniq[k])
                name = (self.dns.name_table[cid] if cid < n_dns
                        else flows.host_table[cid - n_dns])
                idx = np.int32(self.builder.domain_index(name))
                if cid < n_dns:
                    self._domain_of_nid[cid] = idx
                else:
                    self._domain_of_host[cid - n_dns] = idx
                lut[cid] = idx
            resolved[new] = lut[combined[annotated[new]]]
        domain_idx[annotated] = resolved
        return domain_idx

    # -- registration ------------------------------------------------------

    def register(self, flows: FlowBatch) -> None:
        """Attribute, anonymize, annotate and materialize one batch."""
        if flows.n == 0:
            return
        stats = self.stats
        stats.flows_closed += flows.n

        mac_ids = self.leases.mac_ids_at(flows.orig_h, flows.ts)
        if self._gap_spans["dhcp"]:
            candidates = np.flatnonzero(
                (mac_ids < 0) & self._in_gap("dhcp", flows.ts))
            if candidates.size:
                staleness = self.config.dhcp_staleness_seconds
                rescued = 0
                if staleness > 0:
                    stale_ids = self.leases.mac_ids_at_stale(
                        flows.orig_h[candidates], flows.ts[candidates],
                        staleness)
                    got = stale_ids >= 0
                    mac_ids[candidates[got]] = stale_ids[got]
                    rescued = int(np.count_nonzero(got))
                    stats.flows_degraded_dhcp += rescued
                stats.flows_unattributed_gap += candidates.size - rescued

        attributed = mac_ids >= 0
        stats.flows_unattributed += flows.n - int(np.count_nonzero(attributed))
        if not attributed.all():
            flows = flows.compress(attributed)
            mac_ids = mac_ids[attributed]
        if flows.n == 0:
            return

        bad = flows.proto >= 2  # engine codes: 0 = tcp, 1 = udp
        if bad.any():
            name = flows.proto_table[int(flows.proto[int(bad.argmax())])]
            raise RecordError(
                f"flow has unknown protocol {name!r}",
                source="conn", category=CATEGORY_VALUE)

        device_idx = self._device_indices(mac_ids)

        dns_ids = self.dns.domain_ids_at(flows.resp_h, flows.ts)
        if self._gap_spans["dns"]:
            missed = np.flatnonzero(dns_ids < 0)
            if missed.size:
                degraded = self.dns.domain_ids_at_degraded(
                    flows.resp_h[missed], flows.ts[missed],
                    self._gap_spans["dns"])
                got = degraded >= 0
                dns_ids[missed[got]] = degraded[got]
                stats.flows_degraded_dns += int(np.count_nonzero(got))
        domain_idx = self._domain_indices(flows, dns_ids)

        self.builder.add_flow_batch(
            ts=flows.ts,
            duration=flows.duration,
            device=device_idx,
            resp_h=flows.resp_h,
            resp_p=flows.resp_p,
            proto=flows.proto.astype(np.int8),
            orig_bytes=flows.orig_bytes,
            resp_bytes=flows.resp_bytes,
            domain=domain_idx,
            user_agent=flows.ua,
            ua_table=flows.ua_table,
        )
