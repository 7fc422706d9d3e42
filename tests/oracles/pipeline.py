"""Row-at-a-time ingest oracle: the per-burst, per-flow pipeline.

:class:`RowMonitoringPipeline` runs the same day-by-day ingest as
:class:`repro.pipeline.pipeline.MonitoringPipeline`, but through the
row-object reference components: the per-burst tap filter
(:class:`RowTap`), the per-burst flow engine
(:class:`tests.oracles.flow_engine.FlowEngine`), the per-IP lease and
DNS resolvers (:mod:`tests.oracles.resolvers`) and a per-flow
registration loop into
:class:`tests.oracles.dataset.RowFlowDatasetBuilder`. The golden gates
in ``tests/pipeline/test_columnar.py`` hold the production pipeline
bit-identical to it: same dataset, same
:class:`~repro.pipeline.pipeline.PipelineStats`.
"""

import bisect
from typing import Iterable, List, Optional, Sequence

from repro.config import StudyConfig
from repro.net.ip import Prefix
from repro.net.wire import SegmentBurst
from repro.pipeline.dataset import FlowDataset
from repro.pipeline.pipeline import MonitoringPipeline
from repro.pipeline.tap import Tap
from repro.reliability.errors import CATEGORY_VALUE, RecordError
from repro.util.timeutil import DAY
from tests.oracles.dataset import RowFlowDatasetBuilder
from tests.oracles.flow_engine import ConnRecord, FlowEngine
from tests.oracles.resolvers import IpDomainResolver, IpMacResolver


class RowTap(Tap):
    """:class:`Tap` with a per-burst filter over row objects."""

    def is_excluded(self, address: int) -> bool:
        """True when an address falls in an excluded block."""
        index = bisect.bisect_right(self._firsts, address) - 1
        return index >= 0 and address <= self._lasts[index]

    def filter(self, bursts: Iterable[SegmentBurst]) -> List[SegmentBurst]:
        """Return the bursts the mirror forwards, tallying the drops."""
        kept: List[SegmentBurst] = []
        for burst in bursts:
            if self.is_excluded(burst.server_ip):
                self.dropped_bursts += 1
                self.dropped_bytes += burst.orig_bytes + burst.resp_bytes
            else:
                kept.append(burst)
        return kept


class RowMonitoringPipeline(MonitoringPipeline):
    """:class:`MonitoringPipeline` on the row-at-a-time components."""

    def __init__(self, config: StudyConfig,
                 excluded_prefixes: Sequence[Prefix] = (),
                 day0: Optional[float] = None):
        super().__init__(config, excluded_prefixes, day0)
        self.tap = RowTap(excluded_prefixes)
        self.builder = RowFlowDatasetBuilder(self.builder.day0)
        self.flow_engine = FlowEngine(config.flow_idle_timeout)
        self.ip_mac = IpMacResolver()
        self.ip_domain = IpDomainResolver()
        self._registrar = None

    def ingest_day(self, trace) -> None:
        """Process one day of wire events and log records."""
        gaps = getattr(trace, "log_gaps", ())
        for gap in gaps:
            if gap.source in self._gap_spans:
                self._gap_spans[gap.source].append((gap.start, gap.end))
        self.coverage.add_day(trace.day_start, gaps)
        for record in trace.dhcp_records:
            self.ip_mac.ingest(record)
        for record in trace.dns_records.rows():
            self.ip_domain.ingest(record)

        kept = self.tap.filter(trace.bursts.rows())
        for conn in self.flow_engine.process(kept):
            self._register(conn)
        for conn in self.flow_engine.flush(trace.day_start + DAY):
            self._register(conn)
        self.stats.dhcp_records += len(trace.dhcp_records)
        self.stats.dns_records += len(trace.dns_records)
        self.stats.bursts_seen += len(trace.bursts)
        self.stats.http_records += len(self.flow_engine.drain_http())
        self.stats.days_ingested += 1

    def finalize(self) -> FlowDataset:
        """Close remaining flows and freeze the dataset."""
        for conn in self.flow_engine.flush(None):
            self._register(conn)
        self.stats.http_records += len(self.flow_engine.drain_http())
        return self.builder.finalize()

    def _in_gap(self, source: str, ts: float) -> bool:
        return any(start <= ts < end
                   for start, end in self._gap_spans[source])

    def _register(self, conn: ConnRecord) -> None:
        self.stats.flows_closed += 1
        mac = self.ip_mac.mac_at(conn.orig_h, conn.ts)
        if mac is None and self._gap_spans["dhcp"] \
                and self._in_gap("dhcp", conn.ts):
            # The flow fell in a DHCP outage: the ACK that would have
            # renewed its lease may simply never have been logged. Hold
            # the last lease over for a bounded staleness window (the
            # paper-style conservative fallback) before giving up.
            staleness = self.config.dhcp_staleness_seconds
            if staleness > 0:
                mac = self.ip_mac.mac_at_stale(
                    conn.orig_h, conn.ts, staleness)
                if mac is not None:
                    self.stats.flows_degraded_dhcp += 1
            if mac is None:
                self.stats.flows_unattributed_gap += 1
        if mac is None:
            # No contemporaneous lease: traffic we cannot attribute to a
            # device (exactly what the real pipeline must drop).
            self.stats.flows_unattributed += 1
            return
        anon, hit = self._anon_cache.lookup(mac)
        if hit:
            self.stats.anon_cache_hits += 1
        else:
            self.stats.anon_cache_misses += 1
        if conn.proto not in ("tcp", "udp"):
            raise RecordError(
                f"flow has unknown protocol {conn.proto!r}",
                source="conn", category=CATEGORY_VALUE)
        device_idx = self.builder.device_index(anon)
        # DNS-log annotation first; a plaintext Host header is direct
        # evidence and fills in flows whose server never appeared in
        # the DNS logs.
        domain = self.ip_domain.domain_at(conn.resp_h, conn.ts)
        if domain is None and self._gap_spans["dns"]:
            # Staleness may only have accrued because the DNS log was
            # down; discount gap seconds from the budget instead of
            # silently widening lookback for everyone.
            domain = self.ip_domain.domain_at_degraded(
                conn.resp_h, conn.ts, self._gap_spans["dns"])
            if domain is not None:
                self.stats.flows_degraded_dns += 1
        if domain is None and conn.http_host is not None:
            domain = conn.http_host
            self.stats.flows_host_annotated += 1
        self.builder.add_flow(
            ts=conn.ts,
            duration=conn.duration,
            device_idx=device_idx,
            resp_h=conn.resp_h,
            resp_p=conn.resp_p,
            proto=conn.proto,
            orig_bytes=conn.orig_bytes,
            resp_bytes=conn.resp_bytes,
            domain_idx=self.builder.domain_index(domain),
            user_agent=conn.user_agent,
        )
