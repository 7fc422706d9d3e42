"""The end-to-end monitoring pipeline.

Consumes :class:`~repro.synth.generator.DayTrace` objects (or, more
precisely, anything exposing ``dhcp_records``, ``dns_records`` as
:class:`~repro.dns.records.DnsColumns` and ``bursts`` as
:class:`~repro.net.wire.BurstColumns`) and produces the
annotated, anonymized :class:`~repro.pipeline.dataset.FlowDataset`.
Raw identifiers never leave this module: flows whose client IP cannot
be attributed through the DHCP logs are counted and dropped, and
attributed MACs are immediately tokenized.

Telemetry gaps are first-class: a day trace may carry ``log_gaps``
(spans during which the DHCP or DNS log collector was down -- see
:class:`repro.reliability.faults.LogGap`). The pipeline records them in
a per-source :class:`~repro.reliability.coverage.CoverageTracker`, and
flows whose timestamps fall inside a gap take a *degraded* annotation
path: DHCP attribution falls back to the last lease within a bounded
hold-over window (``StudyConfig.dhcp_staleness_seconds``), DNS
annotation discounts gap seconds from the staleness budget. Both paths
are counted explicitly -- no flow is ever silently dropped -- and
neither executes on a gap-free run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.columnar import (
    BatchRegistrar,
    BurstBatch,
    ColumnarDnsIndex,
    ColumnarFlowEngine,
    ColumnarLeaseIndex,
)
from repro.config import StudyConfig
from repro.net.ip import Prefix
from repro.pipeline.anonymize import Anonymizer, TokenCache
from repro.pipeline.dataset import FlowDataset, FlowDatasetBuilder
from repro.pipeline.tap import Tap
from repro.reliability.coverage import CoverageReport, CoverageTracker
from repro.reliability.quarantine import QuarantineSink
from repro.util.timeutil import DAY


@dataclass
class PipelineStats:
    """Operational counters of one ingest run."""

    days_ingested: int = 0
    bursts_seen: int = 0
    flows_closed: int = 0
    flows_unattributed: int = 0
    dhcp_records: int = 0
    dns_records: int = 0
    http_records: int = 0
    #: Flows annotated from a plaintext Host header rather than DNS.
    flows_host_annotated: int = 0
    #: Tokenization-cache efficiency (device MAC -> token memoization).
    anon_cache_hits: int = 0
    anon_cache_misses: int = 0
    #: Lenient-mode ingest accounting: malformed records routed to the
    #: quarantine sink, per log stream, plus skipped blank lines.
    quarantined_wire: int = 0
    quarantined_dhcp: int = 0
    quarantined_dns: int = 0
    blank_lines: int = 0
    #: Telemetry-gap accounting. Flows attributed through the bounded
    #: DHCP lease hold-over, flows whose DNS annotation discounted gap
    #: seconds, and flows left unattributed *because* their timestamp
    #: fell in a DHCP gap (a subset of ``flows_unattributed``).
    flows_degraded_dhcp: int = 0
    flows_degraded_dns: int = 0
    flows_unattributed_gap: int = 0

    @property
    def attribution_rate(self) -> float:
        total = self.flows_closed
        if total == 0:
            return 1.0
        return 1.0 - self.flows_unattributed / total

    @property
    def anon_cache_hit_rate(self) -> float:
        total = self.anon_cache_hits + self.anon_cache_misses
        if total == 0:
            return 1.0
        return self.anon_cache_hits / total

    @property
    def records_quarantined(self) -> int:
        """Malformed records quarantined across all log streams."""
        return (self.quarantined_wire + self.quarantined_dhcp
                + self.quarantined_dns)


class MonitoringPipeline:
    """Stateful day-by-day ingest into a flow dataset."""

    def __init__(self, config: StudyConfig,
                 excluded_prefixes: Sequence[Prefix] = (),
                 day0: Optional[float] = None):
        self.config = config
        self.tap = Tap(excluded_prefixes)
        self.anonymizer = Anonymizer(config.anonymization_salt)
        self.builder = FlowDatasetBuilder(
            config.start_ts if day0 is None else day0)
        self.stats = PipelineStats()
        # Tokenization is deterministic per MAC; memoize the hot path.
        self._anon_cache = TokenCache(self.anonymizer)
        # Telemetry-coverage ledger and the gap spans seen so far (the
        # degraded lookups consult them).
        self.coverage = CoverageTracker()
        self._gap_spans: Dict[str, List[Tuple[float, float]]] = {
            "dhcp": [], "dns": []}
        self.flow_engine = ColumnarFlowEngine(config.flow_idle_timeout)
        self.ip_mac = ColumnarLeaseIndex()
        self.ip_domain = ColumnarDnsIndex()
        self._registrar = BatchRegistrar(
            config, self.builder, self._anon_cache, self.ip_mac,
            self.ip_domain, self.stats, self._gap_spans)

    @property
    def anon_cache_size(self) -> int:
        """Distinct MACs held by the tokenization cache."""
        return len(self._anon_cache)

    def ingest_day(self, trace) -> None:
        """Process one day of wire events and log records."""
        gaps = getattr(trace, "log_gaps", ())
        for gap in gaps:
            if gap.source in self._gap_spans:
                self._gap_spans[gap.source].append((gap.start, gap.end))
        self.coverage.add_day(trace.day_start, gaps)
        for record in trace.dhcp_records:
            self.ip_mac.ingest(record)
        self.ip_domain.ingest_batch(trace.dns_records)

        batch = self.tap.filter_batch(BurstBatch.from_bursts(trace.bursts))
        self._registrar.register(self.flow_engine.process_batch(batch))
        # Close flows that have gone idle by end of day; still-active
        # flows remain open into the next day's processing.
        self._registrar.register(
            self.flow_engine.flush_batch(trace.day_start + DAY))
        self.stats.dhcp_records += len(trace.dhcp_records)
        self.stats.dns_records += len(trace.dns_records)
        self.stats.bursts_seen += len(trace.bursts)
        self.stats.http_records += self.flow_engine.drain_http_count()
        self.stats.days_ingested += 1

    def ingest(self, traces: Iterable) -> "MonitoringPipeline":
        """Ingest a full trace iterator; returns self for chaining."""
        for trace in traces:
            self.ingest_day(trace)
        return self

    def absorb_quarantine(self, sink: QuarantineSink) -> None:
        """Fold a lenient-mode read's quarantine accounting into stats.

        Called by replay paths (:func:`repro.io.tracedir.ingest_trace_dir`)
        after parsing, so the run surfaces exact per-stream
        malformed-record counts alongside the flow counters.
        """
        self.stats.quarantined_wire += sink.malformed("wire")
        self.stats.quarantined_dhcp += sink.malformed("dhcp")
        self.stats.quarantined_dns += sink.malformed("dns")
        self.stats.blank_lines += sink.blank()

    def finalize(self) -> FlowDataset:
        """Close remaining flows and freeze the dataset."""
        self._registrar.register(self.flow_engine.flush_batch(None))
        # Late flows can carry plaintext headers whose http.log records
        # were never drained by an end-of-day pass; count them here so
        # a finalize-only flush does not silently drop them.
        self.stats.http_records += self.flow_engine.drain_http_count()
        return self.builder.finalize()

    def coverage_report(self) -> CoverageReport:
        """Freeze this pipeline's telemetry coverage."""
        return self.coverage.report()
