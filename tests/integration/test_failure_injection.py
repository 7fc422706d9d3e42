"""Failure-injection tests: the pipeline under degraded inputs.

Real measurement infrastructures lose log streams; these tests verify
the pipeline degrades the way the paper's methodology implies (drop
what cannot be attributed, never mis-attribute) rather than crashing
or silently corrupting.
"""

import dataclasses

import numpy as np
import pytest

from repro import LockdownStudy, StudyConfig
from repro.dns.records import DnsColumns
from repro.net.wire import BurstColumns
from repro.pipeline.pipeline import MonitoringPipeline
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import format_day, utc_ts

_CONFIG = StudyConfig(n_students=6, seed=42)


@pytest.fixture(scope="module")
def traces():
    generator = CampusTraceGenerator(_CONFIG)
    days = list(generator.iter_days(utc_ts(2020, 2, 3),
                                    utc_ts(2020, 2, 6)))
    excluded = generator.plan.excluded_blocks(_CONFIG.excluded_operators)
    return days, excluded


def _strip(trace, *, dhcp=False, dns=False):
    return dataclasses.replace(
        trace,
        dhcp_records=[] if dhcp else trace.dhcp_records,
        dns_records=(DnsColumns.from_rows([]) if dns
                     else trace.dns_records),
    )


class TestMissingDhcp:
    def test_no_dhcp_means_no_attribution(self, traces):
        days, excluded = traces
        pipeline = MonitoringPipeline(_CONFIG, excluded)
        for day in days:
            pipeline.ingest_day(_strip(day, dhcp=True))
        dataset = pipeline.finalize()
        assert len(dataset) == 0
        assert pipeline.stats.flows_unattributed == \
            pipeline.stats.flows_closed > 0
        assert pipeline.stats.attribution_rate == 0.0

    def test_partial_dhcp_outage(self, traces):
        """Losing one day of DHCP logs only loses newly-granted leases;
        flows under leases granted earlier remain attributable."""
        days, excluded = traces
        healthy = MonitoringPipeline(_CONFIG, excluded)
        degraded = MonitoringPipeline(_CONFIG, excluded)
        for index, day in enumerate(days):
            healthy.ingest_day(day)
            degraded.ingest_day(_strip(day, dhcp=(index == 1)))
        healthy_n = len(healthy.finalize())
        degraded_n = len(degraded.finalize())
        assert 0 < degraded_n <= healthy_n
        assert degraded.stats.flows_unattributed >= 0


class TestMissingDns:
    def test_no_dns_leaves_only_host_annotations(self, traces):
        """Without DNS logs, the only annotated flows are the plaintext
        ones whose Host header the tap could read."""
        days, excluded = traces
        pipeline = MonitoringPipeline(_CONFIG, excluded)
        for day in days:
            pipeline.ingest_day(_strip(day, dns=True))
        dataset = pipeline.finalize()
        assert len(dataset) > 0
        annotated = int((dataset.domain >= 0).sum())
        assert annotated == pipeline.stats.flows_host_annotated
        # TLS dominates: the vast majority of flows stay unannotated.
        assert (dataset.domain < 0).mean() > 0.9

    def test_dns_outage_day(self, traces):
        """An outage day leaves that day's *new* destinations
        unannotated while cached/known IPs keep resolving."""
        days, excluded = traces
        pipeline = MonitoringPipeline(_CONFIG, excluded)
        for index, day in enumerate(days):
            pipeline.ingest_day(_strip(day, dns=(index == 2)))
        dataset = pipeline.finalize()
        annotated_fraction = float((dataset.domain >= 0).mean())
        assert 0.0 < annotated_fraction < 1.0


class TestReorderedInput:
    def test_shuffled_bursts_rejected(self, traces):
        """The flow engine insists on (near-)monotonic capture order."""
        days, excluded = traces
        day = days[0]
        shuffled = dataclasses.replace(
            day, bursts=BurstColumns.from_rows(
                list(reversed(list(day.bursts.rows())))))
        pipeline = MonitoringPipeline(_CONFIG, excluded)
        with pytest.raises(ValueError):
            pipeline.ingest_day(shuffled)


class TestEmptyDays:
    def test_empty_trace_is_noop(self, traces):
        days, excluded = traces
        empty = dataclasses.replace(
            days[0], dhcp_records=[], dns_records=DnsColumns.from_rows([]),
            bursts=BurstColumns.from_rows([]))
        pipeline = MonitoringPipeline(_CONFIG, excluded)
        pipeline.ingest_day(empty)
        dataset = pipeline.finalize()
        assert len(dataset) == 0
        assert pipeline.stats.days_ingested == 1


class _InjectedFault(RuntimeError):
    """A generation fault raised mid-ingest by the tests below."""


class TestShardWorkerFault:
    """A fault raised mid-ingest must surface unchanged and leave no
    day-pool worker behind."""

    _POOLED_CONFIG = dataclasses.replace(
        _CONFIG,
        start_ts=utc_ts(2020, 2, 1),
        end_ts=utc_ts(2020, 2, 9),
        visitor_min_days=2,
    )

    @staticmethod
    def _fail_from(monkeypatch, first_bad_day):
        """Make day generation raise from ``first_bad_day`` on."""
        original = CampusTraceGenerator.generate_day

        def generate_day(self, day_start, *args, **kwargs):
            if day_start >= first_bad_day:
                raise _InjectedFault(
                    f"injected fault on {format_day(day_start)}")
            return original(self, day_start, *args, **kwargs)

        monkeypatch.setattr(CampusTraceGenerator, "generate_day",
                            generate_day)

    def test_fault_leaves_no_zombie_workers(self, monkeypatch):
        import multiprocessing
        import time

        self._fail_from(monkeypatch, utc_ts(2020, 2, 5))
        with pytest.raises(_InjectedFault, match="2020-02-05"):
            LockdownStudy(self._POOLED_CONFIG).run()
        # The day pool is shut down before the failure propagates; give
        # the OS a beat to reap its processes.
        for _ in range(50):
            if not multiprocessing.active_children():
                break
            time.sleep(0.1)
        assert not multiprocessing.active_children()

    def test_inline_single_worker_fault_also_surfaces(self, monkeypatch):
        """With one usable CPU the day step stays in process; the
        fault surfaces the same way."""
        from repro.synth import generator

        monkeypatch.setattr(generator, "_usable_cpus", lambda: 1)
        self._fail_from(monkeypatch, utc_ts(2020, 2, 5))
        with pytest.raises(_InjectedFault, match="2020-02-05"):
            LockdownStudy(self._POOLED_CONFIG).run()
