"""Golden bit-identity gates for the columnar ingest core.

The contract: the batch-vectorized :class:`MonitoringPipeline` must be
*bit-identical* to the row-at-a-time oracle
(:class:`tests.oracles.pipeline.RowMonitoringPipeline`) --
same :meth:`FlowDataset.identical` dataset, same ``PipelineStats`` --
on clean runs, under telemetry-gap chaos (degraded DHCP holdover and
DNS gap-discount annotation) and across multi-day idle-timeout
crossings. Any divergence is a correctness bug in the columnar engine,
never an acceptable approximation.
"""

import pytest

from repro.config import StudyConfig
from repro.net.wire import SegmentBurst
from repro.pipeline.pipeline import MonitoringPipeline
from repro.reliability.faults import FaultPlan, LogGap
from repro.synth.generator import CampusTraceGenerator
from repro.util.timeutil import DAY, utc_ts
from tests.integration.log_gaps import seeded_log_gaps
from tests.oracles.flow_engine import FlowEngine, RowColumnarFlowEngine
from tests.oracles.pipeline import RowMonitoringPipeline

_CONFIG = StudyConfig(n_students=4, seed=11,
                      start_ts=utc_ts(2020, 2, 1),
                      end_ts=utc_ts(2020, 2, 7),
                      visitor_min_days=2)


def _gap_plan() -> FaultPlan:
    dhcp = tuple(seeded_log_gaps(99, _CONFIG.start_ts + DAY,
                                 _CONFIG.start_ts + 5 * DAY, 3,
                                 source="dhcp"))
    # The DNS stale-gap discount only fires once the outage exceeds the
    # 48 h freshness window, so the injected outage spans three days.
    dns = (LogGap("dns", _CONFIG.start_ts + 2 * DAY,
                  _CONFIG.start_ts + 5 * DAY + 3600.0),)
    return FaultPlan(log_gaps=dhcp + dns)


def _serial_run(config: StudyConfig, faults: FaultPlan = None,
                pipeline_cls=MonitoringPipeline):
    gen = CampusTraceGenerator(config)
    excluded = gen.plan.excluded_blocks(config.excluded_operators)
    pipe = pipeline_cls(config, excluded)
    for trace in gen.iter_days(config.start_ts, config.end_ts):
        pipe.ingest_day(faults.drop_log_span(trace) if faults else trace)
    dataset = pipe.finalize()
    return pipe, dataset


def _both(faults: FaultPlan = None):
    ref = _serial_run(_CONFIG, faults, RowMonitoringPipeline)
    col = _serial_run(_CONFIG, faults)
    return ref, col


class TestCleanIdentity:
    def test_dataset_and_stats_identical(self):
        (ref_pipe, ref_ds), (col_pipe, col_ds) = _both()
        assert col_ds.identical(ref_ds)
        assert col_pipe.stats == ref_pipe.stats


class TestGapChaosIdentity:
    @pytest.fixture(scope="class")
    def runs(self):
        return _both(_gap_plan())

    def test_dataset_identical_under_gaps(self, runs):
        (_, ref_ds), (_, col_ds) = runs
        assert col_ds.identical(ref_ds)

    def test_stats_identical_under_gaps(self, runs):
        (ref_pipe, _), (col_pipe, _) = runs
        assert col_pipe.stats == ref_pipe.stats

    def test_gap_degradation_actually_exercised(self, runs):
        """The chaos plan must drive every degraded path, or the
        identity assertions above prove nothing."""
        (_, _), (col_pipe, _) = runs
        stats = col_pipe.stats
        assert stats.flows_degraded_dhcp > 0
        assert stats.flows_degraded_dns > 0
        assert stats.flows_unattributed_gap > 0


def _burst(ts, cport=40000, final=False, **kw):
    return SegmentBurst(ts=ts, client_ip=0x0A000001, client_port=cport,
                        server_ip=0x08080808, server_port=443,
                        proto="tcp", orig_bytes=100, resp_bytes=200,
                        is_final=final, **kw)


class TestMultiDayIdleCrossing:
    """Flows straddling day boundaries: carried state, idle kills and
    end-of-day flushes must reproduce the scalar engine byte for byte.
    """

    DAY0 = utc_ts(2020, 2, 1)

    def _days(self):
        # One flow spans midnight (carried open, continued next day);
        # one goes idle across the boundary (killed by its key's next
        # burst); one tears down cleanly before midnight.
        day1 = [
            _burst(self.DAY0 + 86000.0, cport=1),
            _burst(self.DAY0 + 86100.0, cport=2),
            _burst(self.DAY0 + 85000.0, cport=3),
            _burst(self.DAY0 + 86300.0, cport=3, final=True),
        ]
        day2 = [
            _burst(self.DAY0 + DAY + 100.0, cport=1),      # continues
            _burst(self.DAY0 + DAY + 7200.0, cport=2),     # gap-kills
            _burst(self.DAY0 + DAY + 7300.0, cport=2, final=True),
        ]
        return [day1, day2]

    def test_cross_day_emission_identical(self):
        ref = FlowEngine(idle_timeout=600.0)
        col = RowColumnarFlowEngine(idle_timeout=600.0)
        for offset, day in enumerate(self._days()):
            day_end = self.DAY0 + (offset + 1) * DAY
            ordered = sorted(day, key=lambda b: b.ts)
            assert col.process(ordered) == ref.process(ordered)
            assert col.flush(day_end) == ref.flush(day_end)
            assert col.open_flow_count == ref.open_flow_count
        assert col.flush(None) == ref.flush(None)
