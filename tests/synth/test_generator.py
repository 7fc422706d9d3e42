"""Tests for the day-by-day trace generator."""

import hashlib
import json

import numpy as np
import pytest

from repro import constants
from repro.config import StudyConfig
from repro.synth.generator import (
    PRESENCE_ALL_RESIDENTS,
    PRESENCE_STUDY,
    CampusTraceGenerator,
)
from repro.synth.timeline import Phase
from repro.util.timeutil import DAY, utc_ts

_CONFIG = StudyConfig(n_students=8, seed=5)


@pytest.fixture(scope="module")
def generator():
    return CampusTraceGenerator(_CONFIG)


class TestGenerateDay:
    def test_events_sorted(self, generator):
        trace = generator.generate_day(utc_ts(2020, 2, 5))
        burst_times = trace.bursts.ts.tolist()
        assert burst_times == sorted(burst_times)
        dns_times = trace.dns_records.ts.tolist()
        assert dns_times == sorted(dns_times)

    def test_dhcp_log_in_time_order(self, generator):
        trace = generator.generate_day(utc_ts(2020, 2, 6))
        times = [r.ts for r in trace.dhcp_records]
        assert times == sorted(times)

    def test_client_ips_come_from_pools(self, generator):
        trace = generator.generate_day(utc_ts(2020, 2, 7))
        pools = generator.plan.client_pools
        for client_ip in trace.bursts.client_ip[:500].tolist():
            assert any(pool.contains(client_ip) for pool in pools)

    def test_counts_populated(self, generator):
        trace = generator.generate_day(utc_ts(2020, 2, 8))
        assert trace.session_count > 0
        assert trace.connection_count >= trace.session_count

    def test_unknown_presence_mode_rejected(self, generator):
        with pytest.raises(ValueError):
            generator.generate_day(utc_ts(2020, 2, 5), presence="nonsense")


class TestPresenceModes:
    def test_study_mode_shrinks_after_exodus(self):
        generator = CampusTraceGenerator(StudyConfig(n_students=12, seed=9))
        before = generator.generate_day(utc_ts(2020, 2, 5))
        after = generator.generate_day(utc_ts(2020, 4, 15))
        assert after.session_count < before.session_count

    def test_all_residents_mode_ignores_departures(self):
        generator = CampusTraceGenerator(StudyConfig(n_students=12, seed=9))
        april = generator.generate_day(utc_ts(2020, 4, 15),
                                       presence=PRESENCE_ALL_RESIDENTS)
        study = generator.generate_day(utc_ts(2020, 4, 15),
                                       presence=PRESENCE_STUDY)
        assert april.session_count > study.session_count

    def test_all_residents_mode_excludes_visitors(self):
        config = StudyConfig(n_students=12, seed=9, visitor_fraction=0.5)
        generator = CampusTraceGenerator(config)
        population = generator.population
        visitor_macs = {
            device.mac for device in population.devices
            if population.personas[device.owner_id].is_visitor
        }
        trace = generator.generate_day(utc_ts(2019, 4, 10),
                                       presence=PRESENCE_ALL_RESIDENTS)
        leased_macs = {record.mac for record in trace.dhcp_records}
        assert not leased_macs & visitor_macs

    def test_prior_year_generation_works(self, generator):
        """PRE-phase behaviour applies outside the study window."""
        trace = generator.generate_day(utc_ts(2019, 4, 10),
                                       presence=PRESENCE_ALL_RESIDENTS)
        assert trace.session_count > 0
        # Zoom is essentially absent pre-pandemic.
        zoom_queries = [name for name in trace.dns_records.qname
                        if name.endswith("zoom.us")]
        assert len(zoom_queries) < max(1, len(trace.dns_records) // 50)


class TestDeterminism:
    def test_same_day_same_output(self):
        def run():
            generator = CampusTraceGenerator(_CONFIG)
            trace = generator.generate_day(utc_ts(2020, 2, 5))
            return (trace.session_count, trace.connection_count,
                    len(trace.bursts),
                    sum(b.orig_bytes + b.resp_bytes
                        for b in trace.bursts.rows()))
        assert run() == run()


class TestPinnedOutput:
    """The generator's exact output for one day, as a sha256.

    Any change to what is drawn, in which order, or how bursts are laid
    out and sorted changes the digest. Recompute it only for a change
    that is meant to alter the simulated campus.
    """

    #: 2020-02-05: 5916 bursts, 872 DNS records and 49 DHCP records.
    DIGEST = "4031821fa7035fbe745c7a568bd758663086584d719ea825c4868e048df2c81a"

    _NUMERIC = (("ts", "<f8"), ("client_ip", "<i8"), ("client_port", "<i8"),
                ("server_ip", "<i8"), ("server_port", "<i8"),
                ("orig_bytes", "<i8"), ("resp_bytes", "<i8"),
                ("is_final", "?"))
    _STRINGS = ("proto", "user_agent", "http_host")

    @classmethod
    def _digest(cls, trace):
        bursts = trace.bursts
        digest = hashlib.sha256()
        for name, dtype in cls._NUMERIC:
            column = getattr(bursts, name)
            assert column.dtype == np.dtype(dtype)
            digest.update(column.tobytes())
        for name in cls._STRINGS:
            digest.update(json.dumps(getattr(bursts, name).tolist()).encode())
        for record in trace.dns_records.rows():
            digest.update(repr(record).encode())
        for record in trace.dhcp_records:
            digest.update(repr(record).encode())
        return digest.hexdigest()

    def test_day_digest_pinned(self):
        trace = CampusTraceGenerator(_CONFIG).generate_day(utc_ts(2020, 2, 5))
        assert (len(trace.bursts), len(trace.dns_records),
                len(trace.dhcp_records)) == (5916, 872, 49)
        assert self._digest(trace) == self.DIGEST

    def test_lockdown_day_digest_pinned(self):
        """A study day after stay-at-home: departures have thinned the
        campus and four sessions draw with ``TAIL_LOCKDOWN_BOOST``."""
        trace = CampusTraceGenerator(_CONFIG).generate_day(
            utc_ts(2020, 4, 15))
        assert (len(trace.bursts), len(trace.dns_records),
                len(trace.dhcp_records)) == (1290, 166, 12)
        assert self._digest(trace) == (
            "ee7c9ccfeb1480be1afb53f7e35bf1b7d94228cc016f28b0e2957766cbd762a5")

    def test_counterfactual_day_digest_pinned(self):
        """The same day with no pandemic: pre-phase behaviour, no tail
        boost and every resident present."""
        trace = CampusTraceGenerator(
            _CONFIG, phase_override=Phase.PRE).generate_day(
                utc_ts(2020, 4, 15), presence=PRESENCE_ALL_RESIDENTS)
        assert (len(trace.bursts), len(trace.dns_records),
                len(trace.dhcp_records)) == (6932, 1174, 60)
        assert self._digest(trace) == (
            "fda5808f6a5e99db91588fa48954ddfbc65ca58605e6ae479a88a15273f8f0c3")


class TestSubRangeReproducibility:
    """Sharded ingest relies on a fresh generator over a mid-study day
    range reproducing what the full run generated for those days."""

    _RANGE = (utc_ts(2020, 3, 10), utc_ts(2020, 3, 13))

    @staticmethod
    def _burst_key(burst):
        # Everything the tap measures except the DHCP-assigned client
        # address, which is the one generation-history-dependent field.
        return (burst.ts, burst.client_port, burst.server_ip,
                burst.server_port, burst.proto, burst.orig_bytes,
                burst.resp_bytes, burst.user_agent, burst.http_host,
                burst.is_final)

    def test_fresh_generators_identical_over_same_range(self):
        runs = []
        for _ in range(2):
            generator = CampusTraceGenerator(_CONFIG)
            runs.append(list(generator.iter_days(*self._RANGE)))
        first, second = runs
        assert len(first) == len(second) == 3
        for day_a, day_b in zip(first, second):
            assert day_a.day_start == day_b.day_start
            assert day_a.session_count == day_b.session_count
            assert day_a.connection_count == day_b.connection_count
            assert ([self._burst_key(b) for b in day_a.bursts.rows()]
                    == [self._burst_key(b) for b in day_b.bursts.rows()])
            assert ([(r.ts, r.qname, r.answers)
                     for r in day_a.dns_records.rows()]
                    == [(r.ts, r.qname, r.answers)
                        for r in day_b.dns_records.rows()])

    def test_sub_range_matches_full_run_days(self):
        full = CampusTraceGenerator(_CONFIG)
        full_days = {trace.day_start: trace
                     for trace in full.iter_days(utc_ts(2020, 3, 1),
                                                 self._RANGE[1])}
        fresh = CampusTraceGenerator(_CONFIG)
        for trace in fresh.iter_days(*self._RANGE):
            reference = full_days[trace.day_start]
            assert trace.session_count == reference.session_count
            assert trace.connection_count == reference.connection_count
            assert ([self._burst_key(b) for b in trace.bursts.rows()]
                    == [self._burst_key(b) for b in reference.bursts.rows()])
