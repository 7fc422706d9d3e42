"""Tests for the pandemic timeline."""

from repro import constants
from repro.synth.timeline import (
    Phase,
    phase_of,
    weeks_into_online_term,
)
from repro.util.timeutil import DAY, utc_ts


class TestPhaseOf:
    def test_boundaries(self):
        assert phase_of(constants.STUDY_START) == Phase.PRE
        assert phase_of(constants.STATE_OF_EMERGENCY - 1) == Phase.PRE
        assert phase_of(constants.STATE_OF_EMERGENCY) == Phase.EMERGENCY
        assert phase_of(constants.WHO_PANDEMIC) == Phase.PANDEMIC_DECLARED
        assert phase_of(constants.STAY_AT_HOME) == Phase.STAY_AT_HOME
        assert phase_of(constants.BREAK_START) == Phase.BREAK
        assert phase_of(constants.BREAK_END) == Phase.ONLINE_TERM
        assert phase_of(constants.STUDY_END) == Phase.ONLINE_TERM

    def test_prior_year_is_pre(self):
        assert phase_of(utc_ts(2019, 4, 15)) == Phase.PRE

    def test_all_phases_enumerated(self):
        assert len(Phase.all()) == 6


class TestPredicates:
    def test_weeks_into_online_term(self):
        assert weeks_into_online_term(constants.BREAK_END) == 0.0
        assert weeks_into_online_term(
            constants.BREAK_END + 14 * DAY) == 2.0
        assert weeks_into_online_term(constants.BREAK_START) < 0
