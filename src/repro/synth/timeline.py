"""Pandemic phases of the study window.

The behaviour model keys its rate modifiers off these phases, which are
delimited by the same five dates the paper marks on its figures plus
the start of the window.
"""

from __future__ import annotations

from typing import Tuple

from repro import constants
from repro.util.timeutil import DAY


class Phase:
    """Named spans of the study window (string constants)."""

    #: Normal in-person instruction (2020-02-01 .. 03-04).
    PRE = "pre"
    #: State of emergency declared; life mostly normal (03-04 .. 03-11).
    EMERGENCY = "emergency"
    #: WHO pandemic declaration; campus emptying, finals remote
    #: (03-11 .. 03-19).
    PANDEMIC_DECLARED = "pandemic_declared"
    #: Regional stay-at-home order; final exams week (03-19 .. 03-22).
    STAY_AT_HOME = "stay_at_home"
    #: Spring/academic break, fully locked down (03-22 .. 03-30).
    BREAK = "break"
    #: Spring term in online modality (03-30 .. 06-01).
    ONLINE_TERM = "online_term"

    @classmethod
    def all(cls) -> Tuple[str, ...]:
        return (
            cls.PRE,
            cls.EMERGENCY,
            cls.PANDEMIC_DECLARED,
            cls.STAY_AT_HOME,
            cls.BREAK,
            cls.ONLINE_TERM,
        )


_BOUNDARIES = (
    (constants.STATE_OF_EMERGENCY, Phase.PRE),
    (constants.WHO_PANDEMIC, Phase.EMERGENCY),
    (constants.STAY_AT_HOME, Phase.PANDEMIC_DECLARED),
    (constants.BREAK_START, Phase.STAY_AT_HOME),
    (constants.BREAK_END, Phase.BREAK),
)


def phase_of(ts: float) -> str:
    """Return the pandemic phase containing a timestamp.

    Timestamps before the study window are treated as :data:`Phase.PRE`
    (used when generating the 2019 comparison baseline) and timestamps
    after it as :data:`Phase.ONLINE_TERM`.
    """
    for boundary, phase in _BOUNDARIES:
        if ts < boundary:
            return phase
    return Phase.ONLINE_TERM


def weeks_into_online_term(ts: float) -> float:
    """Fractional weeks elapsed since online instruction began.

    Negative before the online term starts; used by behaviours that
    drift over the spring term (e.g. late-May Switch boredom spike).
    """
    return (ts - constants.BREAK_END) / (7 * DAY)
