"""Study-wide constants: the measurement window and pandemic timeline.

The paper studies the residential network at UC San Diego between
2020-02-01 and 2020-05-31 and marks five dates on every time-series
figure (Section 4):

* 2020-03-04 -- regional authorities issue a state of emergency
* 2020-03-11 -- the WHO declares COVID-19 a pandemic
* 2020-03-19 -- regional authorities issue a stay-at-home order
* 2020-03-22 -- academic break starts
* 2020-03-30 -- academic break ends; classes resume online

All timestamps in this library are POSIX epoch seconds (floats) in a
naive UTC timeline; calendar arithmetic goes through
:mod:`repro.util.timeutil`.
"""

from __future__ import annotations

from repro.util.timeutil import utc_ts

#: First instant of the measurement window (2020-02-01 00:00).
STUDY_START = utc_ts(2020, 2, 1)

#: First instant *after* the measurement window (2020-06-01 00:00).
STUDY_END = utc_ts(2020, 6, 1)

#: Regional state of emergency declared.
STATE_OF_EMERGENCY = utc_ts(2020, 3, 4)

#: WHO declares COVID-19 a pandemic.
WHO_PANDEMIC = utc_ts(2020, 3, 11)

#: Regional stay-at-home order issued.
STAY_AT_HOME = utc_ts(2020, 3, 19)

#: Academic (spring) break begins.
BREAK_START = utc_ts(2020, 3, 22)

#: Academic break ends; classes resume in online modality.
BREAK_END = utc_ts(2020, 3, 30)

#: The four months covered by the study, as (year, month) pairs.
STUDY_MONTHS = ((2020, 2), (2020, 3), (2020, 4), (2020, 5))

#: Month labels used in the paper's box-and-whisker figures.
MONTH_LABELS = ("February", "March", "April", "May")

#: The four sample weeks of Figure 3 (each given by its Thursday start,
#: matching the paper's Thursday-to-Wednesday hour-of-week axis).
FIGURE3_WEEKS = (
    utc_ts(2020, 2, 20),
    utc_ts(2020, 3, 19),
    utc_ts(2020, 4, 9),
    utc_ts(2020, 5, 14),
)

#: Devices must be seen on the network for at least this many distinct
#: days to be retained by the visitor filter (Section 3).
VISITOR_MIN_DAYS = 14

