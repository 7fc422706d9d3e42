"""Tests for repro.util.timeutil."""

import pytest

from repro.util import timeutil as tu


class TestUtcTs:
    def test_epoch_origin(self):
        assert tu.utc_ts(1970, 1, 1) == 0.0

    def test_known_date(self):
        # 2020-02-01 00:00 UTC.
        assert tu.utc_ts(2020, 2, 1) == 1580515200.0

    def test_components(self):
        base = tu.utc_ts(2020, 3, 4)
        assert tu.utc_ts(2020, 3, 4, hour=1) == base + tu.HOUR
        assert tu.utc_ts(2020, 3, 4, minute=30) == base + 30 * tu.MINUTE
        assert tu.utc_ts(2020, 3, 4, second=12.5) == base + 12.5

    def test_round_trip(self):
        ts = tu.utc_ts(2020, 5, 31, 23, 59)
        moment = tu.from_ts(ts)
        assert (moment.year, moment.month, moment.day) == (2020, 5, 31)
        assert (moment.hour, moment.minute) == (23, 59)


class TestDayMath:
    def test_day_index(self):
        origin = tu.utc_ts(2020, 2, 1)
        assert tu.day_index(origin, origin) == 0
        assert tu.day_index(origin + tu.DAY - 1, origin) == 0
        assert tu.day_index(origin + tu.DAY, origin) == 1
        assert tu.day_index(origin - 1, origin) == -1

    def test_iter_days(self):
        start = tu.utc_ts(2020, 2, 1, 5)  # mid-day start
        end = tu.utc_ts(2020, 2, 4)
        days = list(tu.iter_days(start, end))
        assert days == [tu.utc_ts(2020, 2, 1), tu.utc_ts(2020, 2, 2),
                        tu.utc_ts(2020, 2, 3)]


class TestWeekdays:
    def test_known_weekdays(self):
        # 2020-02-01 was a Saturday.
        assert tu.day_of_week(tu.utc_ts(2020, 2, 1)) == 5
        assert tu.is_weekend(tu.utc_ts(2020, 2, 1))
        assert tu.is_weekend(tu.utc_ts(2020, 2, 2))
        # 2020-02-03 was a Monday.
        assert tu.day_of_week(tu.utc_ts(2020, 2, 3)) == 0
        assert not tu.is_weekend(tu.utc_ts(2020, 2, 3))

    def test_hour_of_week(self):
        week_start = tu.utc_ts(2020, 2, 20)  # a Thursday
        assert tu.hour_of_week(week_start, week_start) == 0
        assert tu.hour_of_week(week_start + 3 * tu.HOUR + 10, week_start) == 3
        assert tu.hour_of_week(week_start + tu.WEEK - 1, week_start) == 167


class TestMonths:
    def test_month_key(self):
        assert tu.month_key(tu.utc_ts(2020, 4, 15)) == (2020, 4)

    def test_month_bounds_february_leap(self):
        start, end = tu.month_bounds(2020, 2)
        assert start == tu.utc_ts(2020, 2, 1)
        assert end == tu.utc_ts(2020, 3, 1)
        assert (end - start) / tu.DAY == 29  # 2020 is a leap year

    def test_month_bounds_may(self):
        start, end = tu.month_bounds(2020, 5)
        assert (end - start) / tu.DAY == 31


class TestFormatting:
    def test_format_day(self):
        assert tu.format_day(tu.utc_ts(2020, 3, 19, 14)) == "2020-03-19"

    def test_parse_day_round_trip(self):
        ts = tu.utc_ts(2020, 4, 9)
        assert tu.parse_day(tu.format_day(ts)) == ts

    def test_parse_day_rejects_garbage(self):
        with pytest.raises(ValueError):
            tu.parse_day("not-a-date")
