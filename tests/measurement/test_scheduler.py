"""Unit tests for measurement schedules."""

import pytest

from repro.measurement.scheduler import (
    Round,
    rounds_every,
    rounds_per_day,
)


class TestRounds:
    def test_half_hourly_counts(self):
        # Sec. 5.1: streams every half hour => 48 rounds/day.
        rounds = rounds_every(30.0, days=2)
        assert len(rounds) == 2 * 48

    def test_hourly_counts(self):
        assert len(rounds_every(60.0, days=1)) == 24

    def test_hours_wrap(self):
        rounds = rounds_every(90.0, days=1)
        assert all(0.0 <= r.hour_cet < 24.0 for r in rounds)

    def test_absolute_hours_monotone_within_day(self):
        rounds = rounds_every(60.0, days=2)
        absolute = [r.absolute_hours for r in rounds]
        assert absolute == sorted(absolute)

    def test_validation(self):
        with pytest.raises(ValueError):
            rounds_every(0.0, days=1)
        with pytest.raises(ValueError):
            rounds_every(10.0, days=-1)

    def test_every_ten_minutes_is_paper_rate(self):
        # Sec. 5.2: every 10 minutes => 144 rounds/day.
        assert len(rounds_every(10.0, days=1)) == 144

    def test_round_dataclass(self):
        r = Round(day=2, hour_cet=3.0)
        assert r.absolute_hours == 51.0

    def test_non_divisible_round_count_pinned(self):
        assert len(rounds_every(100.0, days=2)) == 2 * 15
        assert [r.hour_cet for r in rounds_every(100.0, days=1)][-1] == pytest.approx(
            23.0 + 20.0 / 60.0
        )


class TestRoundsPerDay:
    def test_divisible_periods_exact(self):
        assert rounds_per_day(30.0) == 48
        assert rounds_per_day(10.0) == 144
        assert rounds_per_day(1440.0) == 1

    def test_non_divisible_keeps_last_in_day_round(self):
        # 100-minute period: rounds at 0:00, 1:40, ..., 23:20 — fifteen
        # rounds start inside the day.  int(round(1440/100)) == 14 was
        # the regression: the 23:20 round silently vanished.
        assert rounds_per_day(100.0) == 15

    def test_non_divisible_never_invents_a_round(self):
        # 7-hour period: 0:00, 7:00, 14:00, 21:00 — four rounds; the
        # next would start at 28:00, outside the day.
        assert rounds_per_day(420.0) == 4

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            rounds_per_day(0.0)
        with pytest.raises(ValueError):
            rounds_per_day(-30.0)
