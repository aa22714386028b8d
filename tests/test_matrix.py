from datetime import date

import numpy as np
import pytest

from flowrecon.errors import EmptyDayList, NoTypicalDays
from flowrecon.haar import haar_forward
from flowrecon.ingest import SLOTS_PER_DAY, DaySignal
from flowrecon.matrix import (
    DaySelectionCriteria,
    MatrixProfile,
    build_matrix_scenario1,
    build_matrix_scenario2,
    select_typical_days,
)


def constant_day(day, value, filled=frozenset(), sensor="s1"):
    return DaySignal(day, sensor, np.full(SLOTS_PER_DAY, float(value)), filled)


def month_days(year, month):
    days = []
    d = 1
    while True:
        try:
            days.append(date(year, month, d))
        except ValueError:
            return days
        d += 1


def slot_mean_oracle(day_list):
    """Independent per-slot average: plain Python loops."""
    out = []
    for slot in range(SLOTS_PER_DAY):
        out.append(sum(d.values[slot] for d in day_list) / len(day_list))
    return out


def test_march_2012_yields_thirteen_typical_days():
    calendar = [constant_day(d, 10.0) for d in month_days(2012, 3)]
    criteria = DaySelectionCriteria(2012, 3)
    chosen = select_typical_days(calendar, criteria)
    assert len(chosen) == 13
    assert all(d.weekday() in {1, 2, 3} for d in chosen)
    assert chosen == sorted(chosen)


def test_every_typical_day_faulty_raises():
    calendar = [
        constant_day(d, 10.0, filled=frozenset({5})) for d in month_days(2012, 3)
    ]
    with pytest.raises(NoTypicalDays):
        select_typical_days(calendar, DaySelectionCriteria(2012, 3))


def test_single_valid_wednesday():
    wednesday = date(2012, 3, 14)
    calendar = [
        constant_day(d, 10.0) if d == wednesday else constant_day(d, 10.0, frozenset({1}))
        for d in month_days(2012, 3)
    ]
    assert select_typical_days(calendar, DaySelectionCriteria(2012, 3)) == [wednesday]


def test_scenario1_mean_of_two_constant_days():
    days = [constant_day(date(2012, 3, 6), 2.0), constant_day(date(2012, 3, 7), 4.0)]
    profile = build_matrix_scenario1(days)
    assert np.all(profile.values == 3.0)
    assert profile.scenario == 1
    assert profile.member_dates == (date(2012, 3, 6), date(2012, 3, 7))


def test_scenario1_single_day_is_identity():
    rng = np.random.default_rng(3)
    day = DaySignal(date(2012, 3, 6), "s1", rng.uniform(0, 200, SLOTS_PER_DAY))
    profile = build_matrix_scenario1([day])
    np.testing.assert_array_equal(profile.values, day.values)


def test_scenario1_matches_slot_mean_oracle():
    rng = np.random.default_rng(13)
    days = [
        DaySignal(d, "s1", rng.uniform(0, 400, SLOTS_PER_DAY))
        for d in month_days(2012, 3)
        if d.weekday() in {1, 2, 3}
    ]
    assert len(days) == 13
    profile = build_matrix_scenario1(days)
    np.testing.assert_allclose(profile.values, slot_mean_oracle(days), atol=1e-9)


def test_scenario2_block_means():
    ramp = DaySignal(
        date(2012, 3, 6), "s1", np.arange(1, SLOTS_PER_DAY + 1, dtype=float)
    )
    profile = build_matrix_scenario2([ramp])
    assert np.all(profile.values[:4] == 2.5)
    assert np.all(profile.values[4:8] == 6.5)


def test_scenario2_constant_profile_unchanged():
    profile = build_matrix_scenario2([constant_day(date(2012, 3, 6), 7.0)])
    assert np.all(profile.values == 7.0)


def test_scenario2_details_vanish_at_levels_one_and_two():
    rng = np.random.default_rng(51)
    days = [
        DaySignal(date(2012, 3, 6 + i), "s1", rng.uniform(0, 300, SLOTS_PER_DAY))
        for i in range(3)
    ]
    profile = build_matrix_scenario2(days)
    dec = haar_forward(profile.values, 2)
    assert np.max(np.abs(dec.details[0])) < 1e-9
    assert np.max(np.abs(dec.details[1])) < 1e-9
    # exact zeros, in fact: equal pairs difference out bit-for-bit
    assert np.max(np.abs(dec.details[0])) == 0.0


def test_both_scenarios_preserve_daily_total():
    rng = np.random.default_rng(77)
    days = [
        DaySignal(date(2012, 3, 6 + i), "s1", rng.uniform(0, 300, SLOTS_PER_DAY))
        for i in range(5)
    ]
    mean_total = np.mean([d.values.sum() for d in days])
    for build in (build_matrix_scenario1, build_matrix_scenario2):
        total = build(days).values.sum()
        assert abs(total - mean_total) <= 1e-9 * mean_total


def test_empty_day_list_rejected():
    with pytest.raises(EmptyDayList):
        build_matrix_scenario1([])
    with pytest.raises(EmptyDayList):
        build_matrix_scenario2([])


def test_scenario2_profile_validation():
    values = np.arange(SLOTS_PER_DAY, dtype=float)
    with pytest.raises(ValueError):
        MatrixProfile(values, 2, (date(2012, 3, 6),))
