"""Every validation failure of the library's types and arguments is a FlowReconError.

Code that scores a whole corpus catches ``FlowReconError`` to count a failed
day and go on; a plain ``ValueError`` would end the run instead.
"""

from dataclasses import replace
from datetime import date, datetime, timedelta, timezone, tzinfo

import numpy as np
import pytest

from flowrecon.errors import (
    FlowReconError,
    InvalidParams,
    LevelOutOfRange,
    NonFiniteValues,
    NotBlockConstant,
    SharesNotNormalized,
    SlotOutOfRange,
    UnknownScenario,
    WrongShape,
)
from flowrecon.haar import haar_forward, max_levels
from flowrecon.ingest import (
    SLOTS_PER_DAY,
    AggregatedSignal,
    DaySignal,
    MonthGap,
    SensorRecord,
    aggregate,
    assemble_day,
    day_to_records,
    gap_report,
)
from flowrecon.matrix import DaySelectionCriteria, MatrixProfile
from flowrecon.metrics import DayResult, evaluate_day
from flowrecon.reconstruct import reconstruct_day, share_row
from flowrecon.synth import DEFAULT_PARAMS, generate_corpus

DAY = date(2012, 4, 10)
FLAT = np.ones(SLOTS_PER_DAY)


def raises(error, build):
    with pytest.raises(FlowReconError) as info:
        build()
    assert isinstance(info.value, error)


def with_nan(length):
    values = np.ones(length)
    values[3] = np.nan
    return values


def test_wrong_shape():
    raises(WrongShape, lambda: DaySignal(DAY, "s1", np.ones(287)))
    raises(WrongShape, lambda: AggregatedSignal(np.ones(143), DAY, 1))
    raises(WrongShape, lambda: MatrixProfile(np.ones((2, SLOTS_PER_DAY)), 1, ()))
    raises(WrongShape, lambda: haar_forward(np.ones((2, 4)), 1))


def test_max_levels_of_empty_length():
    raises(WrongShape, lambda: max_levels(0))


def test_non_finite_values():
    raises(NonFiniteValues, lambda: DaySignal(DAY, "s1", with_nan(SLOTS_PER_DAY)))
    raises(NonFiniteValues, lambda: AggregatedSignal(with_nan(144), DAY, 1))
    raises(NonFiniteValues, lambda: MatrixProfile(with_nan(SLOTS_PER_DAY), 1, ()))
    # DaySignal checks its values when built; a NaN written in place later
    # is caught by the share rule
    mutated = DaySignal(DAY, "s1", FLAT.copy())
    mutated.values[3] = np.nan
    raises(NonFiniteValues, lambda: share_row(mutated.values))
    raises(NonFiniteValues, lambda: haar_forward([1.0, np.inf], 1))


def test_slot_out_of_range():
    raises(SlotOutOfRange, lambda: DaySignal(DAY, "s1", FLAT, frozenset({SLOTS_PER_DAY})))


@pytest.mark.parametrize(
    "slot", (-1, SLOTS_PER_DAY, 3.5, 2.0, np.float64(2.0), True, np.True_, "7", None, np.nan)
)
def test_filled_slots_must_be_slot_indices(slot):
    """A float, bool or text is no slot index, even one equal to a slot."""
    raises(SlotOutOfRange, lambda: DaySignal(DAY, "s1", FLAT, frozenset({slot})))
    raises(SlotOutOfRange, lambda: DaySignal(DAY, "s1", FLAT, frozenset({0, slot, 287})))


@pytest.mark.parametrize(
    "slot", (0, 7, SLOTS_PER_DAY - 1, np.int64(7), np.uint16(287), np.int8(0))
)
def test_filled_slots_take_python_and_numpy_ints(slot):
    assert DaySignal(DAY, "s1", FLAT, frozenset({slot})).filled_slots == {slot}


@pytest.mark.parametrize("level", (-1, 0, 6))
def test_level_out_of_range(level):
    profile, day = MatrixProfile(FLAT, 1, ()), DaySignal(DAY, "s1", FLAT)
    ramp = DaySignal(DAY, "s1", np.arange(1.0, SLOTS_PER_DAY + 1))
    raises(LevelOutOfRange, lambda: AggregatedSignal(np.ones(144), DAY, level))
    raises(LevelOutOfRange, lambda: aggregate(day, level))
    raises(LevelOutOfRange, lambda: profile.residual(level))
    raises(LevelOutOfRange, lambda: reconstruct_day(profile, aggregate(day, 1), level))
    raises(LevelOutOfRange, lambda: DayResult(DAY, level, 0.5, 1.0, 0.5, 1.0, 0.1, 0.1, 0))
    raises(LevelOutOfRange, lambda: evaluate_day(ramp, ramp, ramp, level))


def test_unknown_scenario():
    raises(UnknownScenario, lambda: MatrixProfile(FLAT, 3, ()))


def test_not_block_constant():
    raises(NotBlockConstant, lambda: MatrixProfile(np.arange(SLOTS_PER_DAY, dtype=float), 2, ()))


def test_shares_not_normalized():
    # cancellation: the total rounds to 848 while the shares sum to 0.984375
    values = np.zeros(SLOTS_PER_DAY)
    values[[145, 185, 231, 261]] = [632.0, -1e17, 1e17, 201.28]
    flat, reconstructed = DaySignal(DAY, "s1", FLAT), DaySignal(DAY, "s1", values)
    raises(SharesNotNormalized, lambda: share_row(reconstructed.values))
    raises(SharesNotNormalized, lambda: evaluate_day(flat, reconstructed, flat, 1))


def test_evaluate_day_refuses_an_error_that_overflows():
    """A subnormal original share under a share of 9 makes the error inf."""
    original = np.zeros(SLOTS_PER_DAY)
    original[1:257] = 2.0
    original[0] = np.nextafter(np.finfo(float).tiny, 0.0) * 512.0  # a subnormal share
    overshoot = np.zeros(SLOTS_PER_DAY)
    overshoot[:3] = (9.0, -8.5, 0.5)
    days = [DaySignal(DAY, "s1", v) for v in (original, overshoot, np.arange(1.0, 289.0))]
    with np.errstate(over="ignore"):
        raises(InvalidParams, lambda: evaluate_day(*days, 2))


def test_gap_report_reversed_span():
    raises(InvalidParams, lambda: gap_report([], date(2012, 4, 30), date(2012, 4, 1), "s1"))


class Zone(tzinfo):
    """As a zoneinfo zone: an offset for a datetime, none for a bare time."""

    def utcoffset(self, dt):
        return None if dt is None else timedelta(hours=-5)


def test_gap_report_tz_aware_timestamps():
    naive = datetime(2012, 4, 10, 8, 15)
    utc, eastern = timezone.utc, timezone(timedelta(hours=-5))
    aware = [naive.replace(tzinfo=utc), naive.replace(tzinfo=eastern)]
    zoned = [naive.replace(tzinfo=Zone()), naive.replace(minute=20, tzinfo=Zone())]
    mixed = ([naive, aware[0]], [aware[1], naive, naive], [naive, zoned[1]])
    for stamps in (aware, zoned, *mixed):
        records = [SensorRecord(ts, "s1", 1.0) for ts in stamps]
        raises(InvalidParams, lambda: gap_report(records, date(2012, 4, 1), date(2012, 4, 30), "s1"))


def test_month_gap_invalid():
    for month in (0, 13, -1, np.nan):
        raises(InvalidParams, lambda: MonthGap(2012, month, 0))
    for missing in (-1, -5, np.nan, 1.0, np.inf, True, "3"):
        raises(InvalidParams, lambda: MonthGap(2012, 3, missing))
    raises(InvalidParams, lambda: MonthGap(2012, 13, -5))  # the defect case
    assert MonthGap(2012, 12, 0).severity == "<=1 hour"


def test_day_selection_criteria_invalid():
    raises(InvalidParams, lambda: DaySelectionCriteria(2012, 13))


# a build from a year and month, for each type or function that takes one
MONTH_BUILDS = {
    "MonthGap": lambda year, month: MonthGap(year, month, 0),
    "DaySelectionCriteria": DaySelectionCriteria,
    "generate_corpus": lambda year, month: generate_corpus(DEFAULT_PARAMS, year, month),
}


@pytest.mark.parametrize(
    "year, month", ((2012, 13), (2012, 0), (2012, -1), (0, 3), (-1, 3), (10000, 3))
)
@pytest.mark.parametrize("build", MONTH_BUILDS)
def test_months_off_the_calendar_are_refused(build, year, month):
    """generate_corpus returned no days for these, as for a month that has none."""
    raises(InvalidParams, lambda: MONTH_BUILDS[build](year, month))


@pytest.mark.parametrize("year, month", ((1, 1), (9999, 12)))
@pytest.mark.parametrize("build", MONTH_BUILDS)
def test_the_first_and_last_calendar_months_are_taken(build, year, month):
    MONTH_BUILDS[build](year, month)


def day_result(**fields):
    """A valid ``DayResult`` with ``fields`` replaced."""
    values = dict(date=DAY, level=1, correlation=0.5, error_pct=1.0,
                  baseline_correlation=0.5, baseline_error_pct=1.0,
                  share_mad=0.0, baseline_share_mad=0.0, excluded_slots=0)
    return DayResult(**{**values, **fields})


def test_day_result_out_of_range():
    raises(InvalidParams, lambda: day_result(correlation=1.5))
    raises(InvalidParams, lambda: day_result(baseline_error_pct=-1.0))
    for name in ("error_pct", "baseline_error_pct", "share_mad", "baseline_share_mad"):
        # a subnormal original share gives an inf error: refused, as NaN is
        for value in (np.nan, -1e-300, -np.inf, np.inf):
            raises(InvalidParams, lambda: day_result(**{name: value}))
        day_result(**{name: np.finfo(float).max})
    for excluded in (-3, -1, SLOTS_PER_DAY, SLOTS_PER_DAY + 1):
        raises(InvalidParams, lambda: day_result(excluded_slots=excluded))
    day_result(excluded_slots=SLOTS_PER_DAY - 1)
    # the defect case: NaN errors and a negative excluded-slot count
    raises(InvalidParams, lambda: DayResult(DAY, 1, 0.5, np.nan, 0.5, 1.0, np.nan, 0.1, -3))


def warm_residual(level):
    """``residual`` of a profile that has already answered a level-2 read; no stored
    level may answer before the level is checked."""
    profile = MatrixProfile(FLAT, 1, ())
    profile.residual(2)
    return profile.residual(level)


RAMP = DaySignal(DAY, "s1", np.arange(1.0, SLOTS_PER_DAY + 1))

# field -> (its error, a build that puts the value in the field); every
# build succeeds for the value 2
INT_FIELDS = {
    "aggregate level": (LevelOutOfRange, lambda v: aggregate(RAMP, v)),
    "AggregatedSignal level": (LevelOutOfRange, lambda v: AggregatedSignal(np.ones(72), DAY, v)),
    "reconstruct_day level": (
        LevelOutOfRange,
        lambda v: reconstruct_day(MatrixProfile(FLAT, 1, ()), aggregate(RAMP, 2), v),
    ),
    "residual level": (LevelOutOfRange, lambda v: MatrixProfile(FLAT, 1, ()).residual(v)),
    "cached residual level": (LevelOutOfRange, warm_residual),
    "DayResult level": (LevelOutOfRange, lambda v: day_result(level=v)),
    "evaluate_day level": (LevelOutOfRange, lambda v: evaluate_day(RAMP, RAMP, RAMP, v)),
    "filled slot": (SlotOutOfRange, lambda v: DaySignal(DAY, "s1", FLAT, frozenset({v}))),
    "MonthGap year": (InvalidParams, lambda v: MonthGap(v, 3, 0)),
    "MonthGap month": (InvalidParams, lambda v: MonthGap(2012, v, 0)),
    "MonthGap missing_slots": (InvalidParams, lambda v: MonthGap(2012, 3, v)),
    "DaySelectionCriteria year": (InvalidParams, lambda v: DaySelectionCriteria(v, 3)),
    "DaySelectionCriteria month": (InvalidParams, lambda v: DaySelectionCriteria(2012, v)),
    "generate_corpus year": (InvalidParams, lambda v: generate_corpus(DEFAULT_PARAMS, v, 3)),
    "generate_corpus month": (InvalidParams, lambda v: generate_corpus(DEFAULT_PARAMS, 2012, v)),
    "DayResult excluded_slots": (InvalidParams, lambda v: day_result(excluded_slots=v)),
    "ProfileParams seed": (InvalidParams, lambda v: replace(DEFAULT_PARAMS, seed=v)),
    "MatrixProfile scenario": (UnknownScenario, lambda v: MatrixProfile(FLAT, v, ())),
}


@pytest.mark.parametrize("value", (2.0, 2.5, True, np.True_, "2", None), ids=repr)
@pytest.mark.parametrize("field", INT_FIELDS)
def test_integer_fields_refuse_what_is_no_int(field, value):
    """A float, bool, text or None is no int, even one equal to 2 (or 1)."""
    error, build = INT_FIELDS[field]
    raises(error, lambda: build(value))


@pytest.mark.parametrize("value", (2, np.int64(2)), ids=repr)
@pytest.mark.parametrize("field", INT_FIELDS)
def test_integer_fields_take_python_and_numpy_ints(field, value):
    INT_FIELDS[field][1](value)


# signal type -> (its length, a build from values)
SIGNALS = {
    "DaySignal": (SLOTS_PER_DAY, lambda v: DaySignal(DAY, "s1", v)),
    "AggregatedSignal": (SLOTS_PER_DAY >> 1, lambda v: AggregatedSignal(v, DAY, 1)),
    "MatrixProfile": (SLOTS_PER_DAY, lambda v: MatrixProfile(v, 1, ())),
}

# name -> (values of a given length, the error they raise)
BAD_ROWS = {
    "short": (lambda n: np.ones(n - 1), WrongShape),
    "long": (lambda n: np.ones(n + 1), WrongShape),
    "2-D": (lambda n: np.ones((2, n)), WrongShape),
    "one-row 2-D": (lambda n: np.ones((1, n)), WrongShape),
    "scalar": (lambda n: 1.0, WrongShape),
    "text": (lambda n: "abc", WrongShape),
    "list of text": (lambda n: ["x"] * n, WrongShape),
    "ragged list": (lambda n: [1.0] * (n - 1) + [[1.0, 2.0]], WrongShape),
    "dict": (lambda n: dict.fromkeys(range(n), 1.0), WrongShape),
    "int beyond float": (lambda n: [10**400] * n, WrongShape),
    "None": (lambda n: None, WrongShape),
    "list of numeric text": (lambda n: ["1"] * n, WrongShape),
    "numeric text array": (lambda n: np.array(["1"] * n), WrongShape),
    "numeric bytes array": (lambda n: np.array([b"1"] * n), WrongShape),
    "datetime64": (lambda n: np.full(n, np.datetime64("2012-03-06")), WrongShape),
    "timedelta64": (lambda n: np.arange(n).astype("timedelta64[m]"), WrongShape),
    "list of bools": (lambda n: [True] * n, WrongShape),
    "bool array": (lambda n: np.ones(n, dtype=bool), WrongShape),
    "complex": (lambda n: np.ones(n, dtype=complex), WrongShape),
    "NaN": (with_nan, NonFiniteValues),
    "inf": (lambda n: np.full(n, np.inf), NonFiniteValues),
    "-inf in a list": (lambda n: [1.0] * (n - 1) + [-np.inf], NonFiniteValues),
}


@pytest.mark.parametrize("row", BAD_ROWS)
@pytest.mark.parametrize("signal", SIGNALS)
def test_signal_arrays_refuse_what_is_no_finite_row(signal, row):
    (length, build), (values_of, error) = SIGNALS[signal], BAD_ROWS[row]
    raises(error, lambda: build(values_of(length)))


@pytest.mark.parametrize("signal", SIGNALS)
def test_signal_arrays_take_a_list_of_ints(signal):
    length, build = SIGNALS[signal]
    values = build(list(range(length))).values
    assert values.dtype == np.float64 and values.tolist() == list(range(length))


@pytest.mark.parametrize(
    "dtype", (np.int8, np.uint16, np.int64, np.float32, ">f8", np.longdouble, object)
)
@pytest.mark.parametrize("signal", SIGNALS)
def test_signal_arrays_take_int_float_and_object_arrays(signal, dtype):
    """An int, uint, float or object array converts to float64."""
    length, build = SIGNALS[signal]
    counts = np.arange(length) % 100  # fits an int8
    given = counts.astype(dtype)
    values = build(given).values
    assert values.dtype == np.float64 and values.tolist() == counts.tolist()


FULL_DAY = day_to_records(DaySignal(DAY, "s1", FLAT))

# field -> a build that puts the value in the field; every build succeeds for DAY
DAY_FIELDS = {
    "DaySignal date": lambda d: DaySignal(d, "s1", FLAT),
    "AggregatedSignal source_date": lambda d: AggregatedSignal(np.ones(144), d, 1),
    "assemble_day day": lambda d: assemble_day(FULL_DAY, d, "s1"),
    "gap_report start": lambda d: gap_report(FULL_DAY, d, DAY, "s1"),
    "gap_report end": lambda d: gap_report(FULL_DAY, DAY, d, "s1"),
}


@pytest.mark.parametrize(
    "value",
    (
        datetime(2012, 4, 10),
        datetime(2012, 4, 10, tzinfo=timezone.utc),
        "2012-04-10",
        np.datetime64("2012-04-10"),
        DAY.toordinal(),
        None,
    ),
    ids=repr,
)
@pytest.mark.parametrize("field", DAY_FIELDS)
def test_day_fields_refuse_what_is_no_date(field, value):
    """A datetime is a date too, but not a day: assemble_day zero-filled all
    288 slots of one, and a day's exported stamps read ``...T00:00:00T00:00``."""
    raises(InvalidParams, lambda: DAY_FIELDS[field](value))


@pytest.mark.parametrize("field", DAY_FIELDS)
def test_day_fields_take_a_date(field):
    DAY_FIELDS[field](DAY)


@pytest.mark.parametrize("sensor_id", (None, 7, b"s1"), ids=repr)
def test_sensor_id_must_be_text(sensor_id):
    """Checked before the records, so an empty day or span carries no other id."""
    records = [SensorRecord(datetime(2012, 4, 10, 8, 15), "s1", 1.0)]
    for given in ([], records):
        raises(InvalidParams, lambda: assemble_day(given, DAY, sensor_id))
        raises(InvalidParams, lambda: gap_report(given, DAY, DAY, sensor_id))
    raises(InvalidParams, lambda: DaySignal(DAY, sensor_id, FLAT))
