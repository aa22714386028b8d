"""Every validation failure of the library's types and arguments is a FlowReconError.

Code that scores a whole corpus catches ``FlowReconError`` to count a failed
day by its ``reason`` and go on; a plain ``ValueError`` would end the run
instead. Where a reason covers several faults, each check also matches the
message of the one it expects.
"""

import io
import pickle
import warnings
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone, tzinfo

import numpy as np
import pytest

from flowrecon.errors import REASONS
from flowrecon.haar import WaveletDecomposition, haar_forward, max_levels
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
    parse_sensor_csv,
)
from flowrecon.matrix import DaySelectionCriteria, MatrixProfile
from flowrecon.metrics import DayResult, evaluate_day, summarize
from flowrecon.reconstruct import reconstruct_day, share_row
from flowrecon.synth import DEFAULT_PARAMS, generate_corpus

from refusal import refused

DAY = date(2012, 4, 10)
FLAT = np.ones(SLOTS_PER_DAY)
NO_ROW = "values do not convert|expected shape"  # the "shape" faults of finite_row
NO_LEVEL = "is no int in 1..5"  # a "level" off the ladder, not an aggregate of another level
NO_MONTH = "is no int month"


def raises(reason, build, match=None):
    with refused(reason, match):
        build()


def with_nan(length):
    values = np.ones(length)
    values[3] = np.nan
    return values


def cancelling_total():
    """Heavy cancellation: the total rounds to 848 while the shares sum to 0.984375."""
    values = np.zeros(SLOTS_PER_DAY)
    values[[145, 185, 231, 261]] = [632.0, -1e17, 1e17, 201.28]
    return values


def a_constant_day():
    ramp = DaySignal(DAY, "s1", np.arange(1.0, SLOTS_PER_DAY + 1))
    return evaluate_day(ramp, ramp, DaySignal(DAY, "s1", FLAT), 1)


# reason -> an input that raises it
REASON_CASES = {
    "shape": lambda: DaySignal(DAY, "s1", np.ones(SLOTS_PER_DAY - 1)),
    "non-finite": lambda: DaySignal(DAY, "s1", with_nan(SLOTS_PER_DAY)),
    "zero-total": lambda: share_row(np.zeros(SLOTS_PER_DAY)),
    "not-normalized": lambda: share_row(cancelling_total()),
    "constant": a_constant_day,
    "level": lambda: aggregate(DaySignal(DAY, "s1", FLAT), 6),
    "no-header": lambda: parse_sensor_csv(io.StringIO("")),
    "missing-column": lambda: parse_sensor_csv(io.StringIO("timestamp,sensor_id\n")),
    "mixed-sensors": lambda: assemble_day(
        [SensorRecord(datetime(2012, 4, 10, 8, 15), "s2", 1.0)], DAY, "s1"
    ),
    "empty": lambda: summarize([]),
    "bad-params": lambda: MonthGap(2012, 13, 0),
}


@pytest.mark.parametrize("reason", REASONS)
def test_each_reason_has_an_input_that_raises_it(reason):
    """The error is a ValueError, and a pickle round-trip keeps its reason and message."""
    with refused(reason) as info:
        REASON_CASES[reason]()
    exc = info.value
    copy = pickle.loads(pickle.dumps(exc))
    assert isinstance(copy, ValueError)
    assert (type(copy), copy.reason, str(copy)) == (type(exc), reason, str(exc))


def test_wrong_shape():
    raises("shape", lambda: DaySignal(DAY, "s1", np.ones(287)), "expected shape")
    raises("shape", lambda: AggregatedSignal(np.ones(143), DAY, 1), "expected shape")
    raises("shape", lambda: MatrixProfile(np.ones((2, SLOTS_PER_DAY)), 1, ()), "expected shape")
    raises("shape", lambda: haar_forward(np.ones((2, 4)), 1), "non-empty 1-D")


def test_max_levels_of_empty_length():
    raises("shape", lambda: max_levels(0), "length must be an int")


def test_non_finite_values():
    raises("non-finite", lambda: DaySignal(DAY, "s1", with_nan(SLOTS_PER_DAY)))
    raises("non-finite", lambda: AggregatedSignal(with_nan(144), DAY, 1))
    raises("non-finite", lambda: MatrixProfile(with_nan(SLOTS_PER_DAY), 1, ()))
    # DaySignal checks its values when built; a NaN written in place later
    # is caught by the share rule
    mutated = DaySignal(DAY, "s1", FLAT.copy())
    mutated.values[3] = np.nan
    raises("non-finite", lambda: share_row(mutated.values))
    raises("non-finite", lambda: haar_forward([1.0, np.inf], 1))


def test_slot_out_of_range():
    raises("shape", lambda: DaySignal(DAY, "s1", FLAT, frozenset({SLOTS_PER_DAY})), "filled slots")


@pytest.mark.parametrize(
    "slot", (-1, SLOTS_PER_DAY, 3.5, 2.0, np.float64(2.0), True, np.True_, "7", None, np.nan)
)
def test_filled_slots_must_be_slot_indices(slot):
    """A float, bool or text is no slot index, even one equal to a slot."""
    raises("shape", lambda: DaySignal(DAY, "s1", FLAT, frozenset({slot})), "filled slots")
    raises("shape", lambda: DaySignal(DAY, "s1", FLAT, frozenset({0, slot, 287})), "filled slots")


@pytest.mark.parametrize(
    "slot", (0, 7, SLOTS_PER_DAY - 1, np.int64(7), np.uint16(287), np.int8(0))
)
def test_filled_slots_take_python_and_numpy_ints(slot):
    assert DaySignal(DAY, "s1", FLAT, frozenset({slot})).filled_slots == {slot}


@pytest.mark.parametrize("level", (-1, 0, 6))
def test_level_out_of_range(level):
    profile, day = MatrixProfile(FLAT, 1, ()), DaySignal(DAY, "s1", FLAT)
    ramp = DaySignal(DAY, "s1", np.arange(1.0, SLOTS_PER_DAY + 1))
    raises("level", lambda: AggregatedSignal(np.ones(144), DAY, level), NO_LEVEL)
    raises("level", lambda: aggregate(day, level), NO_LEVEL)
    raises("level", lambda: profile.residual(level), NO_LEVEL)
    raises("level", lambda: reconstruct_day(profile, aggregate(day, 1), level), NO_LEVEL)
    raises("level", lambda: DayResult(DAY, level, 0.5, 1.0, 0.5, 1.0, 0.1, 0.1, 0), NO_LEVEL)
    raises("level", lambda: evaluate_day(ramp, ramp, ramp, level), NO_LEVEL)


def test_unknown_scenario():
    raises("bad-params", lambda: MatrixProfile(FLAT, 3, ()), "unknown scenario")


@pytest.mark.parametrize(
    "values",
    (
        np.arange(SLOTS_PER_DAY, dtype=float),
        np.repeat(np.arange(SLOTS_PER_DAY // 2, dtype=float), 2),  # constant per 10 minutes only
        np.r_[np.zeros(SLOTS_PER_DAY - 1), 1.0],  # off in the day's last slot only
    ),
    ids=("ramp", "pairs", "last slot"),
)
def test_not_block_constant(values):
    raises("bad-params", lambda: MatrixProfile(values, 2, ()), "per 20-minute block")


def test_shares_not_normalized():
    flat, reconstructed = DaySignal(DAY, "s1", FLAT), DaySignal(DAY, "s1", cancelling_total())
    raises("not-normalized", lambda: share_row(reconstructed.values))
    raises("not-normalized", lambda: evaluate_day(flat, reconstructed, flat, 1))


def test_evaluate_day_refuses_an_error_that_overflows():
    """A subnormal original share under a share of 9 makes the error inf."""
    original = np.zeros(SLOTS_PER_DAY)
    original[1:257] = 2.0
    original[0] = np.nextafter(np.finfo(float).tiny, 0.0) * 512.0  # a subnormal share
    overshoot = np.zeros(SLOTS_PER_DAY)
    overshoot[:3] = (9.0, -8.5, 0.5)
    days = [DaySignal(DAY, "s1", v) for v in (original, overshoot, np.arange(1.0, 289.0))]
    with np.errstate(over="ignore"):
        raises("bad-params", lambda: evaluate_day(*days, 2), "is not finite")


def test_evaluate_day_refuses_a_correlation_whose_norms_overflow():
    """Slots of 1e200 and -1e200 cancel in the total, so the shares pass ``share_row``,
    but the centred norms overflow to inf: the pair once scored a correlation of 1.0
    (``min(1.0, nan)``), and a finite row against it 0.0 (``cross / inf``). The refusal
    comes with no numpy warning first, so a caller who turns warnings into errors gets it.
    It is the refusal that ``DayResult`` gives the same NaN correlations, word for word:
    one rule holds both."""
    values = np.ones(SLOTS_PER_DAY)
    values[:2] = (1e200, -1e200)
    day, ramp = DaySignal(DAY, "s1", values), DaySignal(DAY, "s1", np.arange(1.0, 289.0))
    finite = evaluate_day(ramp, ramp, ramp, 3).correlation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for days in ((day, day, ramp), (ramp, day, ramp), (ramp, ramp, day)):
            with refused("bad-params", "is undefined") as scored:
                evaluate_day(*days, 3)
            r, br = (np.nan if days[0] is day or row is day else finite for row in days[1:])
            with refused("bad-params", r"outside \[-1, 1\]") as built:
                DayResult(DAY, 3, r, 0.0, br, 0.0, 0.0, 0.0, 0)
            assert str(scored.value) == str(built.value)


def test_gap_report_reversed_span():
    raises("bad-params", lambda: gap_report([], date(2012, 4, 30), date(2012, 4, 1), "s1"),
           "span end precedes start")


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
        raises("bad-params", lambda: gap_report(records, date(2012, 4, 1), date(2012, 4, 30), "s1"),
               "tz-aware or off-grid")


@pytest.mark.parametrize("stamp", (DAY, "2012-04-10T08:15", 1334045700))
@pytest.mark.parametrize(
    "call",
    (
        lambda records: assemble_day(records, DAY, "s1"),
        lambda records: gap_report(records, date(2012, 4, 1), date(2012, 4, 30), "s1"),
    ),
    ids=("assemble_day", "gap_report"),
)
def test_timestamps_that_are_no_datetime_are_refused(call, stamp):
    records = [SensorRecord(datetime(2012, 4, 10, 8, 10), "s1", 1.0), SensorRecord(stamp, "s1", 1.0)]
    raises("bad-params", lambda: call(records), "is no datetime")


def test_month_gap_invalid():
    for month in (0, 13, -1, np.nan):
        raises("bad-params", lambda: MonthGap(2012, month, 0), NO_MONTH)
    for missing in (-1, -5, np.nan, 1.0, np.inf, True, "3"):
        raises("bad-params", lambda: MonthGap(2012, 3, missing), "missing_slots")
    raises("bad-params", lambda: MonthGap(2012, 13, -5), NO_MONTH)  # the defect case
    assert MonthGap(2012, 12, 0).severity == "<=1 hour"


def test_day_selection_criteria_invalid():
    raises("bad-params", lambda: DaySelectionCriteria(2012, 13), NO_MONTH)


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
    raises("bad-params", lambda: MONTH_BUILDS[build](year, month), NO_MONTH)


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
    for name in ("correlation", "baseline_correlation"):
        for value in (1.5, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), np.nan, np.inf):
            raises("bad-params", lambda: day_result(**{name: value}), r"outside \[-1, 1\]")
        for value in (-1.0, 1.0):
            day_result(**{name: value})
    raises("bad-params", lambda: day_result(baseline_error_pct=-1.0), "not finite and >= 0")
    for name in ("error_pct", "baseline_error_pct", "share_mad", "baseline_share_mad"):
        # a subnormal original share gives an inf error: refused, as NaN is
        for value in (np.nan, -1e-300, -5e-324, -np.inf, np.inf):
            raises("bad-params", lambda: day_result(**{name: value}), "not finite and >= 0")
        for value in (np.finfo(float).max, -0.0):
            day_result(**{name: value})
    for excluded in (-3, -1, SLOTS_PER_DAY, SLOTS_PER_DAY + 1):
        raises("bad-params", lambda: day_result(excluded_slots=excluded), "excluded_slots")
    day_result(excluded_slots=SLOTS_PER_DAY - 1)
    # the defect case: NaN errors and a negative excluded-slot count
    raises("bad-params", lambda: DayResult(DAY, 1, 0.5, np.nan, 0.5, 1.0, np.nan, 0.1, -3),
           "not finite and >= 0")


def warm_residual(level):
    """``residual`` of a profile that has already answered a level-2 read; no stored
    level may answer before the level is checked."""
    profile = MatrixProfile(FLAT, 1, ())
    profile.residual(2)
    return profile.residual(level)


RAMP = DaySignal(DAY, "s1", np.arange(1.0, SLOTS_PER_DAY + 1))

# field -> (its reason, its message pattern, a build that puts the value in the field);
# every build succeeds for the value 2
INT_FIELDS = {
    "aggregate level": ("level", NO_LEVEL, lambda v: aggregate(RAMP, v)),
    "AggregatedSignal level": ("level", NO_LEVEL, lambda v: AggregatedSignal(np.ones(72), DAY, v)),
    "reconstruct_day level": (
        "level",
        NO_LEVEL,
        lambda v: reconstruct_day(MatrixProfile(FLAT, 1, ()), aggregate(RAMP, 2), v),
    ),
    "residual level": ("level", NO_LEVEL, lambda v: MatrixProfile(FLAT, 1, ()).residual(v)),
    "cached residual level": ("level", NO_LEVEL, warm_residual),
    "DayResult level": ("level", NO_LEVEL, lambda v: day_result(level=v)),
    "evaluate_day level": ("level", NO_LEVEL, lambda v: evaluate_day(RAMP, RAMP, RAMP, v)),
    "filled slot": ("shape", "filled slots", lambda v: DaySignal(DAY, "s1", FLAT, frozenset({v}))),
    "MonthGap year": ("bad-params", NO_MONTH, lambda v: MonthGap(v, 3, 0)),
    "MonthGap month": ("bad-params", NO_MONTH, lambda v: MonthGap(2012, v, 0)),
    "MonthGap missing_slots": ("bad-params", "missing_slots", lambda v: MonthGap(2012, 3, v)),
    "DaySelectionCriteria year": ("bad-params", NO_MONTH, lambda v: DaySelectionCriteria(v, 3)),
    "DaySelectionCriteria month": ("bad-params", NO_MONTH, lambda v: DaySelectionCriteria(2012, v)),
    "generate_corpus year": (
        "bad-params", NO_MONTH, lambda v: generate_corpus(DEFAULT_PARAMS, v, 3)
    ),
    "generate_corpus month": (
        "bad-params", NO_MONTH, lambda v: generate_corpus(DEFAULT_PARAMS, 2012, v)
    ),
    "DayResult excluded_slots": (
        "bad-params", "excluded_slots", lambda v: day_result(excluded_slots=v)
    ),
    "ProfileParams seed": ("bad-params", "seed must be", lambda v: replace(DEFAULT_PARAMS, seed=v)),
    "MatrixProfile scenario": (
        "bad-params", "unknown scenario", lambda v: MatrixProfile(FLAT, v, ())
    ),
    "haar_forward levels": (
        "level", "levels must be an int", lambda v: haar_forward(np.arange(8.0), v)
    ),
    "WaveletDecomposition levels": (
        "level",
        "levels must be an int",
        lambda v: WaveletDecomposition(v, [1.0], ([1.0, 2.0], [1.0])),
    ),
    "max_levels length": ("shape", "length must be an int", max_levels),
}


@pytest.mark.parametrize("value", (2.0, 2.5, True, np.True_, "2", None), ids=repr)
@pytest.mark.parametrize("field", INT_FIELDS)
def test_integer_fields_refuse_what_is_no_int(field, value):
    """A float, bool, text or None is no int, even one equal to 2 (or 1)."""
    reason, match, build = INT_FIELDS[field]
    raises(reason, lambda: build(value), match)


@pytest.mark.parametrize("value", (2, np.int64(2)), ids=repr)
@pytest.mark.parametrize("field", INT_FIELDS)
def test_integer_fields_take_python_and_numpy_ints(field, value):
    INT_FIELDS[field][2](value)


# signal type -> (its length, a build from values)
SIGNALS = {
    "DaySignal": (SLOTS_PER_DAY, lambda v: DaySignal(DAY, "s1", v)),
    "AggregatedSignal": (SLOTS_PER_DAY >> 1, lambda v: AggregatedSignal(v, DAY, 1)),
    "MatrixProfile": (SLOTS_PER_DAY, lambda v: MatrixProfile(v, 1, ())),
}

# name -> (values of a given length, the reason they raise)
BAD_ROWS = {
    "short": (lambda n: np.ones(n - 1), "shape"),
    "long": (lambda n: np.ones(n + 1), "shape"),
    "2-D": (lambda n: np.ones((2, n)), "shape"),
    "one-row 2-D": (lambda n: np.ones((1, n)), "shape"),
    "scalar": (lambda n: 1.0, "shape"),
    "text": (lambda n: "abc", "shape"),
    "list of text": (lambda n: ["x"] * n, "shape"),
    "ragged list": (lambda n: [1.0] * (n - 1) + [[1.0, 2.0]], "shape"),
    "dict": (lambda n: dict.fromkeys(range(n), 1.0), "shape"),
    "int beyond float": (lambda n: [10**400] * n, "shape"),
    "None": (lambda n: None, "shape"),
    "list of numeric text": (lambda n: ["1"] * n, "shape"),
    "numeric text array": (lambda n: np.array(["1"] * n), "shape"),
    "numeric bytes array": (lambda n: np.array([b"1"] * n), "shape"),
    "datetime64": (lambda n: np.full(n, np.datetime64("2012-03-06")), "shape"),
    "timedelta64": (lambda n: np.arange(n).astype("timedelta64[m]"), "shape"),
    "list of bools": (lambda n: [True] * n, "shape"),
    "bool array": (lambda n: np.ones(n, dtype=bool), "shape"),
    "complex": (lambda n: np.ones(n, dtype=complex), "shape"),
    "NaN": (with_nan, "non-finite"),
    "inf": (lambda n: np.full(n, np.inf), "non-finite"),
    "-inf in a list": (lambda n: [1.0] * (n - 1) + [-np.inf], "non-finite"),
}


@pytest.mark.parametrize("row", BAD_ROWS)
@pytest.mark.parametrize("signal", SIGNALS)
def test_signal_arrays_refuse_what_is_no_finite_row(signal, row):
    (length, build), (values_of, reason) = SIGNALS[signal], BAD_ROWS[row]
    raises(reason, lambda: build(values_of(length)), NO_ROW if reason == "shape" else None)


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
    raises("bad-params", lambda: DAY_FIELDS[field](value), "is no date")


@pytest.mark.parametrize("field", DAY_FIELDS)
def test_day_fields_take_a_date(field):
    DAY_FIELDS[field](DAY)


@pytest.mark.parametrize("sensor_id", (None, 7, b"s1"), ids=repr)
def test_sensor_id_must_be_text(sensor_id):
    """Checked before the records, so an empty day or span carries no other id."""
    records = [SensorRecord(datetime(2012, 4, 10, 8, 15), "s1", 1.0)]
    for given in ([], records):
        raises("bad-params", lambda: assemble_day(given, DAY, sensor_id), "is not a str")
        raises("bad-params", lambda: gap_report(given, DAY, DAY, sensor_id), "is not a str")
    raises("bad-params", lambda: DaySignal(DAY, sensor_id, FLAT), "is not a str")
