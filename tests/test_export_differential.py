"""The list-based export writers against the per-slot writers they replaced.

``reference_rows``, ``reference_csv`` and ``reference_json`` are the
per-slot timestamps (the date's midnight plus five minutes a slot),
per-cell ``format_number`` CSV writer and ``json.dump`` writer, kept here
as they were, with the reference normaliser of
``tests/metric_reference.py``. Hypothesis rebuilds days through
``reconstruct_day`` (levels 1-5, raw and rescaled, 0.3-400 vehicles per
slot, so near-empty days with negative shares too), adds all-zero and
negated reconstructions, and writes each with and without an original
day, on dates that include 29 February, 31 December, ``date.min`` and
``date.max``. Both sides must write the same bytes, return the same
clamped count and raise the same exception type. Counts that are not
finite raise ``NonFiniteValues``, and a negative total ``InvalidParams``,
before any file is opened, so the strategies draw finite, non-negative
totals only.

``reference_records_csv`` and ``reference_gap_report`` are the
``csv.writer`` records writer and the per-month-set gap report, kept here
as they were, except for three things. The records writer hands each flow
to ``csv.writer`` as it is: its ``repr`` spelled ``np.float64(3.0)`` for a
numpy float, which no parse reads. Both now refuse, with
``InvalidParams``, a record the parser would reject, by the parser's
former clause-by-clause rule (``reference_on_grid``, and for the writer a
flow whose text ``float`` reads as negative, NaN or infinite); the writer
then leaves no file. And the gap report takes the sensor id it is given
and refuses a record of any other with ``MixedSensors`` (a drawn ``None``
is an id no record carries). The gap report carries its own month
calendar, sensor check and severity ladder; both sides are compared as
``(sensor_id, [(year, month, missing_slots, severity), ...])``, or as the
type of the error raised. Hypothesis draws sensor ids that need quoting,
naive, tz-aware and second-bearing timestamps, int, float and numpy-scalar
flows (``-0.0``, subnormal, huge, non-finite), and empty record lists for
the writer; dense and sparse single- and two-sensor record sets with
duplicate, off-grid and out-of-span naive timestamps on multi-month,
year-crossing, leap-day and reversed spans for the gap report.

The whole-year tests compare both records writers and both gap reports
on one synthetic sensor-year of ~100k records with dropped slots, a dead
day and repeated timestamps, and hold the gap report's transient memory
to a bound that a set of the year's timestamps alone exceeds.
"""

import csv
import json
import tempfile
import tracemalloc
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowrecon.errors import (
    FlowReconError,
    InvalidParams,
    MixedSensors,
    NonFiniteValues,
    ZeroDailyTotal,
)
from flowrecon.ingest import (
    MAX_AGGREGATION_LEVEL,
    SLOTS_PER_DAY,
    DaySignal,
    SensorRecord,
    aggregate,
    day_to_records,
    gap_report,
    write_records_csv,
)
from flowrecon.matrix import build_matrix_scenario1, build_matrix_scenario2
from flowrecon.reconstruct import reconstruct_day, write_reconstruction_csv, write_reconstruction_json
from flowrecon.synth import DEFAULT_PARAMS, DEFAULT_SENSOR_ID, generate_corpus

from metric_reference import normalize_percent

EDGE_DATES = (date(2012, 2, 29), date(2000, 2, 29), date(2012, 12, 31), date.min, date.max)
DONOR_DATES = (date(2012, 4, 3), date(2012, 4, 4), date(2012, 4, 5))


def reference_format_number(value):
    return format(float(value), ".6g")


def reference_rows(reconstructed, total_vehicles, original):
    shares = normalize_percent(reconstructed).values
    clamped = int(np.sum(shares < 0))
    counts = np.clip(shares, 0.0, None) * total_vehicles
    rows = []
    for slot in range(SLOTS_PER_DAY):
        rows.append(
            (
                (
                    datetime.combine(reconstructed.date, time()) + timedelta(minutes=5 * slot)
                ).isoformat(timespec="minutes"),
                float(shares[slot]),
                float(counts[slot]),
                float(original.values[slot]) if original is not None else None,
            )
        )
    return rows, clamped


def reference_csv(path, reconstructed, total_vehicles, original=None):
    rows, clamped = reference_rows(reconstructed, total_vehicles, original)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "share", "count", "original_count"])
        for ts, share, count, orig in rows:
            writer.writerow(
                [
                    ts,
                    reference_format_number(share),
                    reference_format_number(count),
                    "" if orig is None else reference_format_number(orig),
                ]
            )
    return clamped


def reference_json(path, reconstructed, total_vehicles, original=None):
    rows, clamped = reference_rows(reconstructed, total_vehicles, original)
    payload = {
        "date": reconstructed.date.isoformat(),
        "clamped_slots": clamped,
        "slots": [
            {"timestamp": ts, "share": share, "count": count, "original_count": orig}
            for ts, share, count, orig in rows
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    return clamped


def outcome(write, *args):
    """The written bytes and returned count, or the type of the error raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "day.out"
        try:
            clamped = write(path, *args)
        except FlowReconError as exc:
            return type(exc), path.exists()
        return path.read_bytes(), clamped


@st.composite
def export_cases(draw):
    """(reconstructed day, total vehicles, original day or None)."""
    day = draw(st.one_of(st.sampled_from(EDGE_DATES), st.dates()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((0.3, 1.0, 4.0, 40.0, 400.0)))
    target = DaySignal(day, "s1", rng.poisson(scale, SLOTS_PER_DAY).astype(float))
    donors = [
        DaySignal(d, "s1", rng.poisson(scale, SLOTS_PER_DAY).astype(float)) for d in DONOR_DATES
    ]
    build = draw(st.sampled_from((build_matrix_scenario1, build_matrix_scenario2)))
    level = draw(st.integers(1, MAX_AGGREGATION_LEVEL))
    rescale = draw(st.booleans())
    recon = reconstruct_day(build(donors), aggregate(target, level), level, rescale)
    kind = draw(st.sampled_from(("pipeline",) * 6 + ("zeros", "negated")))
    if kind == "zeros":
        recon = DaySignal(day, "", np.zeros(SLOTS_PER_DAY))
    elif kind == "negated":
        recon = DaySignal(day, "", -recon.values)
    total = draw(
        st.one_of(
            st.just(target.daily_total),
            st.floats(0.0, 1e6),
            st.integers(0, 10**6),
        )
    )
    original = draw(st.sampled_from((None, target)))
    return recon, total, original


@settings(max_examples=120, deadline=None)
@given(export_cases())
def test_csv_bytes_match_reference(case):
    assert outcome(write_reconstruction_csv, *case) == outcome(reference_csv, *case)


@settings(max_examples=120, deadline=None)
@given(export_cases())
def test_json_bytes_match_reference(case):
    assert outcome(write_reconstruction_json, *case) == outcome(reference_json, *case)


def test_zero_total_raises_on_both_sides():
    zeros = DaySignal(date.max, "", np.zeros(SLOTS_PER_DAY))
    writers = (write_reconstruction_csv, reference_csv, write_reconstruction_json, reference_json)
    for write in writers:
        assert outcome(write, zeros, 10.0, None) == (ZeroDailyTotal, False)


@pytest.mark.parametrize("total", (np.inf, -np.inf, np.nan, 1e308))
@pytest.mark.parametrize("write", (write_reconstruction_csv, write_reconstruction_json))
def test_non_finite_counts_raise_before_the_file_is_opened(write, total):
    values = np.zeros(SLOTS_PER_DAY)
    values[:2] = (4.0, -2.0)  # shares 2 and -1: 2 * 1e308 overflows
    recon = DaySignal(date(2012, 2, 29), "", values)
    assert outcome(write, recon, total, None) == (NonFiniteValues, False)


@pytest.mark.parametrize("total", (-2880.0, -1e-300))
@pytest.mark.parametrize("write", (write_reconstruction_csv, write_reconstruction_json))
def test_negative_total_raises_before_the_file_is_opened(write, total):
    flat = DaySignal(date(2012, 2, 29), "", np.full(SLOTS_PER_DAY, 10.0))
    assert outcome(write, flat, total, None) == (InvalidParams, False)


@pytest.mark.parametrize("total", (0.0, -0.0))
@pytest.mark.parametrize(
    "write, reference",
    ((write_reconstruction_csv, reference_csv), (write_reconstruction_json, reference_json)),
)
def test_zero_totals_stay_valid(write, reference, total):
    values = np.full(SLOTS_PER_DAY, 10.0)
    values[0] = -5.0  # one clamped slot
    recon = DaySignal(date(2012, 2, 29), "", values)
    written = outcome(write, recon, total, None)
    # a -0.0 total writes what 0.0 writes: counts of 0, never -0
    assert written == outcome(reference, recon, 0.0, None)
    assert written[1] == 1


def reference_on_grid(ts):
    return ts.tzinfo is None and not (ts.second or ts.microsecond or ts.minute % 5)


def reference_records_csv(records, path):
    for rec in records:
        if not (reference_on_grid(rec.timestamp) and 0 <= float(str(rec.flow_total)) < np.inf):
            raise InvalidParams("the parser would reject this record")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "sensor_id", "flow_total"])
        for rec in records:
            writer.writerow([rec.timestamp.isoformat(timespec="minutes"), rec.sensor_id, rec.flow_total])


def records_bytes(write, records):
    """The written bytes, or the type of the error raised and whether a file is left."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        try:
            write(records, path)
        except FlowReconError as exc:
            return type(exc), path.exists()
        return path.read_bytes()


QUOTED_IDS = ("", "a,b", 'say "hi"', "line\nbreak", "cr\rlf", "\r\n", " padded ", '"', ",", "ß-7")
DAY_LESS_A_MINUTE = timedelta(hours=23, minutes=59)
OFFSETS = st.builds(timezone, st.timedeltas(-DAY_LESS_A_MINUTE, DAY_LESS_A_MINUTE))
sensor_ids = st.one_of(st.sampled_from(QUOTED_IDS), st.text(max_size=8))
timestamps = st.one_of(
    st.datetimes(),
    st.datetimes(timezones=OFFSETS),
    st.datetimes().map(lambda ts: ts.replace(second=0, microsecond=0)),
)
flows = st.one_of(
    st.sampled_from((0.1, 1e-300, 1e300, -0.0, 0.0, 5e-324)),
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(SensorRecord, timestamps, sensor_ids, flows), max_size=12))
@example([])
def test_records_csv_bytes_match_reference(records):
    written = records_bytes(write_records_csv, records)
    assert written == records_bytes(reference_records_csv, records)


# the draws above with every timestamp moved onto the grid and every flow one the parser keeps
grid_timestamps = timestamps.map(
    lambda ts: ts.replace(minute=ts.minute - ts.minute % 5, second=0, microsecond=0, tzinfo=None)
)
kept_flows = flows.filter(lambda flow: 0 <= float(str(flow)) < np.inf)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(SensorRecord, grid_timestamps, sensor_ids, kept_flows), max_size=12))
def test_records_csv_bytes_match_reference_on_the_grid(records):
    written = records_bytes(write_records_csv, records)
    assert isinstance(written, bytes)
    assert written == records_bytes(reference_records_csv, records)


def reference_single_sensor(records, sensor_id):
    if not isinstance(sensor_id, str):
        raise InvalidParams(f"sensor id {sensor_id!r} is not a str")
    others = {rec.sensor_id for rec in records} - {sensor_id}
    if others:
        raise MixedSensors(f"records from {sorted(others)} labelled {sensor_id!r}")
    return sensor_id


def reference_month_range(start, end):
    year, month = start.year, start.month
    while (year, month) <= (end.year, end.month):
        yield year, month
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)


def reference_days_in_month(year, month):
    nxt = date(year + 1, 1, 1) if month == 12 else date(year, month + 1, 1)
    return (nxt - date(year, month, 1)).days


def reference_severity(missing_slots):
    for bound, label in ((12, "<=1 hour"), (288, "<=1 day"), (2016, "<=1 week")):
        if missing_slots <= bound:
            return label
    return ">1 week"


def reference_gap_report(records, start, end, sensor_id):
    """(sensor id, [(year, month, missing slots, severity), ...])."""
    records = list(records)
    sensor_id = reference_single_sensor(records, sensor_id)
    if end < start:
        raise InvalidParams("span end precedes start")
    if not all(reference_on_grid(rec.timestamp) for rec in records):
        raise InvalidParams("a timestamp is off the day grid")

    present = {}
    for rec in records:
        d = rec.timestamp.date()
        if start <= d <= end:
            present.setdefault((d.year, d.month), set()).add(rec.timestamp)

    months = []
    for year, month in reference_month_range(start, end):
        first = max(start, date(year, month, 1))
        last = min(end, date(year, month, reference_days_in_month(year, month)))
        expected = ((last - first).days + 1) * SLOTS_PER_DAY
        missing = max(0, expected - len(present.get((year, month), ())))
        months.append((year, month, missing, reference_severity(missing)))
    return sensor_id, months


def library_gap_report(records, start, end, sensor_id):
    """:func:`gap_report` in the reference's form."""
    report = gap_report(records, start, end, sensor_id)
    return report.sensor_id, [(m.year, m.month, m.missing_slots, m.severity) for m in report.months]


GAP_ANCHORS = (date(2012, 2, 27), date(2011, 12, 30), date(2000, 2, 1), date(2019, 11, 20))


@st.composite
def gap_cases(draw, on_grid=False):
    """(records, span start, span end, sensor_id argument); ``on_grid`` moves
    the scattered timestamps onto the grid and leaves out the off-grid ones."""
    anchor = draw(st.sampled_from(GAP_ANCHORS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = anchor + timedelta(days=draw(st.integers(-3, 3)))
    days = draw(st.integers(0, 40))
    slots = np.arange(days * SLOTS_PER_DAY)
    drop = draw(st.sampled_from((0.0, 0.001, 0.03, 0.5, 1.0)))
    minutes = (5 * slots[rng.random(slots.size) >= drop]).tolist()
    minutes += rng.integers(-3 * 1440, (days + 3) * 1440, draw(st.integers(0, 30))).tolist()
    if on_grid:
        minutes = [m - m % 5 for m in minutes]
    if minutes:
        minutes += [minutes[i] for i in rng.integers(0, len(minutes), draw(st.integers(0, 20)))]
    origin = datetime.combine(first, time())
    stamps = [origin + timedelta(minutes=m) for m in minutes]
    off_grid = st.datetimes(origin - timedelta(days=2), origin + timedelta(days=45))
    if not on_grid:
        stamps += draw(st.lists(off_grid, max_size=5))
    rng.shuffle(stamps)
    sensors = draw(st.sampled_from((("s1",),) * 5 + (("s1", "s2"),)))
    records = [SensorRecord(ts, sensors[i % len(sensors)], 1.0) for i, ts in enumerate(stamps)]
    start = anchor + timedelta(days=draw(st.integers(-5, 20)))
    end = start + timedelta(days=draw(st.integers(-2, 80)))
    return records, start, end, draw(st.sampled_from(("s1",) * 4 + ("s2",)))


def gap_outcome(report, records, start, end, sensor_id):
    try:
        return report(records, start, end, sensor_id)
    except FlowReconError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(gap_cases())
def test_gap_report_matches_reference(case):
    assert gap_outcome(library_gap_report, *case) == gap_outcome(reference_gap_report, *case)


@settings(max_examples=200, deadline=None)
@given(gap_cases(on_grid=True))
def test_gap_report_matches_reference_on_the_grid(case):
    assert gap_outcome(library_gap_report, *case) == gap_outcome(reference_gap_report, *case)


YEAR = 2012
EVERY_WEEKDAY = frozenset(range(7))
GAP_REPORT_PEAK_BYTES = 3.5e6  # a set of the year's timestamps alone takes ~4 MB


@pytest.fixture(scope="module")
def sensor_year():
    """One leap year of records: ~1% of slots dropped, 3 June dead, ~0.5%
    of timestamps repeated with another flow, some right after their first
    and some at the end of the list."""
    rng = np.random.default_rng(15)
    days = [
        day for month in range(1, 13) for day in generate_corpus(DEFAULT_PARAMS, YEAR, month, EVERY_WEEKDAY)
    ]
    kept = [
        rec
        for day in days
        if day.date != date(YEAR, 6, 3)
        for rec in day_to_records(day)
        if rng.random() >= 0.01
    ]
    records = []
    for rec in kept:
        records.append(rec)
        if rng.random() < 0.003:
            records.append(rec._replace(flow_total=rec.flow_total + 1.0))
    records += [kept[i]._replace(flow_total=0.0) for i in rng.integers(0, len(kept), 150)]
    return records


def test_sensor_year_records_csv_matches_reference(sensor_year):
    assert len(sensor_year) > 100_000
    written = records_bytes(write_records_csv, sensor_year)
    assert written == records_bytes(reference_records_csv, sensor_year)


def test_sensor_year_gap_report_matches_reference(sensor_year):
    span = (date(YEAR, 1, 1), date(YEAR, 12, 31), DEFAULT_SENSOR_ID)
    assert library_gap_report(sensor_year, *span) == reference_gap_report(sensor_year, *span)


def test_sensor_year_gap_report_memory(sensor_year):
    tracemalloc.start()
    try:
        gap_report(sensor_year, date(YEAR, 1, 1), date(YEAR, 12, 31), DEFAULT_SENSOR_ID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= GAP_REPORT_PEAK_BYTES, f"gap_report peaked at {peak / 1e6:.2f} MB"
