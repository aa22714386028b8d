import codecs
import inspect
import io
import math
from collections import Counter, defaultdict
from datetime import date, datetime, timedelta, timezone, tzinfo
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrecon import ingest
from flowrecon.errors import (
    EmptyInput,
    InvalidParams,
    LevelOutOfRange,
    MissingColumn,
    MixedSensors,
)
from flowrecon.ingest import (
    BASE_WINDOW_MINUTES,
    SLOT_TIMES,
    SLOTS_PER_DAY,
    DaySignal,
    GapReport,
    MonthGap,
    SensorRecord,
    _slot,
    aggregate,
    assemble_day,
    day_to_records,
    gap_report,
    parse_sensor_csv,
    write_records_csv,
)

DAY = date(2012, 3, 13)


def make_records(day=DAY, sensor="s1", skip=()):
    return [
        SensorRecord(datetime.combine(day, SLOT_TIMES[slot]), sensor, float(slot % 17))
        for slot in range(SLOTS_PER_DAY)
        if slot not in skip
    ]


def csv_stream(text):
    return io.StringIO(text)


def test_parse_well_formed_rows():
    result = parse_sensor_csv(
        csv_stream(
            "timestamp,sensor_id,flow_total\n"
            "2012-03-13T08:00,s1,120\n"
            "2012-03-13T08:05,s1,131\n"
            "2012-03-13T08:10,s1,95\n"
            # basic and week-date ISO forms: kept by Python 3.11's fromisoformat
            "20190101T000500,s1,7\n"
            "2019-W01-2T00:10,s1,8\n"
        )
    )
    assert len(result.records) == 5
    assert result.rejected_rows == 0
    assert result.duplicate_rows == 0
    assert result.records[0].flow_total == 120.0
    assert result.records[1].timestamp == datetime(2012, 3, 13, 8, 5)
    assert [r.timestamp for r in result.records[3:]] == [
        datetime(2019, 1, 1, 0, 5),
        datetime(2019, 1, 1, 0, 10),
    ]


def test_parse_rejects_negative_flow():
    result = parse_sensor_csv(
        csv_stream("timestamp,sensor_id,flow_total\n2012-03-13T08:00,s1,-5\n")
    )
    assert result.records == []
    assert result.rejected_rows == 1


def test_parse_rejects_bad_timestamp_and_offgrid():
    result = parse_sensor_csv(
        csv_stream(
            "timestamp,sensor_id,flow_total\n"
            "not-a-time,s1,5\n"
            "2012-03-13T08:03,s1,5\n"  # not on the 5-minute grid
            "2012-03-13T08:05:30,s1,5\n"  # sub-minute
        )
    )
    assert result.records == []
    assert result.rejected_rows == 3


def test_parse_keeps_first_of_duplicate_timestamps():
    result = parse_sensor_csv(
        csv_stream(
            "timestamp,sensor_id,flow_total\n"
            "2012-03-13T08:00,s1,120\n"
            "2012-03-13T08:00,s1,999\n"
        )
    )
    assert len(result.records) == 1
    assert result.records[0].flow_total == 120.0
    assert result.duplicate_rows == 1


INTERLEAVED = (
    "timestamp,sensor_id,flow_total\n"
    "2012-03-13T08:00,s1,12\n"
    "2012-03-13T08:00,s2,12\n"
    "2012-03-13T08:05,s1,7\n"
    "2012-03-13T08:00,s1,7\n"  # duplicate of s1's first row
    "2012-03-13T08:05,s2,12\n"
    "2012-03-13T08:05,s2,7\n"  # duplicate of s2's 08:05
    "2012-03-13T08:10,s1,12\n"
    "2012-03-13T08:10, s2 ,-0\n"
    "2012-03-13T08:15,s1,-0\n"
)


@pytest.mark.parametrize("as_bytes", (False, True))
def test_parse_shares_one_id_string_per_sensor(as_bytes):
    """Interleaved sensors dedupe per sensor; kept records share one id string
    per sensor (the parser's memory use, not part of the records' contract)."""
    source = io.BytesIO(INTERLEAVED.encode("utf-8")) if as_bytes else csv_stream(INTERLEAVED)
    result = parse_sensor_csv(source)
    kept = [(0, "s1", 12.0), (0, "s2", 12.0), (5, "s1", 7.0), (5, "s2", 12.0),
            (10, "s1", 12.0), (10, "s2", 0.0), (15, "s1", 0.0)]
    assert result.records == [(datetime(2012, 3, 13, 8, m), s, f) for m, s, f in kept]
    assert (result.rejected_rows, result.duplicate_rows) == (0, 2)
    assert all(math.copysign(1.0, r.flow_total) == -1.0 for r in result.records[-2:])
    assert len({id(r.sensor_id) for r in result.records}) == 2


def test_parse_missing_required_column():
    with pytest.raises(MissingColumn):
        parse_sensor_csv(csv_stream("timestamp,sensor\n2012-03-13T08:00,s1\n"))


def test_parse_empty_stream():
    with pytest.raises(EmptyInput):
        parse_sensor_csv(csv_stream(""))


def test_parse_byte_stream():
    payload = (
        "flow_total,timestamp,vol_auto\n"
        "120,2012-03-13T08:00,90\n"
        "110,2012-03-13T08:05,bad\n"
    ).encode("utf-8")
    result = parse_sensor_csv(io.BytesIO(payload))
    assert result.records == [
        (datetime(2012, 3, 13, 8, 0), "unknown", 120.0),
        (datetime(2012, 3, 13, 8, 5), "unknown", 110.0),
    ]
    assert (result.rejected_rows, result.duplicate_rows) == (0, 0)


CRLF_RECORDS = (
    "timestamp,sensor_id,flow_total\r\n"
    "2012-03-13T08:00,s1,120\r\n"
    "2012-03-13T08:05,s1,131\r\n"
    "2012-03-13 08:10:00,s1,95\r\n"
    "2012-03-13T08:10,s1,96\r\n"  # duplicate
    "2012-03-13T08:12,s1,7\r\n"  # off the grid
)


def test_a_codecs_stream_reader_parses_as_its_bytes():
    """A stream whose read() returns str, though it is no io.TextIOBase and has no
    encoding attribute, is read as the text of its bytes."""
    raw = CRLF_RECORDS.encode("utf-8")
    result = parse_sensor_csv(codecs.getreader("utf-8")(io.BytesIO(raw)))
    assert result == parse_sensor_csv(io.BytesIO(raw))
    assert (len(result.records), result.rejected_rows, result.duplicate_rows) == (3, 1, 1)


def test_a_text_stream_of_canonical_rows_takes_the_fast_path(monkeypatch):
    """Text is parsed from its UTF-8 bytes, so its canonical rows are fast rows."""
    fast, real = [], ingest._fast_rows

    def spy(*args):
        rows = real(*args)
        fast.append(len(rows[0]))
        return rows

    monkeypatch.setattr(ingest, "_fast_rows", spy)
    result = parse_sensor_csv(csv_stream(CRLF_RECORDS))
    assert fast == [4]  # the off-grid row takes the row rules
    assert result == parse_sensor_csv(io.BytesIO(CRLF_RECORDS.encode("utf-8")))


def test_a_text_file_with_universal_newlines_parses_as_its_path(tmp_path):
    """open() with default newlines turns CRLF into LF; the parse equals the path's."""
    path = tmp_path / "records.csv"
    path.write_bytes(CRLF_RECORDS.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        assert parse_sensor_csv(fh) == parse_sensor_csv(path)


def test_a_lone_cr_in_a_text_stream_ends_a_row_as_in_its_bytes():
    """An unquoted lone CR in a text stream ends a row, as it does in the same bytes."""
    text = CRLF_RECORDS.replace("131\r\n", "131\r")
    result = parse_sensor_csv(csv_stream(text))
    assert result == parse_sensor_csv(io.BytesIO(text.encode("utf-8")))
    assert result == parse_sensor_csv(csv_stream(CRLF_RECORDS))


def test_a_lone_surrogate_in_a_text_stream_raises_unicode_encode_error():
    """Text that UTF-8 cannot encode is refused on reading, not kept as a sensor id
    that write_records_csv would refuse."""
    with pytest.raises(UnicodeEncodeError):
        parse_sensor_csv(csv_stream(CRLF_RECORDS.replace("s1,120", "\udc80,120")))


def test_assemble_full_day_has_no_filled_slots():
    day = assemble_day(make_records(), DAY, "s1")
    assert day.filled_slots == frozenset()
    assert day.values.shape == (SLOTS_PER_DAY,)
    assert day.sensor_id == "s1"


def test_assemble_zero_fills_missing_slot():
    day = assemble_day(make_records(skip={100}), DAY, "s1")
    assert day.values[100] == 0.0
    assert day.filled_slots == frozenset({100})


def test_assemble_empty_records_gives_dead_day():
    day = assemble_day([], DAY, sensor_id="s9")
    assert np.all(day.values == 0)
    assert len(day.filled_slots) == SLOTS_PER_DAY
    assert day.sensor_id == "s9"


def test_assemble_rejects_mixed_sensors():
    records = make_records() + [SensorRecord(datetime.combine(DAY, SLOT_TIMES[0]), "other", 1.0)]
    with pytest.raises(MixedSensors, match=r"\['other'\] labelled 's1'"):
        assemble_day(records, DAY, "s1")


def test_assemble_rejects_a_contradicting_sensor_label():
    with pytest.raises(MixedSensors):
        assemble_day(make_records(sensor="s2"), DAY, sensor_id="s1")


def test_assemble_ignores_other_dates():
    # same sensor across two dates is fine; only DAY's rows land on the grid
    day = assemble_day(make_records() + make_records(day=date(2012, 3, 14)), DAY, "s1")
    assert day.filled_slots == frozenset()
    assert np.array_equal(day.values, assemble_day(make_records(), DAY, "s1").values)


def test_flatten_roundtrip_is_a_fixpoint():
    original = assemble_day(make_records(skip={3, 200}), DAY, "s1")
    again = assemble_day(day_to_records(original), DAY, sensor_id=original.sensor_id)
    assert np.array_equal(again.values, original.values)
    assert again.filled_slots == original.filled_slots
    assert again.date == original.date


def test_day_to_records_over_a_leap_year():
    """Every day of 2012 flattens to its unfilled slots, stamped by minute
    arithmetic on the date and carrying Python floats."""
    rng = np.random.default_rng(2012)
    for i in range(366):
        y, m, d = (date(2012, 1, 1) + timedelta(days=i)).timetuple()[:3]
        values = rng.poisson(30, SLOTS_PER_DAY).astype(float)
        values[rng.integers(0, SLOTS_PER_DAY)] = -0.0
        dropped = rng.choice(SLOTS_PER_DAY, int(rng.integers(0, 20)), replace=False)
        filled = frozenset(dropped.tolist())
        values[list(filled)] = 0.0
        day = DaySignal(date(y, m, d), "s1", values, filled)
        want = [
            (datetime(y, m, d) + timedelta(minutes=5 * slot), "s1", repr(float(values[slot])))
            for slot in range(SLOTS_PER_DAY)
            if slot not in filled
        ]
        got = day_to_records(day)
        assert [(ts, sensor, repr(flow)) for ts, sensor, flow in got] == want
        assert all(type(flow) is float and ts.tzinfo is None for ts, _, flow in got)


@pytest.mark.parametrize(
    "level, minutes, windows", [(1, 10, 144), (2, 20, 72), (3, 40, 36), (4, 80, 18), (5, 160, 9)]
)
def test_aggregate_window_ladder(level, minutes, windows):
    agg = aggregate(assemble_day(make_records(), DAY, "s1"), level)
    assert agg.level == level and BASE_WINDOW_MINUTES << level == minutes
    assert agg.values.size == windows == SLOTS_PER_DAY >> level


def test_aggregate_all_ones_level2():
    day = DaySignal(DAY, "s1", np.ones(SLOTS_PER_DAY))
    agg = aggregate(day, 2)
    assert agg.values.size == 72
    assert np.all(agg.values == 4.0)


def test_aggregate_block_sums():
    day = DaySignal(DAY, "s1", np.arange(1, SLOTS_PER_DAY + 1, dtype=float))
    agg = aggregate(day, 1)
    assert agg.values[0] == 3.0 and agg.values[1] == 7.0


def test_aggregate_level_out_of_range():
    day = DaySignal(DAY, "s1", np.ones(SLOTS_PER_DAY))
    for bad in (0, 6):
        with pytest.raises(LevelOutOfRange):
            aggregate(day, bad)


def test_count_conservation_property():
    rng = np.random.default_rng(17)
    for _ in range(20):
        day = DaySignal(DAY, "s1", rng.integers(0, 500, SLOTS_PER_DAY).astype(float))
        for level in range(1, 6):
            assert aggregate(day, level).values.sum() == day.values.sum()


def test_reaggregation_consistency():
    rng = np.random.default_rng(23)
    day = DaySignal(DAY, "s1", rng.integers(0, 500, SLOTS_PER_DAY).astype(float))
    for level in range(2, 6):
        coarse = aggregate(day, level).values
        finer = aggregate(day, level - 1).values
        assert np.array_equal(coarse, finer.reshape(-1, 2).sum(axis=1))


def test_gap_report_full_month():
    records = [
        rec
        for d in range(1, 32)
        for rec in make_records(day=date(2012, 3, d))
    ]
    report = gap_report(records, date(2012, 3, 1), date(2012, 3, 31), "s1")
    (march,) = report.months
    assert march.missing_slots == 0
    assert march.severity == "<=1 hour"


def test_gap_report_one_dead_day():
    records = [
        rec
        for d in range(1, 32)
        if d != 10
        for rec in make_records(day=date(2012, 3, d))
    ]
    report = gap_report(records, date(2012, 3, 1), date(2012, 3, 31), "s1")
    (march,) = report.months
    assert march.missing_slots == 288
    assert march.severity == "<=1 day"


def test_gap_report_empty_thirty_day_month():
    report = gap_report([], date(2012, 4, 1), date(2012, 4, 30), sensor_id="dead")
    (april,) = report.months
    assert april.missing_slots == 8640
    assert april.severity == ">1 week"


def test_gap_report_rejects_a_contradicting_sensor_label():
    with pytest.raises(MixedSensors):
        gap_report(make_records(sensor="s2"), DAY, DAY, sensor_id="s1")


@pytest.mark.parametrize("call", (assemble_day, gap_report))
def test_the_sensor_id_is_required(call):
    assert inspect.signature(call).parameters["sensor_id"].default is inspect.Parameter.empty


def test_gap_report_rejects_records_of_other_sensors():
    records = make_records() + make_records(sensor="s2") + make_records(sensor="s3")
    with pytest.raises(MixedSensors, match=r"\['s2', 's3'\] labelled 's1'"):
        gap_report(records, DAY, DAY, "s1")
    with pytest.raises(MixedSensors):  # checked before the reversed span
        gap_report(make_records(sensor="s2"), DAY, date(2012, 3, 12), "s1")


class NoOffset(tzinfo):
    """A tzinfo without an offset: Python counts its stamps as naive."""

    def utcoffset(self, dt):
        return None


class DateOffset(NoOffset):
    """An offset only for a datetime, as a zoneinfo zone: its stamps are aware,
    though their ``timetz()`` is naive."""

    def utcoffset(self, dt):
        return None if dt is None else timedelta(hours=1)


def test_slot_takes_a_datetimes_naive():
    stamp = datetime(2012, 3, 13, 8, 15)
    for naive in (stamp, stamp.replace(tzinfo=NoOffset()), stamp.replace(fold=1)):
        assert _slot(naive) == 99
    zoned = stamp.replace(tzinfo=DateOffset())
    assert zoned.timetz().utcoffset() is None and zoned.utcoffset() is not None
    assert _slot(zoned) is _slot(stamp.replace(tzinfo=timezone.utc)) is None


# the former per-field rules placed these in slots 99, 108, 120 and 120; the parser rejects them
OFF_GRID = (
    datetime(2012, 3, 13, 8, 17),
    datetime(2012, 3, 13, 9, 0, 30),
    datetime(2012, 3, 13, 10, 0, tzinfo=timezone(timedelta(hours=2))),
    datetime(2012, 3, 13, 10, 0, tzinfo=DateOffset()),
)


@pytest.mark.parametrize("ts", OFF_GRID)
def test_off_grid_records_raise_and_leave_no_file(tmp_path, ts):
    text = f"timestamp,sensor_id,flow_total\n{ts.isoformat()},s1,4\n"
    assert parse_sensor_csv(csv_stream(text)).rejected_rows == 1
    records = make_records() + [SensorRecord(ts, "s1", 4.0)]
    with pytest.raises(InvalidParams):
        assemble_day(records, DAY, "s1")
    with pytest.raises(InvalidParams):
        gap_report(records, DAY, DAY, "s1")
    path = tmp_path / "records.csv"
    with pytest.raises(InvalidParams):
        write_records_csv(records, path)
    assert not path.exists()


def test_gap_report_rejects_a_second_stamp_in_a_slot():
    records = [SensorRecord(datetime(2012, 3, 13, 8, 15, s), "s1", 1.0) for s in (0, 30)]
    with pytest.raises(InvalidParams):
        gap_report(records, DAY, DAY, "s1")


@pytest.mark.parametrize(
    "flow, kept",
    [(-1.0, False), (-1, False), (math.nan, False), (math.inf, False), (-math.inf, False),
     (10**400, False), (-(10**400), False), (np.float64(-0.5), False), (np.float32("inf"), False),
     ("abc", False), (None, False), (True, False), (np.True_, False), (Fraction(1, 3), False),
     (0, True), (-0.0, True), (5e-324, True), (10**300, True), (np.float32(0.1), True)],
)
def test_writer_refuses_the_flows_the_parser_drops(tmp_path, flow, kept):
    row = f"timestamp,sensor_id,flow_total\n2012-03-14T00:00,s1,{flow}\n"
    assert len(parse_sensor_csv(csv_stream(row)).records) == kept
    path = tmp_path / "records.csv"
    records = make_records() + [SensorRecord(datetime(2012, 3, 14), "s1", flow)]
    if kept:
        write_records_csv(records, path)
        assert parse_sensor_csv(path).records[-1] == (datetime(2012, 3, 14), "s1", float(str(flow)))
    else:
        with pytest.raises(InvalidParams):
            write_records_csv(records, path)
        assert not path.exists()


@pytest.mark.parametrize(
    "record",
    [SensorRecord(date(2012, 3, 6), "s1", 1.0), SensorRecord("2012-03-06T00:05", "s1", 1.0), 5],
    ids=("date stamp", "text stamp", "no row"),
)
def test_writer_refuses_a_record_that_is_no_datetime_row(tmp_path, record):
    path = tmp_path / "records.csv"
    with pytest.raises(InvalidParams):
        write_records_csv(make_records()[:1] + [record], path)
    assert not path.exists()


@pytest.mark.parametrize("sensor", [5, None, b"s1", 5.0], ids=("int", "None", "bytes", "float"))
def test_writer_refuses_a_sensor_id_that_is_no_str(tmp_path, sensor):
    """An int id would be written as text and parse back as another record (``"5"``)."""
    path = tmp_path / "records.csv"
    with pytest.raises(InvalidParams):
        write_records_csv(make_records()[:1] + [SensorRecord(datetime(2012, 3, 6), sensor, 1.0)], path)
    assert not path.exists()


def test_writer_checks_each_sensor_id_once(tmp_path, monkeypatch):
    """The id check runs in the writer's per-id cache, not once per record."""
    calls = []
    monkeypatch.setattr(ingest, "check_sensor_id", calls.append)
    write_records_csv(make_records() + make_records(DAY, "s2") + make_records(), tmp_path / "records.csv")
    assert calls == ["s1", "s2"]


def test_gap_severity_boundaries():
    def severity(missing_slots):
        return MonthGap(2012, 3, missing_slots).severity

    assert severity(0) == "<=1 hour"
    assert severity(12) == "<=1 hour"
    assert severity(13) == "<=1 day"
    assert severity(288) == "<=1 day"
    assert severity(2016) == "<=1 week"
    assert severity(2017) == ">1 week"


def test_gap_report_counts_the_slots_assembly_fills(tmp_path):
    """Each month's missing slots equal the zero-filled slots of its
    assembled days, after a write and parse round trip."""
    rng = np.random.default_rng(14)
    start, end, outage = date(2012, 1, 29), date(2012, 4, 2), date(2012, 2, 29)
    days = [start + timedelta(days=i) for i in range((end - start).days + 1)]
    records = [
        SensorRecord(datetime.combine(day, SLOT_TIMES[slot]), "s1", float(rng.poisson(20)))
        for day in days
        if day != outage
        for slot in range(SLOTS_PER_DAY)
        if rng.random() >= 0.02  # scattered dropped slots
    ]
    records += [records[i] for i in rng.integers(0, len(records), 40)]  # repeated rows
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    parsed = parse_sensor_csv(path)
    assert parsed.duplicate_rows == 40

    by_day = defaultdict(list)
    for rec in parsed.records:
        by_day[rec.timestamp.date()].append(rec)
    filled = Counter()
    for day in days:
        filled[day.year, day.month] += len(assemble_day(by_day[day], day, "s1").filled_slots)
    report = gap_report(parsed.records, start, end, "s1")
    assert [((m.year, m.month), m.missing_slots) for m in report.months] == list(filled.items())
    assert filled[2012, 2] > SLOTS_PER_DAY  # the outage and some dropped slots


def test_gap_report_serialization(tmp_path):
    report = gap_report([], date(2012, 4, 1), date(2012, 5, 31), sensor_id="s1")
    out = tmp_path / "gaps.csv"
    report.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sensor_id,year,month,missing_slots,severity"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "months",
    [(("2019", 1, 5),), (MonthGap(2012, 3, 0), None), 5],
    ids=("tuple month", "None after a month", "no sequence"),
)
def test_gap_writer_refuses_a_month_that_is_no_month_gap(tmp_path, months):
    """Refused when the report is built, so no file is written."""
    path = tmp_path / "gaps.csv"
    with pytest.raises(InvalidParams):
        GapReport("s1", months)
    assert not path.exists()


@pytest.mark.parametrize("sensor", [5, None, b"s1"], ids=("int", "None", "bytes"))
def test_gap_report_refuses_a_sensor_id_that_is_no_str(sensor):
    with pytest.raises(InvalidParams):
        GapReport(sensor, (MonthGap(2012, 3, 0),))


def test_gap_report_keeps_its_months_as_a_tuple():
    months = [MonthGap(2012, 3, 0), MonthGap(2012, 4, 12)]
    report = GapReport("s1", iter(months))
    assert report.months == tuple(months)
    assert report == GapReport("s1", months) and hash(report) == hash(GapReport("s1", months))


on_grid = st.datetimes().map(
    lambda ts: ts.replace(minute=ts.minute - ts.minute % 5, second=0, microsecond=0)
)
# non-empty ids that survive the parser's strip(), quoting included
kept_ids = st.one_of(
    st.sampled_from(("s1", "a,b", 'say "hi"', "line\nbreak", "cr\rlf", "a \r\n b", '"', ",")),
    st.text(min_size=1, max_size=8).filter(lambda text: text == text.strip()),
)
DAY_LESS_A_MINUTE = timedelta(hours=23, minutes=59)
fixed_offsets = st.builds(timezone, st.timedeltas(-DAY_LESS_A_MINUTE, DAY_LESS_A_MINUTE))
nudges = st.sampled_from(
    (timedelta(0), timedelta(minutes=2), timedelta(seconds=30), timedelta(microseconds=1))
)
# naive (also by a tzinfo without offsets), fixed-offset aware and zoneinfo-like
# aware, on the grid's clock or off it by minutes, seconds or a microsecond, and
# unconstrained naive and aware datetimes
grid_probes = st.one_of(
    st.builds(
        lambda ts, nudge, tz: (ts + nudge).replace(tzinfo=tz),
        on_grid, nudges,
        st.one_of(st.none(), fixed_offsets, st.sampled_from((NoOffset(), DateOffset()))),
    ),
    st.datetimes(),
    st.datetimes(timezones=fixed_offsets),
)
finite_flows = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.sampled_from((-0.0, 5e-324, 1e300)),
    st.floats(min_value=0.0, allow_infinity=False).map(np.float64),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.builds(SensorRecord, on_grid, kept_ids, finite_flows),
        max_size=20,
        unique_by=lambda rec: (rec.sensor_id, rec.timestamp),
    )
)
def test_write_records_csv_roundtrip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("roundtrip") / "records.csv"
    write_records_csv(records, path)
    parsed = parse_sensor_csv(path)
    assert (parsed.rejected_rows, parsed.duplicate_rows) == (0, 0)
    expected = [(ts, sensor, repr(float(flow))) for ts, sensor, flow in records]
    assert [(ts, sensor, repr(flow)) for ts, sensor, flow in parsed.records] == expected


def accepts(call):
    try:
        call()
    except InvalidParams:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(grid_probes)
def test_parser_writer_assembly_and_gap_report_share_one_grid(tmp_path_factory, ts):
    """The parser keeps a row exactly when the writer writes its record,
    assembly places it and the gap report counts it."""
    tmp = tmp_path_factory.mktemp("grid")
    rec, day = SensorRecord(ts, "s1", 4.0), ts.date()
    parsed = parse_sensor_csv(csv_stream(f"timestamp,sensor_id,flow_total\n{ts.isoformat()},s1,4\n"))
    assert parsed.records in ([], [rec])
    on_grid = parsed.records == [rec]
    path = tmp / "records.csv"
    assert accepts(lambda: write_records_csv([rec], path)) == path.exists() == on_grid
    assert accepts(lambda: assemble_day([rec], day, "s1")) == on_grid
    assert accepts(lambda: gap_report([rec], day, day, "s1")) == on_grid
    if on_grid:
        assert parse_sensor_csv(path).records == [rec]
        assert len(assemble_day([rec], day, "s1").filled_slots) == SLOTS_PER_DAY - 1
        assert gap_report([rec], day, day, "s1").months[0].missing_slots == SLOTS_PER_DAY - 1
