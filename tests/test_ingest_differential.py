"""The index-based CSV parser and dict-based day assembly against the code they replaced.

``reference_parse`` is the ``csv.DictReader`` parser and ``reference_assemble``
the slot-by-slot assembly loop, both kept here as they were apart from
returning plain tuples, dropping the unused vehicle-class columns and
reading the one record layout only. Hypothesis writes detector CSVs with
blank, short and long rows, quoted cells, repeated header names, missing
sensor columns (so the ``"unknown"`` fallback), blank sensors, blank,
tz-aware, sub-minute, fractional-second, off-grid and garbage timestamps,
and signed, subnormal, hexadecimal, padded, non-finite, overflowing,
negative and unparseable flows, as text or byte streams. Both sides must
keep the same records, count the same rejected and duplicate rows, and
raise the same exception type. Flows are compared by ``repr``, so a zero
must keep its sign (``-0.0 == 0.0`` would hide it).

``record_layout_files`` writes files under the record-layout header whose
rows are mostly canonical, so the parser's fixed-offset fast path reads
them, interleaved with rows that only the row rules read: the draws above,
dates that do not exist, a padded or second sensor, flows past 15 digits or
with a fraction other than one ``.0`` tail, duplicates of a fast row written
another way, a quoted row and a lone CR.
"""

import csv
import io
import tracemalloc
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from flowrecon import ingest
from flowrecon.errors import EmptyInput, FlowReconError, MissingColumn, MixedSensors
from flowrecon.ingest import (
    BASE_WINDOW_MINUTES,
    RECORD_COLUMNS,
    SLOT_TIMES,
    SLOTS_PER_DAY,
    SensorRecord,
    _body_lines,
    _fast_rows,
    assemble_day,
    parse_sensor_csv,
    write_records_csv,
)

DAYS = (date(2012, 3, 13), date(2012, 3, 14))


def _reference_timestamp(text):
    if not text:
        return None
    try:
        ts = datetime.fromisoformat(text.strip())
    except ValueError:
        return None
    if ts.tzinfo is not None:
        return None
    if ts.second or ts.microsecond or ts.minute % BASE_WINDOW_MINUTES:
        return None
    return ts


def _reference_flow(text):
    if text is None:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    if not np.isfinite(value) or value < 0:
        return None
    return value


def reference_parse(stream):
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise EmptyInput("input CSV has no header row")
    header = set(reader.fieldnames)
    for required in ("timestamp", "flow_total"):
        if required not in header:
            raise MissingColumn(f"required column {required!r} not in header")
    sensor_col = "sensor_id" if "sensor_id" in header else None

    records = []
    seen = set()
    rejected = duplicates = 0
    for row in reader:
        ts = _reference_timestamp(row.get("timestamp"))
        flow = _reference_flow(row.get("flow_total"))
        if ts is None or flow is None:
            rejected += 1
            continue
        sensor = (row.get(sensor_col) or "").strip() if sensor_col else ""
        if not sensor:
            sensor = "unknown"
        key = (sensor, ts)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        records.append((ts, sensor, repr(flow)))
    return records, rejected, duplicates


def reference_assemble(records, day, sensor_id):
    records = list(records)
    others = {r.sensor_id for r in records} - {sensor_id}
    if others:
        raise MixedSensors(f"records from {sorted(others)} labelled {sensor_id!r}")
    values = np.zeros(SLOTS_PER_DAY)
    covered = set()
    for rec in records:
        if rec.timestamp.date() != day:
            continue
        slot = (rec.timestamp.hour * 60 + rec.timestamp.minute) // BASE_WINDOW_MINUTES
        if slot in covered:
            continue
        covered.add(slot)
        values[slot] = rec.flow_total
    return sensor_id, values, frozenset(range(SLOTS_PER_DAY)) - covered


def parse_under_test(stream):
    result = parse_sensor_csv(stream)
    records = [(r.timestamp, r.sensor_id, repr(r.flow_total)) for r in result.records]
    return records, result.rejected_rows, result.duplicate_rows


def outcome(fn, *args):
    try:
        return fn(*args)
    except FlowReconError as exc:
        return type(exc)


@st.composite
def timestamps(draw):
    day = draw(st.sampled_from(DAYS))
    hour = draw(st.sampled_from([0, 8, 23]))
    minute = draw(st.sampled_from([0, 5, 30, 55, 3, 59]))
    iso = f"{day.isoformat()}T{hour:02d}:{minute:02d}"
    return draw(
        st.sampled_from(
            [
                iso,
                iso.replace("T", " ") + ":00",  # seconds, on the grid
                iso + ":30",  # sub-minute
                iso + ":00.000",  # fractional seconds, on the grid
                iso + ":00.000001",  # one microsecond off the grid
                iso + ":00,000",  # comma decimal separator
                iso + "+02:00",  # tz-aware
                iso + "Z",
                f" {iso} ",
                day.isoformat(),  # date only: midnight
                "not-a-time",
                f"{day.isoformat()} 25:00",
                "",
                "   ",
            ]
        )
    )


FLOWS = [
    "12", "0", "3.5", " 7 ", "-0", "nan", "inf", "-inf", "1e400", "-4", "n/a", "", "1_000",
    "+5", "1e-320", "0x10", " nan ", "Infinity",
]
SENSORS = ["s1", "s2", " s1 ", "", "  ", "a,b", "c;d", 'q"x']


@st.composite
def cells(draw, kind):
    if kind == "timestamp":
        return draw(timestamps())
    if kind == "flow":
        return draw(st.sampled_from(FLOWS))
    if kind == "sensor":
        return draw(st.sampled_from(SENSORS))
    return draw(st.one_of(st.sampled_from(FLOWS), st.sampled_from(SENSORS), timestamps()))


@st.composite
def csv_inputs(draw):
    kinds = {"timestamp": "timestamp", "flow_total": "flow", "sensor_id": "sensor"}
    names = ["timestamp", "flow_total", "sensor_id", "extra"]
    required = ["timestamp", "flow_total"]
    if draw(st.integers(0, 9)) == 0:
        required = required[: draw(st.integers(0, 1))]  # a required column is missing
    header = required + draw(st.lists(st.sampled_from(names), max_size=4))  # often no sensor_id
    header = draw(st.permutations(header))
    rows = []
    for _ in range(draw(st.integers(0, 15))):
        length = draw(st.sampled_from([len(header)] * 6 + [0, max(len(header) - 1, 0), len(header) + 1]))
        rows.append(
            [
                draw(cells(kinds.get(header[i], "any") if i < len(header) else "any"))
                for i in range(length)
            ]
        )
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    if header or draw(st.booleans()):  # an empty header is a blank first line, or no line
        writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue(), draw(st.booleans())


def stream_of(text, as_bytes):
    return io.BytesIO(text.encode("utf-8")) if as_bytes else io.StringIO(text, newline="")


EDGE_ROWS = "timestamp,flow_total\n" + "".join(
    f'"2012-03-13T08:{5 * i:02d}{suffix}",{flow}\n'
    for i, (suffix, flow) in enumerate(
        [(":00.000001", "1"), (":00,000", "+5"), (":00.000", "1e-320"), ("", "0x10"),
         ("", " nan "), ("", "Infinity"), ("", "-0")]
    )
) + "   ,4\n"


@settings(max_examples=200, deadline=None)
@given(csv_inputs())
@example((EDGE_ROWS, False))
def test_parse_matches_dictreader_reference(case):
    text, as_bytes = case
    expected = outcome(reference_parse, io.StringIO(text, newline=""))
    assert outcome(parse_under_test, stream_of(text, as_bytes)) == expected


# canonical dates and clocks, and near-canonical ones the fast path must leave to the row rules
FAST_DATES = [d.isoformat() for d in DAYS] + ["2012-02-29", "0001-01-01", "9999-12-31"]
ODD_DATES = ["2011-02-29", "2012-04-31", "0000-01-01", "2012-13-01", "2012-00-10", "2012-03-1a"]
ODD_CLOCKS = ["24:00", "08:60", "08:03", "8:05", "08:05:01", "08:05:00.000", "08:05+02:00"]
FAST_FLOWS = st.one_of(
    st.integers(0, 10**15 - 1).map(str),
    st.integers(0, 10**15 - 1).map("{}.0".format),  # a whole float as the writer writes it
    st.sampled_from(["0", "007", "999999999999999", "000000000000012", "0.0", "007.0"]),
)
ODD_FLOWS = [
    "0.5", "1.", ".5", ".0", "24.00", "24.0.0", "-0.0", "1.2.3", "1234567890123456",
    "0000000000000012", "1234567890123456.0", "1e3", "-0", "0x10",
]


@st.composite
def canonical_rows(draw):
    day = draw(st.sampled_from(FAST_DATES))
    hour, minute = divmod(draw(st.integers(0, SLOTS_PER_DAY - 1)) * BASE_WINDOW_MINUTES, 60)
    stamp = f"{day}{draw(st.sampled_from('T '))}{hour:02d}:{minute:02d}{draw(st.sampled_from(['', ':00']))}"
    return [stamp, draw(st.sampled_from(["s1"] * 6 + ["s2", " s1 "])), draw(FAST_FLOWS)]


@st.composite
def row_rule_rows(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:  # the draws of csv_inputs, without the quote that a writer would add
        return [draw(timestamps()), draw(st.sampled_from(SENSORS[:6])), draw(st.sampled_from(FLOWS))]
    stamp, sensor, flow = draw(canonical_rows())
    if kind == 1:
        stamp = draw(st.sampled_from(ODD_DATES)) + stamp[10:]
    elif kind == 2:
        stamp = stamp[:11] + draw(st.sampled_from(ODD_CLOCKS))
    else:
        flow = draw(st.sampled_from(ODD_FLOWS))
    return [stamp, sensor, flow][: draw(st.sampled_from([3, 3, 3, 2]))]


# one key written for each path: the fast layout, and fractional seconds that only fromisoformat reads
CROSS_PATH_TWINS = ("2012-03-13T08:05,s1,5", "2012-03-13 08:05:00.000,s1,6")
# s1 is the fast sensor, so s2 takes the row rules on the same minutes of years 1 and 9999, with a
# duplicate written both ways: its (sensor, minute) keys before 1970 must not meet s1's
FIRST_AND_LAST_YEARS = (
    "0001-01-01T00:05,s1,1", "0001-01-01T00:05,s2,5", "9999-12-31T23:55,s2,2",
    "9999-12-31T23:55,s1,3", "0001-01-01 00:05:00.000,s2,6", "0001-01-01T00:05,s1,4",
)


@st.composite
def record_layout_files(draw):
    rows = [",".join(row) for row in draw(st.lists(
        st.one_of(canonical_rows(), canonical_rows(), canonical_rows(), row_rule_rows()),
        min_size=50, max_size=300,
    ))]
    twins = CROSS_PATH_TWINS if draw(st.booleans()) else CROSS_PATH_TWINS[::-1]
    for row in twins * draw(st.integers(0, 2)):
        rows.insert(draw(st.integers(0, len(rows))), row)
    if draw(st.integers(0, 4)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), '"2012-03-13T08:10",s1,"7"')
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([",".join(RECORD_COLUMNS)] + rows)
    if draw(st.integers(0, 4)) == 0:  # one row ends in a lone CR
        at = draw(st.integers(0, len(rows) - 1))
        text = text.replace(end, "\r", at + 1).replace("\r", end, at)
    return text + (end if draw(st.booleans()) else "")


def fast_rows_of(text):
    data = text.encode("utf-8")
    body = _body_lines(data)
    return 0 if body is None else len(_fast_rows(data, *body)[0])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(record_layout_files())
@example("timestamp,sensor_id,flow_total\n" + "\n".join(CROSS_PATH_TWINS * 2))
@example("timestamp,sensor_id,flow_total\r\n" + "\r\n".join(CROSS_PATH_TWINS[::-1] * 2) + "\r\n")
@example("timestamp,sensor_id,flow_total\n" + "\n".join(FIRST_AND_LAST_YEARS))
def test_parse_matches_reference_where_the_fast_path_reads(tmp_path, text):
    """Path, text and byte stream reads all equal the reference, whichever path reads a row."""
    event("fast rows" if fast_rows_of(text) else "row rules only")
    path = tmp_path / "records.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = reference_parse(io.StringIO(text, newline=""))
    for source in (path, stream_of(text, False), stream_of(text, True)):
        assert parse_under_test(source) == expected


def test_canonical_rows_take_the_fast_path():
    """The strategy above reaches the fast path: its rows written plainly are all fast rows."""
    text = "timestamp,sensor_id,flow_total\n" + "\n".join(
        [CROSS_PATH_TWINS[0], "2012-03-13 08:10:00,s1,12", "9999-12-31T23:55,s1,999999999999999"]
    )
    assert fast_rows_of(text) == 3
    assert fast_rows_of(text.replace("\n", "\r\n") + "\r\n") == 3
    assert fast_rows_of(text.replace("s1,12", "s1,12.0")) == 3  # one ".0" tail: fast
    assert fast_rows_of(text.replace("s1,12", "s1,12.5")) == 2  # a fraction: row rules
    for flow in (".0", "12.00", "12.0.0", "-0.0", "1234567890123456.0"):  # row rules too
        assert fast_rows_of(text.replace("s1,12", f"s1,{flow}")) == 2
    assert fast_rows_of(text.replace("s1,5", "s1,5.0")) == 3  # the first fast row's tail
    assert fast_rows_of(text.replace("s1,12", 's1,"12"')) == 0  # a quote: row rules only


def test_a_month_the_writer_wrote_with_float_flows_is_read_by_the_fast_path(tmp_path, monkeypatch):
    """The writer writes a whole float flow as ``24.0``; every row of such a month is a
    fast row, and the records parse back equal, their flows floats."""
    fast, real = [], ingest._fast_rows

    def spy(*args):
        rows = real(*args)
        fast.append(len(rows[0]))
        return rows

    monkeypatch.setattr(ingest, "_fast_rows", spy)
    days = [date(2019, 1, d) for d in range(1, 32)]
    records = [SensorRecord(datetime.combine(day, start), "det-0007", (day.day * 7 + slot) % 300.0)
               for day in days for slot, start in enumerate(SLOT_TIMES)]
    records[-1] = records[-1]._replace(flow_total=999999999999999.0)  # 15 digits
    path = tmp_path / "month.csv"
    write_records_csv(records, path)
    assert path.read_bytes().count(b".0\r\n") == len(records)
    result = parse_sensor_csv(path)
    assert fast == [len(records)]
    assert result.records == records and {type(r.flow_total) for r in result.records} == {float}
    assert (result.rejected_rows, result.duplicate_rows) == (0, 0)


@pytest.mark.parametrize("every", [0, 50], ids=["all fast", "every 50th by the row rules"])
def test_parse_of_a_month_allocates_at_most_2_mb_beyond_its_records(tmp_path, every):
    """A 31-day month of records with whole flows as the writer writes them
    (8,928 fast rows) parses with at most 2 MB of tracemalloc peak beyond what
    the result keeps: the bound that keeps a sensor-year's parse within the
    benchmark's peak RSS. With ``every`` = 50, every 50th flow gains 0.5, so
    179 rows take the row rules and the build of both paths' records is
    measured too."""
    days = [date(2019, 1, d) for d in range(1, 32)]
    records = [SensorRecord(datetime.combine(day, start), "det-0007", (day.day * 7 + slot) % 300)
               for day in days for slot, start in enumerate(SLOT_TIMES)]
    fractional = range(0, len(records), every) if every else range(0)
    for i in fractional:
        records[i] = records[i]._replace(flow_total=records[i].flow_total + 0.5)
    path = tmp_path / "month.csv"
    write_records_csv(records, path)
    assert fast_rows_of(path.read_text(encoding="utf-8")) == len(records) - len(fractional)
    parse_sensor_csv(path)  # first-call work out of the measurement
    tracemalloc.start()
    try:
        result = parse_sensor_csv(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.records == records and {type(r.flow_total) for r in result.records} == {float}
    assert peak - retained <= 2_000_000


def test_sensor_record_contract():
    ts = datetime(2012, 3, 13, 8, 5)
    rec = SensorRecord(ts, "s1", 12.0)
    assert SensorRecord._fields == ("timestamp", "sensor_id", "flow_total")
    assert (rec.timestamp, rec.sensor_id, rec.flow_total) == tuple(rec) == (ts, "s1", 12.0)
    with pytest.raises(AttributeError):
        rec.flow_total = 1.0
    with pytest.raises(AttributeError):
        rec.extra = 1
    twin = SensorRecord(ts, "s1", 12.0)
    assert twin == rec and hash(twin) == hash(rec)
    parsed = parse_sensor_csv(io.StringIO("timestamp,sensor_id,flow_total\n2012-03-13T08:05,s1,12\n"))
    assert parsed.records == [rec]
    assert all(type(r) is SensorRecord for r in parsed.records)


@st.composite
def record_lists(draw):
    records = []
    for _ in range(draw(st.integers(0, 30))):
        day = draw(st.sampled_from(DAYS))
        slot = draw(st.integers(0, SLOTS_PER_DAY - 1))
        ts = datetime(day.year, day.month, day.day, *divmod(slot * BASE_WINDOW_MINUTES, 60))
        flow = draw(st.floats(0.0, 1e6))
        records.append(SensorRecord(ts, draw(st.sampled_from(["s1", "s1", "s1", "s2"])), flow))
    return records


def assemble_under_test(records, day, sensor_id):
    result = assemble_day(records, day, sensor_id)
    return result.sensor_id, result.values, result.filled_slots


@settings(max_examples=100, deadline=None)
@given(record_lists(), st.sampled_from(DAYS), st.sampled_from(("s1", "s2")))
def test_assemble_matches_slot_loop_reference(records, day, label):
    expected = outcome(reference_assemble, records, day, label)
    got = outcome(assemble_under_test, records, day, label)
    if isinstance(expected, type):
        assert got is expected
    else:
        assert got[0] == expected[0]
        assert np.array_equal(got[1], expected[1])
        assert got[2] == expected[2]
