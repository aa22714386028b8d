"""Loop-detector CSV ingestion onto a fixed 5-minute day grid.

One record layout holds detector history: :func:`write_records_csv` writes
it and :func:`parse_sensor_csv` reads it. Rows are comma-separated under
the header ``RECORD_COLUMNS`` (``timestamp,sensor_id,flow_total``), with
ISO-8601 timestamps; the ``sensor_id`` column is optional. Timestamps are
read with Python 3.11's ``datetime.fromisoformat``, which also accepts the
basic (``20190101T000500``) and week-date (``2019-W01-2T00:05``) forms that
3.10 rejects, so the kept rows depend on it; the package requires 3.11.

Row rules of :func:`parse_sensor_csv`:

- Blank lines are skipped and not counted.
- Of repeated header names the last column wins; a short row reads its
  missing cells as absent, and an absent or blank sensor as ``UNKNOWN_SENSOR``.
- A row is rejected and counted when its timestamp is absent, unparseable
  or off the day grid (below), or its flow is absent, unparseable, NaN,
  infinite or negative.
- The first row in the file of each (sensor, timestamp) key wins; later
  ones are counted as duplicates.

Every source is read as one byte buffer, a text stream's text as UTF-8, and
its bytes decide which of two paths reads a row. Both fill one set of
columns, one entry per row they accept: its line, sensor code, minute since
1970 and flow. When the header is exactly ``RECORD_COLUMNS`` and the bytes
hold no quote and no CR outside a CRLF, numpy classifies the lines at fixed
offsets. A fast row is ``YYYY-MM-DD[ T]HH:MM[:00],<cell>,<flow>``: a date
that exists, a clock on the grid, the same sensor cell as the file's first
fast row, and a flow of 1 to 15 digits, optionally followed by ``.0`` as the
writer writes a whole float (``12`` and ``12.0``, not ``12.00`` or ``12.5``),
whose float is exact. Every other line, and every line of any other file, is
read by ``csv``, ``datetime.fromisoformat`` and ``float``. One step then
takes the columns in line order, dedupes them by ``np.unique`` of (sensor,
minute) keys, which keeps each key's first row, and builds the kept
records. So the records, both counts and the shared id strings do not
depend on which path read a row.

Kept rows are :class:`SensorRecord` named tuples, each built once from its
row's columns: immutable, and they unpack like, and compare equal to, a
plain ``(timestamp, sensor_id, flow_total)``. Within one call the kept
records share one id string per sensor; object identity is not part of the
contract.

One table holds the day grid: ``SLOT_OF`` maps each slot start of
``SLOT_TIMES`` to its slot. A timestamp is on the grid exactly when it is
naive (``ts.utcoffset() is None``; a ``zoneinfo`` stamp is aware) and
``ts.time() in SLOT_OF``. The parser rejects a row off the grid, and
:func:`assemble_day`, :func:`gap_report` and the writer raise ``InvalidParams``.

Each assembled day and gap report is of one sensor, whose id (a str) the
caller gives; a record of another raises ``MixedSensors``. Missing slots
are zero-filled and tracked per day, and daily signals can be re-windowed
onto the dyadic aggregation ladder (10, 20, 40, 80, 160 minutes). A few
rules check the package's fields, each field raising its own error:
:func:`finite_row` every signal array, :func:`is_int` every integer field
(:func:`check_level` a level, :func:`check_month` a year and month),
:func:`check_day` every day and :func:`check_sensor_id` every sensor id.
Every signal built through the :class:`DaySignal` or :class:`AggregatedSignal`
constructor, as outside input is, passes all of them. The signals that
:func:`aggregate`, ``reconstruct.staircase_baseline`` and
``reconstruct.reconstruct_day`` compute from checked signals inherit their
date, level, empty sensor id and empty ``filled_slots``, and get their shape
and float dtype from the arithmetic; so they pass the finiteness check only,
which an overflow can fail.
"""

from __future__ import annotations

import csv
import io
import math
import os
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from itertools import repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    InvalidParams,
    LevelOutOfRange,
    MissingColumn,
    MixedSensors,
    NonFiniteValues,
    SlotOutOfRange,
    WrongShape,
)

BASE_WINDOW_MINUTES = 5
SLOTS_PER_DAY = 1440 // BASE_WINDOW_MINUTES  # 288
MAX_AGGREGATION_LEVEL = 5  # 288 = 2**5 * 9: the deepest level whose windows tile the day

# The day grid: each slot's naive start, its "THH:MM" text and the slot of each start
SLOT_TIMES = tuple(time(*divmod(slot * BASE_WINDOW_MINUTES, 60)) for slot in range(SLOTS_PER_DAY))
SLOT_CLOCKS = tuple("T" + start.isoformat("minutes") for start in SLOT_TIMES)
SLOT_OF = {start: slot for slot, start in enumerate(SLOT_TIMES)}
_ALL_SLOTS = frozenset(range(SLOTS_PER_DAY))


def _slot(ts: datetime) -> int | None:
    """``ts``'s slot on the day grid; None if ``ts`` is tz-aware or off the grid."""
    return SLOT_OF.get(ts.time()) if ts.utcoffset() is None else None


def is_int(value) -> bool:
    """True for a Python or numpy integer; a bool or ``np.bool_`` is no int."""
    return type(value) is int or isinstance(value, np.integer)


def check_level(level: int) -> None:
    """Raise ``LevelOutOfRange`` unless ``level`` is an int in 1..MAX_AGGREGATION_LEVEL."""
    if not (is_int(level) and 1 <= level <= MAX_AGGREGATION_LEVEL):
        raise LevelOutOfRange(f"level {level!r} is no int in 1..{MAX_AGGREGATION_LEVEL}")


def check_month(year: int, month: int) -> None:
    """Raise ``InvalidParams`` unless ``year`` is an int in ``date.min.year..date.max.year``
    and ``month`` an int in 1..12, both by :func:`is_int`."""
    if not (is_int(year) and date.min.year <= year <= date.max.year
            and is_int(month) and 1 <= month <= 12):
        raise InvalidParams(f"year {year!r} or month {month!r} is no int month")


def check_day(day: date) -> None:
    """Raise ``InvalidParams`` unless ``day`` is a ``datetime.date`` that is not a ``datetime``."""
    if not isinstance(day, date) or isinstance(day, datetime):
        raise InvalidParams(f"day {day!r} is no date")


def check_sensor_id(sensor_id: str) -> None:
    """Raise ``InvalidParams`` unless ``sensor_id`` is a ``str``."""
    if not isinstance(sensor_id, str):
        raise InvalidParams(f"sensor id {sensor_id!r} is not a str")


# dtype kinds whose values are no counts: bool, text, bytes, date, time span and complex
_NO_COUNT_KINDS = "bUSMmc"


def finite_row(values, length: int) -> np.ndarray:
    """``values`` as a float array of shape ``(length,)``; ``WrongShape`` for another shape or
    no numbers (``"abc"``, ragged lists, ints past float range) and for bool, text, bytes,
    ``datetime64``, ``timedelta64`` or complex arrays, even ones that would convert (``"1"``,
    ``True``); ``NonFiniteValues`` for NaN, inf. The refusal goes by the array's dtype: int,
    uint, float and object arrays convert, with whatever their elements hold."""
    try:
        row = np.asarray(values)
        if row.dtype.kind in _NO_COUNT_KINDS:
            raise TypeError(f"{row.dtype} values are refused")
        row = row.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise WrongShape(f"values do not convert to floats: {exc}") from exc
    if row.shape != (length,):
        raise WrongShape(f"expected shape ({length},), got {row.shape}")
    if not np.isfinite(row).all():
        raise NonFiniteValues("values must be finite")
    return row


RECORD_COLUMNS = ("timestamp", "sensor_id", "flow_total")  # the record layout's header
UNKNOWN_SENSOR = "unknown"  # the sensor of a row whose sensor cell is absent or blank

# (upper missing-slot bound, label); the first bound a month's count does not exceed wins
SEVERITY_LADDER = (
    (12, "<=1 hour"),
    (SLOTS_PER_DAY, "<=1 day"),
    (7 * SLOTS_PER_DAY, "<=1 week"),
    (math.inf, ">1 week"),
)


class SensorRecord(NamedTuple):
    """One validated detector reading on the base grid; an immutable named
    tuple that unpacks like, and compares equal to, a plain tuple."""

    timestamp: datetime
    sensor_id: str
    flow_total: float


@dataclass
class ParseResult:
    records: list[SensorRecord]
    rejected_rows: int
    duplicate_rows: int


@dataclass(frozen=True, eq=False)
class DaySignal:
    """One calendar day of flow on the 288-slot grid.

    ``date`` passes :func:`check_day`, ``sensor_id`` :func:`check_sensor_id` and
    ``values`` :func:`finite_row`; ``filled_slots`` lists the slot
    indices (ints by :func:`is_int` in 0..287, else ``SlotOutOfRange``) that
    carried no record and were set to zero. Ingested and synthetic days are
    non-negative; reconstructed days may carry negative raw values. The
    constructor checks every field; a staircase or a reconstruction, whose
    fields hold by construction, has only its values checked to be finite.
    """

    date: date
    sensor_id: str
    values: np.ndarray
    filled_slots: frozenset[int] = frozenset()

    def __post_init__(self):
        check_day(self.date)
        check_sensor_id(self.sensor_id)
        object.__setattr__(self, "values", finite_row(self.values, SLOTS_PER_DAY))
        filled = frozenset(self.filled_slots)
        object.__setattr__(self, "filled_slots", filled)
        # True and 2.0 equal slots, so the subset test alone would let them through
        if filled and not (filled <= _ALL_SLOTS and all(map(is_int, filled))):
            raise SlotOutOfRange(f"filled slots must be ints in 0..{SLOTS_PER_DAY - 1}")

    @property
    def daily_total(self) -> float:
        return float(np.add.reduce(self.values))


@dataclass(frozen=True, eq=False)
class AggregatedSignal:
    """Flow counts re-windowed to 5 * 2**level minutes; ``source_date`` passes
    :func:`check_day`, ``level`` :func:`check_level`, then ``values`` :func:`finite_row`.

    :func:`aggregate` checks only the level it is given and its sums' finiteness: the
    date and the row's shape and dtype come from a checked :class:`DaySignal`."""

    values: np.ndarray
    source_date: date
    level: int

    def __post_init__(self):
        check_day(self.source_date)
        check_level(self.level)
        object.__setattr__(self, "values", finite_row(self.values, SLOTS_PER_DAY >> self.level))


def _derived(cls, values: np.ndarray, **fields):
    """A ``cls`` signal that the library computed from signals it has already checked.

    ``values`` is a fresh float row of the class's shape and ``fields`` are its other
    fields, taken from those signals, so every rule holds by construction except the
    one that arithmetic can break: ``values`` must be finite, else ``NonFiniteValues``
    as :func:`finite_row` raises it. The test is ``np.logical_and.reduce`` of
    ``np.isfinite``, the reduction that ``ndarray.all`` wraps, called directly; a sum
    of the values would test finiteness too, but a finite row whose sum overflows would
    warn. Outside input goes through the class itself.
    """
    if not np.logical_and.reduce(np.isfinite(values)):
        raise NonFiniteValues("values must be finite")
    signal = object.__new__(cls)
    vars(signal).update(fields, values=values)
    return signal


_HEADER = ",".join(RECORD_COLUMNS).encode()  # the header line under which the fast path applies
_SHORTEST_FAST_ROW = 19  # "YYYY-MM-DDTHH:MM,,0"
_FAST_CELL_BYTES = 64  # a longer sensor cell in the first fast row leaves its rows to the row rules
_FLOW_DIGITS = 15  # a flow's digits; every int below 10**15 is an exact float
_CODE_SHIFT = 33  # key (code << 33) + minute: the minutes of years 1..9999 span less than 2**33
_EPOCH = date(1970, 1, 1).toordinal()
_NO_FAST_ROWS = (np.zeros(0, np.intp), np.zeros(0, np.int64), np.zeros(0), b"")


def _minute(ts: datetime) -> int:
    """``ts``'s minutes since 1970-01-01 00:00."""
    return (ts.toordinal() - _EPOCH) * 1440 + ts.hour * 60 + ts.minute


def _read(source) -> bytes:
    """The one buffer of every source: the bytes of a path or byte stream, or the text
    of a stream whose ``read()`` returns ``str`` as UTF-8 (``UnicodeEncodeError`` for a
    lone surrogate). A stream is read to its end and left open. Bytes that are no UTF-8
    raise ``UnicodeDecodeError``, as a text read does."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            data = fh.read()
    else:
        data = source.read()
    if isinstance(data, str):
        return data.encode("utf-8")
    if not data.isascii():
        data.decode("utf-8")
    return data


def _body_lines(data: bytes):
    """The buffer of ``data`` and the start and end offsets of its body lines, line
    ends excluded, when the fast path applies, else None: a ``RECORD_COLUMNS`` header,
    no quote and no CR outside a CRLF, so that each line is one row to ``csv``."""
    buf = np.frombuffer(data, np.uint8)
    breaks = np.flatnonzero(buf == 10)
    if (not len(breaks) or data[: breaks[0]].removesuffix(b"\r") != _HEADER or b'"' in data
            or b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    starts = breaks + 1
    ends = np.append(breaks[1:], len(buf))
    if starts[-1] == len(buf):  # the last LF ends the file
        starts, ends = starts[:-1], ends[:-1]
    return buf, starts, ends - (buf[ends - 1] == 13)


def _number(buf: np.ndarray, at: np.ndarray, count: int):
    """The ``count``-digit numbers at offsets ``at`` as int16, and which are all digits."""
    value = np.zeros(len(at), np.int16)
    ok = np.ones(len(at), bool)
    for k in range(count):
        digit = buf[at + k] - np.uint8(48)  # a byte below "0" wraps past 9
        ok &= digit < 10
        value = value * 10 + digit
    return value, ok


def _fast_rows(data: bytes, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The body lines that hold a fast row, with their minutes since 1970, their flows
    and the sensor cell they share, classified at fixed offsets by 1-D gathers.

    A fast row is ``YYYY-MM-DD[ T]HH:MM[:00],<cell>,<flow>``: a date of years
    1..9999 that exists, a time on the 5-minute grid, the sensor cell of the first
    such row (at most ``_FAST_CELL_BYTES`` bytes) and a flow of 1 to
    ``_FLOW_DIGITS`` digits, optionally followed by ``.0``: one such tail is dropped
    before the digit checks, so ``24.0`` is fast and reads as 24; ``.0`` and ``24.00``
    are not fast.
    """
    line = np.flatnonzero(ends - starts >= _SHORTEST_FAST_ROW)
    at, end = starts[line], ends[line]
    year, ok = _number(buf, at, 4)
    month, month_ok = _number(buf, at + 5, 2)
    day, day_ok = _number(buf, at + 8, 2)
    hour, hour_ok = _number(buf, at + 11, 2)
    minute, minute_ok = _number(buf, at + 14, 2)
    sep = buf[at + 10]
    ok &= month_ok & day_ok & hour_ok & minute_ok & ((sep == 84) | (sep == 32))  # "T", " "
    ok &= (buf[at + 4] == 45) & (buf[at + 7] == 45) & (buf[at + 13] == 58)  # "-", "-", ":"
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (hour < 24)
    ok &= (minute < 60) & (minute % BASE_WINDOW_MINUTES == 0)
    seconds = (buf[at + 16] == 58) & (buf[at + 17] == 48) & (buf[at + 18] == 48)  # ":00"
    cell_at = at + np.where(seconds, 20, 17)
    ok &= end - cell_at >= 2  # room for an empty cell, a comma and a digit
    del sep, month_ok, day_ok, hour_ok, minute_ok, seconds, at
    keep = np.flatnonzero(ok)
    line, end, cell_at = line[keep], end[keep], cell_at[keep]
    minute = hour[keep] * np.int16(60) + minute[keep]
    month_start = year[keep] * np.int32(12) + month[keep] - (1970 * 12 + 1)  # months since 1970
    month_start = month_start.astype("datetime64[M]")
    day = day[keep]
    del year, month, hour, keep
    days = month_start.astype("datetime64[D]").astype(np.int64)
    month_days = (month_start + 1).astype("datetime64[D]").astype(np.int64) - days
    ok = (buf[cell_at - 1] == 44) & (day <= month_days)
    minutes = (days + day - 1) * 1440 + minute
    del month_start, month_days, days, day, minute
    for a, b in zip(cell_at[ok], end[ok]):  # numpy scalars, taken until the first fits
        cell, comma, flow = data[a:b].partition(b",")
        flow = flow.removesuffix(b".0")
        if comma and flow.isdigit() and len(flow) <= _FLOW_DIGITS and len(cell) <= _FAST_CELL_BYTES:
            break
    else:
        return _NO_FAST_ROWS
    flow_at = cell_at + (len(cell) + 1)
    end = end - 2 * ((buf[end - 2] == 46) & (buf[end - 1] == 48))  # drop one ".0" tail
    ok &= (end - flow_at >= 1) & (end - flow_at <= _FLOW_DIGITS)
    keep = np.flatnonzero(ok)
    line, end, cell_at, flow_at = line[keep], end[keep], cell_at[keep], flow_at[keep]
    minutes = minutes[keep]
    del keep
    ok = buf[flow_at - 1] == 44
    for j, byte in enumerate(cell):
        ok &= buf[cell_at + j] == byte
    # the flow's digits, read up to each row's end; an int below 10**15 is an exact float
    flow = np.zeros(len(line), np.int64)
    for k in range(int((end - flow_at).max(initial=0))):
        inside = flow_at + k < end
        digit = buf[np.where(inside, flow_at + k, flow_at)] - np.uint8(48)
        ok &= digit < 10
        flow = np.where(inside, flow * 10 + digit, flow)
    return line[ok], minutes[ok], flow[ok].astype(float), cell


def _row_values(row: list[str], columns: tuple[int, int | None, int, int]):
    """The row rules: ``(timestamp, sensor, flow)`` of a non-blank ``csv`` row under
    ``columns`` (timestamp, sensor or None, flow, header width), or None to reject it."""
    ts_col, sensor_col, flow_col, width = columns
    if len(row) < width:
        row += [None] * (width - len(row))  # short row: cells absent
    text, flow = row[ts_col], row[flow_col]
    if not text or flow is None:
        return None
    try:
        ts = datetime.fromisoformat(text.strip())
        flow = float(flow)
    except ValueError:
        return None
    # tz-aware or off the day grid; NaN, negative or infinite flow
    if _slot(ts) is None or not 0 <= flow < math.inf:
        return None
    sensor = (row[sensor_col] or "").strip() if sensor_col is not None else ""
    return ts, sensor or UNKNOWN_SENSOR, flow


def _columns(header: list[str] | None) -> tuple[int, int | None, int, int]:
    """The row rules' columns of a ``csv`` header; ``EmptyInput`` for none and
    ``MissingColumn`` for a header without the timestamp or flow column."""
    if header is None:
        raise EmptyInput("input CSV has no header row")
    column = {name: i for i, name in enumerate(header)}  # last repeat wins
    ts_name, sensor_name, flow_name = RECORD_COLUMNS
    for required in (ts_name, flow_name):
        if required not in column:
            raise MissingColumn(f"required column {required!r} not in header {sorted(column)}")
    return column[ts_name], column.get(sensor_name), column[flow_name], len(header)


def parse_sensor_csv(source) -> ParseResult:
    r"""Parse a detector CSV in the record layout into validated records.

    ``source`` may be a path, an open text stream or an open byte stream; a
    stream is read to its end and left open. Returns the kept records in file
    order, with counts of rejected rows and of duplicate (sensor, timestamp)
    rows, of which the first in the file is kept.

    The source is read once, into one byte buffer, a text stream's text as
    UTF-8; so text parses exactly as its bytes do, and a lone CR ends a row.
    The fast rows (module docstring) are read from the buffer at fixed
    offsets, every other row by the row rules, into one set of columns; so
    the records, both counts and the one id string per sensor are the same
    whichever path reads a row. Below, the first row is a fast row, its twin
    with seconds is read by the row rules, and the off-grid row is rejected:

    >>> parsed = parse_sensor_csv(io.BytesIO(b"timestamp,sensor_id,flow_total\n"
    ...     b"2012-03-13T08:05,s1,5\n2012-03-13 08:05:00.000,s1,6\n2012-03-13T08:07,s1,7\n"))
    >>> [tuple(rec) for rec in parsed.records], parsed.rejected_rows, parsed.duplicate_rows
    ([(datetime.datetime(2012, 3, 13, 8, 5), 's1', 5.0)], 1, 1)

    Raises
    ------
    EmptyInput
        If the stream holds no header row.
    MissingColumn
        If a required column is absent from the header.
    UnicodeDecodeError
        If the bytes of a path or byte stream are no UTF-8.
    UnicodeEncodeError
        If a text stream's text holds a lone surrogate, which UTF-8 cannot encode.
    """
    data = _read(source)
    body = _body_lines(data)
    if body is None:
        reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        columns = _columns(next(reader, None))
        rows = enumerate(reader)
        lines, minutes, flows, cell = _NO_FAST_ROWS
    else:
        columns = _columns(list(RECORD_COLUMNS))
        buf, starts, ends = body
        lines, minutes, flows, cell = _fast_rows(data, buf, starts, ends)
        others = np.ones(len(starts), bool)
        others[lines] = False
        others = np.flatnonzero(others)
        texts = [data[a:b].decode("utf-8")
                 for a, b in zip(starts[others].tolist(), ends[others].tolist())]
        rows = zip(others.tolist(), csv.reader(texts))
        del data, buf, body, starts, ends, others  # before the records are built
    fast_id = cell.decode("utf-8").strip() or UNKNOWN_SENSOR
    ids = {fast_id: 0}  # id -> its code in the dedupe key; the keys are the shared id strings
    row_columns = row_lines, row_codes, row_minutes, row_flows = [], [], [], []
    rejected = 0
    for line, row in rows:
        if not row:
            continue  # blank line
        values = _row_values(row, columns)
        if values is None:
            rejected += 1
            continue
        ts, sensor, flow = values
        row_lines.append(line)
        row_codes.append(ids.setdefault(sensor, len(ids)))
        row_minutes.append(_minute(ts))
        row_flows.append(flow)
    # one set of columns for the rows of both paths; the fast rows have code 0
    lines, codes, minutes, flows = (
        np.concatenate((fast, np.array(rule, fast.dtype)))
        for fast, rule in zip((lines, np.zeros_like(minutes), minutes, flows), row_columns))
    order = np.argsort(lines)
    # first wins: of each (sensor, minute) key, the row that comes first in the file
    _, first = np.unique((codes[order] << _CODE_SHIFT) + minutes[order], return_index=True)
    kept = order[np.sort(first)]
    duplicates = len(order) - len(kept)
    del row_columns, row_lines, row_codes, row_minutes, row_flows, lines, order, first
    stamps = minutes[kept].astype("datetime64[m]").tolist()
    records = list(map(tuple.__new__, repeat(SensorRecord),
                       zip(stamps, map(list(ids).__getitem__, codes[kept].tolist()),
                           flows[kept].tolist())))
    return ParseResult(records, rejected, duplicates)


def _check_sensor(records: list[SensorRecord], sensor_id: str) -> None:
    """:func:`check_sensor_id`, then ``MixedSensors`` for a record of another sensor."""
    check_sensor_id(sensor_id)
    if not {sensor_id}.issuperset(map(itemgetter(1), records)):
        others = set(map(itemgetter(1), records)) - {sensor_id}
        raise MixedSensors(f"records from {sorted(others)} labelled {sensor_id!r}")


def assemble_day(records: Iterable[SensorRecord], day: date, sensor_id: str) -> DaySignal:
    """Place sensor ``sensor_id``'s records of ``day`` on the 288-slot grid.

    Records dated outside ``day`` are ignored; of records sharing a slot the
    first is placed. Slots without a record are set to zero and reported in
    ``filled_slots``. Raises ``InvalidParams`` for a ``day`` that is no date
    (:func:`check_day`) or a non-str ``sensor_id``, ``MixedSensors`` for a
    record of another sensor, then ``InvalidParams`` for a record whose
    timestamp is no ``datetime``, or one dated ``day`` whose timestamp is
    tz-aware or off the grid.
    """
    check_day(day)
    records = list(records)
    _check_sensor(records, sensor_id)
    placed: dict[int, float] = {}
    try:
        for ts, _, flow in records:
            if ts.date() == day:
                if (slot := _slot(ts)) is None:
                    raise InvalidParams(f"timestamp {ts!r} is tz-aware or off the day grid")
                placed.setdefault(slot, flow)
    except (AttributeError, TypeError) as exc:
        raise InvalidParams(f"a record's timestamp is no datetime: {exc!r}") from exc
    values = np.zeros(SLOTS_PER_DAY)
    values[list(placed)] = list(placed.values())
    return DaySignal(day, sensor_id, values, _ALL_SLOTS.difference(placed))


def day_to_records(day: DaySignal) -> list[SensorRecord]:
    """Flatten a day back to records, omitting zero-filled slots.

    Each record is stamped with its slot's ``SLOT_TIMES`` start on the day's
    date and carries its flow as a Python float. Re-assembling the result
    reproduces the day exactly, including its ``filled_slots`` set.
    """
    filled, sensor, flows = day.filled_slots, day.sensor_id, day.values.tolist()
    return [
        SensorRecord(datetime.combine(day.date, start), sensor, flows[slot])
        for slot, start in enumerate(SLOT_TIMES)
        if slot not in filled
    ]


# Each slot's window at levels 1..MAX_AGGREGATION_LEVEL, _WINDOW_OF[level - 1] == slot >> level:
# the one gather that spreads a per-window value over its 2**level slots.
_WINDOW_OF = tuple(np.arange(SLOTS_PER_DAY) >> k for k in range(1, MAX_AGGREGATION_LEVEL + 1))


def aggregate(day: DaySignal, level: int) -> AggregatedSignal:
    """Sum consecutive blocks of 2**level slots into wider count windows.

    Level n yields windows of 5 * 2**n minutes (10, 20, 40, 80, 160) and
    preserves the daily total exactly for integer-valued inputs.
    """
    check_level(level)
    sums = np.add.reduce(day.values.reshape(-1, 1 << level), axis=1)
    return _derived(AggregatedSignal, sums, source_date=day.date, level=level)


@dataclass(frozen=True)
class MonthGap:
    """One month's missing-slot count; ``InvalidParams`` unless the year and
    month pass :func:`check_month` and the count is an int (:func:`is_int`) >= 0."""

    year: int
    month: int
    missing_slots: int

    def __post_init__(self):
        check_month(self.year, self.month)
        if not (is_int(n := self.missing_slots) and n >= 0):
            raise InvalidParams(f"missing_slots must be a non-negative int, got {n!r}")

    @property
    def severity(self) -> str:
        """The first ``SEVERITY_LADDER`` label whose bound ``missing_slots`` does not exceed."""
        return next(label for bound, label in SEVERITY_LADDER if self.missing_slots <= bound)


@dataclass(frozen=True)
class GapReport:
    """Per-month missing-slot counts for one sensor over a date span.

    ``sensor_id`` passes :func:`check_sensor_id` and ``months`` is kept as a tuple
    whose every entry is a :class:`MonthGap`; otherwise ``InvalidParams``.
    """

    sensor_id: str
    months: tuple[MonthGap, ...]

    def __post_init__(self):
        check_sensor_id(self.sensor_id)
        try:
            months = tuple(self.months)
        except TypeError as exc:
            raise InvalidParams(f"months {self.months!r} are no sequence") from exc
        if not all(isinstance(m, MonthGap) for m in months):
            raise InvalidParams(f"months {months!r} hold an entry that is no MonthGap")
        object.__setattr__(self, "months", months)

    def write_csv(self, path) -> None:
        """Write one row per month."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sensor_id", "year", "month", "missing_slots", "severity"])
            for m in self.months:
                writer.writerow([self.sensor_id, m.year, m.month, m.missing_slots, m.severity])


def gap_report(
    records: Iterable[SensorRecord], start: date, end: date, sensor_id: str
) -> GapReport:
    """Count absent grid slots per month across [start, end] for sensor ``sensor_id``.

    A month's missing slots are the sum, over its days in the span, of
    ``SLOTS_PER_DAY`` less the distinct timestamps dated that day (its
    ``bisect`` range of one sorted list); months come in calendar order,
    each with its ``SEVERITY_LADDER`` label. Checks ``start`` and ``end``
    (:func:`check_day`) and the sensor id as :func:`assemble_day` does, then
    raises ``InvalidParams`` if ``end`` precedes ``start`` or any timestamp,
    in the span or not, is no ``datetime`` or off the day grid, so each
    distinct timestamp is one present slot, at most 288 a day.
    """
    check_day(start)
    check_day(end)
    records = list(records)
    _check_sensor(records, sensor_id)
    if end < start:
        raise InvalidParams("span end precedes start")
    stamps = [rec.timestamp for rec in records]
    try:
        if None in map(_slot, stamps):
            raise InvalidParams("tz-aware or off-grid timestamps cannot be placed on the day grid")
    except (AttributeError, TypeError) as exc:
        raise InvalidParams(f"a record's timestamp is no datetime: {exc!r}") from exc
    stamps.sort()
    day_of = datetime.date
    missing = Counter()  # (year, month) -> missing slots, months in calendar order
    for i in range((end - start).days + 1):
        day = start + timedelta(days=i)
        lo = bisect_left(stamps, day, key=day_of)
        hi = bisect_right(stamps, day, lo, key=day_of)
        missing[day.year, day.month] += SLOTS_PER_DAY - len(set(stamps[lo:hi]))
    return GapReport(sensor_id, tuple(MonthGap(*month, n) for month, n in missing.items()))


class _Memo(dict):
    """Key -> ``text_of(key)``, computed once per key."""

    def __init__(self, text_of):
        super().__init__()
        self.text_of = text_of

    def __missing__(self, key):
        text = self[key] = self.text_of(key)
        return text


def _csv_cell(text: str) -> str:
    """The cell ``csv.writer`` writes for ``text`` inside a row, after :func:`check_sensor_id`."""
    check_sensor_id(text)
    buf = io.StringIO()
    csv.writer(buf).writerow(("", text, ""))
    return buf.getvalue()[1:-3]  # drop the empty neighbours and the CRLF


def write_records_csv(records: Sequence[SensorRecord], path) -> None:
    """Write records in the record layout that :func:`parse_sensor_csv` reads.

    A timestamp is written as its date's ``isoformat()`` (cached per call)
    and its slot's ``SLOT_CLOCKS`` entry, a flow with ``str``, the shortest
    exact text of a Python or numpy float64, so a parse round-trip is exact.
    The bytes are what ``csv.writer`` writes: CRLF line ends and minimal
    quoting, which only a sensor id can need. A record the parser would
    reject (tz-aware or off the grid, or a flow whose text is no number in
    ``[0, inf)``) raises ``InvalidParams`` in the one pass, as does one whose
    timestamp is no ``datetime``, whose sensor id is no ``str`` (checked once per
    distinct id) or that is no three-field row; the file is removed.
    """
    sensor_cells = _Memo(_csv_cell)
    day_texts = _Memo(date.isoformat)

    def lines():
        for ts, sensor, flow in records:
            text, slot = str(flow), _slot(ts)
            if slot is None or not 0 <= float(text) < math.inf:  # float: ValueError for "True"
                raise ValueError(f"timestamp {ts!r} or flow {flow!r}")
            yield f"{day_texts[ts.date()]}{SLOT_CLOCKS[slot]},{sensor_cells[sensor]},{text}\r\n"

    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(",".join(RECORD_COLUMNS) + "\r\n")
            fh.writelines(lines())
    except (ValueError, TypeError, AttributeError) as exc:
        os.remove(path)
        raise InvalidParams(f"a record the parser would reject: {exc!r}") from exc
