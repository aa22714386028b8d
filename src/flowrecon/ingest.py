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
- The first row of each (sensor, timestamp) key wins; later ones are
  counted as duplicates.

Kept rows are :class:`SensorRecord` named tuples: immutable, and they unpack
like, and compare equal to, a plain ``(timestamp, sensor_id, flow_total)``.
Within one call the kept records share one id string per sensor, and the
first-wins check hashes each timestamp against its own sensor's set, so a
row allocates no key of its own; object identity is not part of the
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
    non-negative; reconstructed days may carry negative raw values.
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
        return float(self.values.sum())


@dataclass(frozen=True, eq=False)
class AggregatedSignal:
    """Flow counts re-windowed to 5 * 2**level minutes; ``source_date`` passes
    :func:`check_day`, ``level`` :func:`check_level`, then ``values`` :func:`finite_row`."""

    values: np.ndarray
    source_date: date
    level: int

    def __post_init__(self):
        check_day(self.source_date)
        check_level(self.level)
        object.__setattr__(self, "values", finite_row(self.values, SLOTS_PER_DAY >> self.level))


def _open_text(source):
    """Return (stream, owns_handle) for a path, text stream or byte stream."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if isinstance(source, io.TextIOBase) or hasattr(source, "encoding"):
        return source, False
    # byte stream: decode on the fly, caller keeps ownership of the buffer
    return io.TextIOWrapper(source, encoding="utf-8", newline=""), False


def parse_sensor_csv(source) -> ParseResult:
    """Parse a detector CSV in the record layout into validated records.

    ``source`` may be a path, an open text stream or an open byte stream.
    Returns the kept records together with counts of rejected rows and of
    duplicate (sensor, timestamp) rows, of which only the first is kept.

    Raises
    ------
    EmptyInput
        If the stream holds no header row.
    MissingColumn
        If a required column is absent from the header.
    """
    stream, owns = _open_text(source)
    try:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise EmptyInput("input CSV has no header row")
        column = {name: i for i, name in enumerate(header)}  # last repeat wins
        ts_name, sensor_name, flow_name = RECORD_COLUMNS
        for required in (ts_name, flow_name):
            if required not in column:
                raise MissingColumn(
                    f"required column {required!r} not in header {sorted(column)}"
                )
        ts_col, flow_col = column[ts_name], column[flow_name]
        sensor_col = column.get(sensor_name)
        width = len(header)
        fromisoformat = datetime.fromisoformat  # bound once, called per row

        records: list[SensorRecord] = []
        append = records.append
        sensors: dict[str, tuple[str, set[datetime]]] = {}  # id -> (shared id, its timestamps)
        rejected = duplicates = 0
        for row in reader:
            if not row:
                continue  # blank line
            if len(row) < width:
                row += [None] * (width - len(row))  # short row: cells absent
            text, flow = row[ts_col], row[flow_col]
            if not text or flow is None:
                rejected += 1
                continue
            try:
                ts = fromisoformat(text.strip())
                flow = float(flow)
            except ValueError:
                rejected += 1
                continue
            # tz-aware or off the day grid; NaN, negative or infinite flow
            if _slot(ts) is None or not 0 <= flow < math.inf:
                rejected += 1
                continue
            sensor = (row[sensor_col] or "").strip() if sensor_col is not None else ""
            if not sensor:
                sensor = UNKNOWN_SENSOR
            entry = sensors.get(sensor)
            if entry is None:
                entry = sensors[sensor] = (sensor, set())
            sensor, seen = entry
            if ts in seen:
                duplicates += 1  # erroneously repeated reading: keep the first
                continue
            seen.add(ts)
            append(SensorRecord(ts, sensor, flow))
        return ParseResult(records, rejected, duplicates)
    finally:
        if owns:
            stream.close()
        elif isinstance(stream, io.TextIOWrapper) and stream is not source:
            stream.detach()


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
    record of another sensor, then ``InvalidParams`` for a record dated
    ``day`` whose timestamp is tz-aware or off the grid.
    """
    check_day(day)
    records = list(records)
    _check_sensor(records, sensor_id)
    placed: dict[int, float] = {}
    for ts, _, flow in records:
        if ts.date() == day:
            if (slot := _slot(ts)) is None:
                raise InvalidParams(f"timestamp {ts!r} is tz-aware or off the day grid")
            placed.setdefault(slot, flow)
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


def aggregate(day: DaySignal, level: int) -> AggregatedSignal:
    """Sum consecutive blocks of 2**level slots into wider count windows.

    Level n yields windows of 5 * 2**n minutes (10, 20, 40, 80, 160) and
    preserves the daily total exactly for integer-valued inputs.
    """
    check_level(level)
    sums = day.values.reshape(-1, 1 << level).sum(axis=1)
    return AggregatedSignal(sums, day.date, level)


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
    """Per-month missing-slot counts for one sensor over a date span."""

    sensor_id: str
    months: tuple[MonthGap, ...]

    def write_csv(self, path) -> None:
        """Write one row per month; a month that is no ``MonthGap`` raises
        ``InvalidParams`` and the file is removed."""
        fh = open(path, "w", encoding="utf-8", newline="")
        try:
            with fh:
                writer = csv.writer(fh)
                writer.writerow(["sensor_id", "year", "month", "missing_slots", "severity"])
                for m in self.months:
                    writer.writerow([self.sensor_id, m.year, m.month, m.missing_slots, m.severity])
        except (AttributeError, TypeError, ValueError) as exc:
            os.remove(path)
            raise InvalidParams(f"a month that is no MonthGap: {exc!r}") from exc


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
    in the span or not, is off the day grid, so each distinct timestamp is
    one present slot, at most 288 a day.
    """
    check_day(start)
    check_day(end)
    records = list(records)
    _check_sensor(records, sensor_id)
    if end < start:
        raise InvalidParams("span end precedes start")
    stamps = [rec.timestamp for rec in records]
    if None in map(_slot, stamps):
        raise InvalidParams("tz-aware or off-grid timestamps cannot be placed on the day grid")
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
    """The cell ``csv.writer`` writes for ``text`` inside a row."""
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
    timestamp is no ``datetime`` or that is no three-field row; the file is removed.
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
