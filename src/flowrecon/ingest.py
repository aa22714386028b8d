"""Loop-detector CSV ingestion onto a fixed 5-minute day grid.

Rows with unparseable timestamps, off-grid timestamps or invalid flows are
rejected and counted; repeated (sensor, timestamp) keys keep the first
occurrence. Missing slots are zero-filled and tracked per day, and daily
signals can be re-windowed onto the dyadic aggregation ladder
(10, 20, 40, 80, 160 minutes).
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    LevelMismatch,
    LevelOutOfRange,
    MissingColumn,
    MixedSensors,
    NonFiniteValues,
    SlotOutOfRange,
    WrongShape,
)
from .haar import max_levels

BASE_WINDOW_MINUTES = 5
SLOTS_PER_DAY = 1440 // BASE_WINDOW_MINUTES  # 288
MAX_AGGREGATION_LEVEL = max_levels(SLOTS_PER_DAY)  # 5

# (upper missing-slot bound, label); anything above the last bound is ">1 week"
SEVERITY_LADDER = (
    (12, "<=1 hour"),
    (SLOTS_PER_DAY, "<=1 day"),
    (7 * SLOTS_PER_DAY, "<=1 week"),
)


@dataclass(frozen=True)
class SensorRecord:
    """One validated detector reading on the base grid."""

    timestamp: datetime
    sensor_id: str
    flow_total: float
    class_flows: tuple[tuple[str, float], ...] = ()
    class_speeds: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for detector CSVs; layouts differ between providers."""

    timestamp: str = "timestamp"
    flow_total: str = "flow_total"
    sensor_id: str | None = "sensor_id"
    fallback_sensor_id: str = "unknown"
    class_flow_columns: tuple[tuple[str, str], ...] = ()
    class_speed_columns: tuple[tuple[str, str], ...] = ()
    delimiter: str = ","
    timestamp_format: str | None = None  # None: ISO-8601 at minute resolution


@dataclass
class ParseResult:
    records: list[SensorRecord]
    rejected_rows: int
    duplicate_rows: int


@dataclass(frozen=True, eq=False)
class DaySignal:
    """One calendar day of flow on the 288-slot grid.

    ``filled_slots`` lists the indices that carried no record and were set
    to zero. Ingested and synthetic days are non-negative; reconstructed
    days may carry negative raw values (see :mod:`flowrecon.reconstruct`).
    """

    date: date
    sensor_id: str
    values: np.ndarray
    filled_slots: frozenset[int] = frozenset()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (SLOTS_PER_DAY,):
            raise WrongShape(
                f"expected {SLOTS_PER_DAY} slots, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValues("day values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "filled_slots", frozenset(self.filled_slots))
        if any(not 0 <= s < SLOTS_PER_DAY for s in self.filled_slots):
            raise SlotOutOfRange("filled slot index out of range")

    @property
    def daily_total(self) -> float:
        return float(self.values.sum())


@dataclass(frozen=True, eq=False)
class AggregatedSignal:
    """Flow counts re-windowed to 5 * 2**level minutes."""

    window_minutes: int
    values: np.ndarray
    source_date: date
    level: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if not 1 <= self.level <= MAX_AGGREGATION_LEVEL:
            raise LevelOutOfRange(f"level {self.level} outside 1..{MAX_AGGREGATION_LEVEL}")
        if self.window_minutes != BASE_WINDOW_MINUTES << self.level:
            raise LevelMismatch(
                f"window {self.window_minutes} min does not match level {self.level}"
            )
        if vals.shape != (SLOTS_PER_DAY >> self.level,):
            raise WrongShape(
                f"expected {SLOTS_PER_DAY >> self.level} windows, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValues("aggregated values must be finite")


def _open_text(source):
    """Return (stream, owns_handle) for a path, text stream or byte stream."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if isinstance(source, io.TextIOBase) or hasattr(source, "encoding"):
        return source, False
    # byte stream: decode on the fly, caller keeps ownership of the buffer
    return io.TextIOWrapper(source, encoding="utf-8", newline=""), False


def _parse_timestamp(text, fmt):
    if not text:
        return None
    try:
        ts = datetime.strptime(text.strip(), fmt) if fmt else datetime.fromisoformat(text.strip())
    except ValueError:
        return None
    if ts.tzinfo is not None:
        return None
    if ts.second or ts.microsecond or ts.minute % BASE_WINDOW_MINUTES:
        return None  # off the base grid
    return ts


def _parse_flow(text):
    if text is None:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    if not np.isfinite(value) or value < 0:
        return None
    return value


def _optional_columns(row, columns):
    out = []
    for label, column in columns:
        value = _parse_flow(row.get(column))
        if value is not None:
            out.append((label, value))
    return tuple(out)


def parse_sensor_csv(source, schema: CsvSchema = CsvSchema()) -> ParseResult:
    """Parse a detector CSV into validated records.

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
        reader = csv.DictReader(stream, delimiter=schema.delimiter)
        if reader.fieldnames is None:
            raise EmptyInput("input CSV has no header row")
        header = set(reader.fieldnames)
        for required in (schema.timestamp, schema.flow_total):
            if required not in header:
                raise MissingColumn(
                    f"required column {required!r} not in header {sorted(header)}"
                )
        sensor_col = schema.sensor_id if schema.sensor_id in header else None

        records: list[SensorRecord] = []
        seen: set[tuple[str, datetime]] = set()
        rejected = duplicates = 0
        for row in reader:
            ts = _parse_timestamp(row.get(schema.timestamp), schema.timestamp_format)
            flow = _parse_flow(row.get(schema.flow_total))
            if ts is None or flow is None:
                rejected += 1
                continue
            sensor = (row.get(sensor_col) or "").strip() if sensor_col else ""
            if not sensor:
                sensor = schema.fallback_sensor_id
            key = (sensor, ts)
            if key in seen:
                duplicates += 1  # erroneously repeated reading: keep the first
                continue
            seen.add(key)
            records.append(
                SensorRecord(
                    timestamp=ts,
                    sensor_id=sensor,
                    flow_total=flow,
                    class_flows=_optional_columns(row, schema.class_flow_columns),
                    class_speeds=_optional_columns(row, schema.class_speed_columns),
                )
            )
        return ParseResult(records, rejected, duplicates)
    finally:
        if owns:
            stream.close()
        elif isinstance(stream, io.TextIOWrapper) and stream is not source:
            stream.detach()


def _slot_of(ts: datetime) -> int:
    return (ts.hour * 60 + ts.minute) // BASE_WINDOW_MINUTES


def slot_start(day: date, slot: int) -> datetime:
    """Timestamp at which the given 5-minute slot begins."""
    return datetime.combine(day, time()) + timedelta(minutes=slot * BASE_WINDOW_MINUTES)


def assemble_day(
    records: Iterable[SensorRecord], day: date, sensor_id: str | None = None
) -> DaySignal:
    """Place one day's records on the 288-slot grid, zero-filling gaps.

    Records dated outside ``day`` are ignored. Slots without a record are
    set to zero and reported in ``filled_slots``.
    """
    records = list(records)
    sensors = {r.sensor_id for r in records}
    if len(sensors) > 1:
        raise MixedSensors(f"records span sensors {sorted(sensors)}")
    if sensor_id is None:
        sensor_id = sensors.pop() if sensors else "unknown"

    values = np.zeros(SLOTS_PER_DAY)
    covered: set[int] = set()
    for rec in records:
        if rec.timestamp.date() != day:
            continue
        slot = _slot_of(rec.timestamp)
        if slot in covered:
            continue
        covered.add(slot)
        values[slot] = rec.flow_total
    filled = frozenset(range(SLOTS_PER_DAY)) - covered
    return DaySignal(day, sensor_id, values, frozenset(filled))


def day_to_records(day: DaySignal) -> list[SensorRecord]:
    """Flatten a day back to records, omitting zero-filled slots.

    Re-assembling the result reproduces the day exactly, including its
    ``filled_slots`` set.
    """
    return [
        SensorRecord(slot_start(day.date, slot), day.sensor_id, float(day.values[slot]))
        for slot in range(SLOTS_PER_DAY)
        if slot not in day.filled_slots
    ]


def aggregate(day: DaySignal, level: int) -> AggregatedSignal:
    """Sum consecutive blocks of 2**level slots into wider count windows.

    Level n yields windows of 5 * 2**n minutes (10, 20, 40, 80, 160) and
    preserves the daily total exactly for integer-valued inputs.
    """
    if not 1 <= level <= MAX_AGGREGATION_LEVEL:
        raise LevelOutOfRange(
            f"level {level} outside 1..{MAX_AGGREGATION_LEVEL}"
        )
    block = 1 << level
    sums = day.values.reshape(-1, block).sum(axis=1)
    return AggregatedSignal(BASE_WINDOW_MINUTES * block, sums, day.date, level)


@dataclass(frozen=True)
class MonthGap:
    year: int
    month: int
    missing_slots: int
    severity: str


@dataclass(frozen=True)
class GapReport:
    """Per-month missing-slot counts for one sensor over a date span."""

    sensor_id: str
    months: tuple[MonthGap, ...]

    def to_dict(self) -> dict:
        return {
            "sensor_id": self.sensor_id,
            "months": [
                {
                    "year": m.year,
                    "month": m.month,
                    "missing_slots": m.missing_slots,
                    "severity": m.severity,
                }
                for m in self.months
            ],
        }

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sensor_id", "year", "month", "missing_slots", "severity"])
            for m in self.months:
                writer.writerow([self.sensor_id, m.year, m.month, m.missing_slots, m.severity])


def classify_gap(missing_slots: int) -> str:
    """Severity bucket for a month's missing-slot count."""
    for bound, label in SEVERITY_LADDER:
        if missing_slots <= bound:
            return label
    return ">1 week"


def _month_range(start: date, end: date):
    year, month = start.year, start.month
    while (year, month) <= (end.year, end.month):
        yield year, month
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)


def _days_in_month(year: int, month: int) -> int:
    nxt = date(year + 1, 1, 1) if month == 12 else date(year, month + 1, 1)
    return (nxt - date(year, month, 1)).days


def gap_report(
    records: Iterable[SensorRecord],
    start: date,
    end: date,
    sensor_id: str | None = None,
) -> GapReport:
    """Count absent grid slots per month across [start, end].

    Months are classified by how much data is missing: up to one hour
    (12 slots), one day (288), one week (2016), or more.
    """
    records = list(records)
    sensors = {r.sensor_id for r in records}
    if len(sensors) > 1:
        raise MixedSensors(f"records span sensors {sorted(sensors)}")
    if sensor_id is None:
        sensor_id = sensors.pop() if sensors else "unknown"
    if end < start:
        raise ValueError("span end precedes start")

    present: dict[tuple[int, int], set[datetime]] = {}
    for rec in records:
        d = rec.timestamp.date()
        if start <= d <= end:
            present.setdefault((d.year, d.month), set()).add(rec.timestamp)

    months = []
    for year, month in _month_range(start, end):
        first = max(start, date(year, month, 1))
        last = min(end, date(year, month, _days_in_month(year, month)))
        expected = ((last - first).days + 1) * SLOTS_PER_DAY
        missing = max(0, expected - len(present.get((year, month), ())))
        months.append(MonthGap(year, month, missing, classify_gap(missing)))
    return GapReport(sensor_id, tuple(months))


def write_records_csv(records: Sequence[SensorRecord], path) -> None:
    """Write records in the default schema (timestamp, sensor_id, flow_total).

    Flows are written at full precision so a parse round-trip is exact.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "sensor_id", "flow_total"])
        for rec in records:
            writer.writerow(
                [rec.timestamp.isoformat(timespec="minutes"), rec.sensor_id, repr(rec.flow_total)]
            )
