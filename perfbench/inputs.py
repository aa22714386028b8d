"""Deterministic benchmark inputs, generated from a seed before any clock starts.

Every workload's input is a function of ``(workload, seed, months)`` only.
Clean days come from :mod:`flowrecon.synth`; detector defects are then
injected from their own seeded stream, so the same seed always yields the
same bytes. The generator writes the inputs into a work directory and
returns the sha256 of every file, so two runs can prove they measured the
same data.

``year-csv`` writes one sensor-year as twelve monthly detector CSVs. ``recon-sweep``
and ``export`` write ``.npy`` day grids that the measured process turns
into day signals before it starts any clock.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from flowrecon.ingest import SLOTS_PER_DAY
from flowrecon.matrix import TYPICAL_WEEKDAYS
from flowrecon.synth import DEFAULT_PARAMS, generate_corpus

YEAR = 2019  # not a leap year: 365 target days
ALL_WEEKDAYS = frozenset(range(7))
JITTER = 0.2
WEEKEND_FACTOR = 0.65

SCATTERED_MISSING_P = 0.002
DUPLICATE_P = 0.005
BAD_ROW_P = 0.002
BAD_ROW_KINDS = (
    "unparseable-timestamp",
    "off-grid-minute",
    "tz-aware-timestamp",
    "negative-flow",
    "non-numeric-flow",
)

# The second recon-sweep sensor is low-volume: Poisson counts with empty
# night slots (excluded from MAPE) and empty windows, under which raw
# reconstruction goes negative.
LOW_VOLUME_TOTAL = 600.0
SWEEP_SENSORS = ("det-main", "det-low")


def dates(n_days: int) -> list[date]:
    start = date(YEAR, 1, 1)
    return [start + timedelta(days=i) for i in range(n_days)]


def _clean_counts(params, n_days: int) -> np.ndarray:
    """(n_days, 288) synthetic flow for the first ``n_days`` of YEAR."""
    days = []
    for month in range(1, 13):
        days.extend(generate_corpus(params, YEAR, month, ALL_WEEKDAYS, JITTER))
        if len(days) >= n_days:
            break
    values = np.array([d.values for d in days[:n_days]])
    weekend = np.array([d.weekday() >= 5 for d in dates(n_days)])
    values[weekend] *= WEEKEND_FACTOR
    return values


def _rounded(params, n_days: int) -> np.ndarray:
    return np.round(_clean_counts(params, n_days))


def _poisson(params, n_days: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 2])
    return rng.poisson(_clean_counts(params, n_days)).astype(float)


def _defect_mask(rng, n_days: int, whole_day_outage: bool):
    """Dropped (day, slot) cells plus the index of the whole-day outage.

    One random Tue-Thu per month is protected so that every month keeps
    at least one fault-free donor day.
    """
    days = dates(n_days)
    protected = set()
    for month in sorted({d.month for d in days}):
        typical = [i for i, d in enumerate(days) if d.month == month and d.weekday() in TYPICAL_WEEKDAYS]
        protected.add(int(rng.choice(typical)))
    free = np.array([i for i in range(n_days) if i not in protected])
    dropped = rng.random((n_days, SLOTS_PER_DAY)) < SCATTERED_MISSING_P
    dropped[sorted(protected)] = False
    outage_day, gap_day = (int(i) for i in rng.choice(free, size=2, replace=False))
    start = int(rng.integers(0, SLOTS_PER_DAY - 96))
    dropped[gap_day, start : start + int(rng.integers(36, 97))] = True  # 3-8 hours
    if not whole_day_outage:
        return dropped, None
    dropped[outage_day] = True
    return dropped, outage_day


def _bad_row(kind: str, day: str, hh: int, mm: int, sensor: str) -> str:
    ts = f"{day} {hh:02d}:{mm:02d}:00"
    if kind == "unparseable-timestamp":
        return f"{day} 25:{mm:02d}:00,{sensor},17"
    if kind == "off-grid-minute":
        return f"{day} {hh:02d}:{mm + 2:02d}:00,{sensor},17"
    if kind == "tz-aware-timestamp":
        return f"{ts}+02:00,{sensor},17"
    if kind == "negative-flow":
        return f"{ts},{sensor},-4"
    return f"{ts},{sensor},n/a"


def _csv_lines(values, dropped, seed: int, sensor: str):
    """Monthly detector CSV lines with duplicate keys and bad rows after their originals."""
    rng = np.random.default_rng([seed, 3])
    kept_rows = int((~dropped).sum())
    dup = rng.random(kept_rows) < DUPLICATE_P
    bad = rng.random(kept_rows) < BAD_ROW_P
    bumps = rng.integers(1, 20, size=kept_rows)
    months: dict[int, list[str]] = {}
    row = n_bad = 0
    for day_index, day in enumerate(dates(len(values))):
        iso = day.isoformat()
        lines = months.setdefault(day.month, ["timestamp,sensor_id,flow_total"])
        for slot in np.flatnonzero(~dropped[day_index]):
            hh, mm = divmod(int(slot) * 5, 60)
            flow = int(values[day_index, slot])
            lines.append(f"{iso} {hh:02d}:{mm:02d}:00,{sensor},{flow}")
            if dup[row]:
                lines.append(f"{iso} {hh:02d}:{mm:02d}:00,{sensor},{flow + int(bumps[row])}")
            if bad[row]:
                kind = BAD_ROW_KINDS[n_bad % len(BAD_ROW_KINDS)]
                lines.append(_bad_row(kind, iso, hh, mm, sensor))
                n_bad += 1
            row += 1
    return months, int(dup.sum()), n_bad


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _save(work: Path, name: str, array) -> None:
    np.save(work / name, np.asarray(array), allow_pickle=False)


def generate(workload: str, seed: int, work: Path, months: int = 12) -> dict:
    """Write the inputs for the first ``months`` of YEAR into ``work``; return {file: sha256}."""
    n_days = (date(YEAR + months // 12, months % 12 + 1, 1) - date(YEAR, 1, 1)).days
    params = replace(DEFAULT_PARAMS, seed=seed)
    meta = {"workload": workload, "seed": seed, "n_days": n_days, "year": YEAR}
    if workload == "year-csv":
        sensor = f"det-{seed % 10000:04d}"
        values = _rounded(params, n_days)
        dropped, outage = _defect_mask(np.random.default_rng([seed, 1]), n_days, True)
        values[dropped] = 0.0
        months_lines, duplicates, rejected = _csv_lines(values, dropped, seed, sensor)
        for month, lines in months_lines.items():
            (work / f"input-{month:02d}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        _save(work, "values.npy", values)
        _save(work, "kept.npy", ~dropped)
        meta.update(sensor=sensor, rejected=rejected, duplicates=duplicates, outage_days=[outage])
    elif workload == "recon-sweep":
        low = replace(params, daily_total=LOW_VOLUME_TOTAL, noise_std=0.0)
        grids = [_rounded(params, n_days), _poisson(low, n_days, seed)]
        _save(work, "values.npy", np.stack(grids))
        meta.update(sensors=list(SWEEP_SENSORS))
    elif workload == "export":
        values = _rounded(params, n_days)
        dropped, _ = _defect_mask(np.random.default_rng([seed, 1]), n_days, False)
        values[dropped] = 0.0
        _save(work, "values.npy", values)
        _save(work, "kept.npy", ~dropped)
        meta.update(sensor="det-export")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (work / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    return {p.name: _sha256(p) for p in sorted(work.iterdir()) if p.is_file()}
