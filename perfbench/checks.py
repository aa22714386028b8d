"""Correctness checks on a pass's outputs, recomputed independently of the library.

Each check returns human-readable failure strings; an empty list means the
pass was correct. The reconstruction oracle goes through the paper's Haar
path directly (``haar_forward`` -> swap the approximation ->
``haar_inverse``), so it stays valid whatever shortcut ``reconstruct_day``
takes internally.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict

import numpy as np

from flowrecon import haar
from flowrecon.ingest import BASE_WINDOW_MINUTES, parse_sensor_csv

import workloads

ORACLE_TOL = 1e-9
METRIC_TOL = 1e-9
CSV_REL_TOL = 6e-6  # the CSV export rounds to 6 significant digits
JSON_REL_TOL = 1e-12
SAMPLE_SIZE = 48
# LevelSummary metric prefix -> DayResult field it summarizes
SUMMARY_FIELDS = (
    ("correlation", "correlation"),
    ("error", "error_pct"),
    ("baseline_correlation", "baseline_correlation"),
    ("baseline_error", "baseline_error_pct"),
)


def sample_keys(seed: int, inp, n: int = SAMPLE_SIZE) -> frozenset:
    """A seeded set of (sensor, date, level, scenario, rescale) day-levels to check."""
    plan = workloads.PLANS[inp.workload]
    rng = np.random.default_rng([seed, 11])
    keys = set()
    for _ in range(n):
        keys.add(
            (
                int(rng.integers(len(inp.sensors))),
                inp.dates[int(rng.integers(len(inp.dates)))],
                plan.levels[int(rng.integers(len(plan.levels)))],
                plan.scenarios[int(rng.integers(len(plan.scenarios)))],
                plan.modes[int(rng.integers(len(plan.modes)))],
            )
        )
    return frozenset(keys)


def _close(a, b, rel, floor=None) -> bool:
    """|a - b| <= rel * |b| + floor elementwise; ``floor`` defaults to ``rel``."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    floor = rel if floor is None else floor
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * np.abs(b) + floor))


def oracle(profile_values, counts, level: int, rescale: bool) -> np.ndarray:
    """Donor details under the target's counts, through the Haar transform itself."""
    details = haar.haar_forward(profile_values, level).details
    approx = np.asarray(counts, float) / 2 ** (level / 2) if rescale else np.asarray(counts, float)
    return haar.haar_inverse(haar.WaveletDecomposition(level, approx, details))


def _shares(values) -> np.ndarray:
    return np.asarray(values, float) / np.sum(values)


def _mape(o, r) -> float:
    keep = o > 0
    return float(np.mean(np.abs(o[keep] - r[keep]) / o[keep]) * 100.0)


def check_sample(s) -> list[str]:
    _, day_date, level, scenario, rescale = s.key
    where = f"{day_date} L{level} S{scenario} {'rescaled' if rescale else 'raw'}"
    fails = []
    expected = oracle(s.profile.values, s.aggregated.values, level, rescale)
    if not _close(s.reconstructed.values, expected, ORACLE_TOL):
        diff = np.max(np.abs(s.reconstructed.values - expected))
        fails.append(f"reconstruct_day differs from the Haar oracle by {diff:.3g} at {where}")
    counts = s.day.values.reshape(-1, 1 << level).sum(axis=1)
    if not _close(s.aggregated.values, counts, ORACLE_TOL):
        fails.append(f"aggregate window sums differ from the day's counts at {where}")
    if rescale:
        sums = s.reconstructed.values.reshape(-1, 1 << level).sum(axis=1)
        if not _close(sums, s.aggregated.values, ORACLE_TOL):
            fails.append(f"rescaled window sums differ from the aggregated counts at {where}")
    o, r, b = _shares(s.day.values), _shares(s.reconstructed.values), _shares(s.baseline.values)
    res = s.result
    want = {
        "correlation": np.corrcoef(o, r)[0, 1],
        "baseline_correlation": np.corrcoef(o, b)[0, 1],
        "error_pct": _mape(o, r),
        "baseline_error_pct": _mape(o, b),
        "share_mad": np.mean(np.abs(o - r)),
        "baseline_share_mad": np.mean(np.abs(o - b)),
    }
    for name, value in want.items():
        if not _close(getattr(res, name), value, METRIC_TOL):
            fails.append(f"{name} {getattr(res, name)!r} != recomputed {value!r} at {where}")
    if res.excluded_slots != int(np.count_nonzero(o <= 0)) or res.level != level or res.date != day_date:
        fails.append(f"day result identity or excluded-slot count wrong at {where}")
    return fails


def _lower_median_stats(values) -> tuple:
    ordered = sorted(values)
    return (float(np.mean(ordered)), ordered[(len(ordered) - 1) // 2], ordered[-1], ordered[0])


def check_summaries(res) -> list[str]:
    fails = []
    for key, summaries in res.summaries.items():
        by_level = defaultdict(list)
        for r in res.results[key]:
            by_level[r.level].append(r)
        if [s.level for s in summaries] != sorted(by_level):
            fails.append(f"summary levels {[s.level for s in summaries]} for {key}")
            continue
        for row in summaries:
            rows = by_level[row.level]
            if row.window_minutes != BASE_WINDOW_MINUTES << row.level:
                fails.append(f"window_minutes {row.window_minutes} at level {row.level}")
            for metric, field in SUMMARY_FIELDS:
                want = _lower_median_stats([getattr(r, field) for r in rows])
                got = tuple(getattr(row, f"{metric}_{stat}") for stat in ("mean", "median", "max", "min"))
                if not _close(got, want, 1e-12):
                    fails.append(f"summary {metric} at level {row.level} for {key}: {got} != {want}")
    return fails


def check_ingest(inp, res) -> list[str]:
    meta, truth = inp.meta, inp.truth
    fails = []
    if res.parse_counts != (meta["rejected"], meta["duplicates"]):
        fails.append(
            f"parse (rejected, duplicates) {res.parse_counts} != injected "
            f"({meta['rejected']}, {meta['duplicates']})"
        )
    filled = 0
    for day, values, kept in zip(res.assembled, truth["values"], truth["kept"]):
        dropped = frozenset(np.flatnonzero(~kept).tolist())
        filled += len(day.filled_slots)
        if day.filled_slots != dropped:
            fails.append(f"{day.date}: filled slots {len(day.filled_slots)} != dropped {len(dropped)}")
        elif not np.array_equal(day.values[kept], values[kept]) or np.any(day.values[~kept]):
            fails.append(f"{day.date}: assembled values differ from the generated day")
    if filled != int((~truth["kept"]).sum()):
        fails.append(f"filled slots {filled} != dropped slots {int((~truth['kept']).sum())}")
    return fails


def _read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_exports(inp, res) -> list[str]:
    fails = []
    for s, csv_path, json_path, clamped_csv, clamped_json in res.exports:
        shares = _shares(s.reconstructed.values)
        negative = int(np.count_nonzero(shares < 0))
        counts = np.clip(shares, 0.0, None) * s.day.daily_total
        if clamped_csv != negative or clamped_json != negative:
            fails.append(f"{csv_path.name}: clamped {clamped_csv}/{clamped_json} != {negative} negative shares")
        rows = _read_csv(csv_path)
        got_shares = np.array([float(r["share"]) for r in rows])
        got_counts = np.array([float(r["count"]) for r in rows])
        got_orig = np.array([float(r["original_count"]) for r in rows])
        if not (_close(got_shares, shares, CSV_REL_TOL, 1e-15) and _close(got_counts, counts, CSV_REL_TOL, 1e-12)
                and _close(got_orig, s.day.values, CSV_REL_TOL, 0.0)):
            fails.append(f"{csv_path.name} does not read back to the reconstruction")
        with open(json_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        slots = payload["slots"]
        if (payload["clamped_slots"] != negative or payload["date"] != s.day.date.isoformat()
                or not _close([x["share"] for x in slots], shares, JSON_REL_TOL, 1e-18)
                or not _close([x["count"] for x in slots], counts, JSON_REL_TOL, 1e-15)):
            fails.append(f"{json_path.name} does not read back to the reconstruction")
    if not res.exports:
        fails.append("no exported day was sampled for read-back")
    out = inp.work / "out"
    parsed = parse_sensor_csv(out / "records.csv")
    want = [(r.timestamp, r.flow_total) for r in inp.records]
    if [(r.timestamp, r.flow_total) for r in parsed.records] != want or parsed.rejected_rows:
        fails.append("records.csv does not parse back to the written records")
    kept = inp.truth["kept"]
    months = np.array([d.month for d in inp.dates])
    gaps = {int(r["month"]): int(r["missing_slots"]) for r in _read_csv(out / "gaps.csv")}
    want_gaps = {int(m): int((~kept[months == m]).sum()) for m in np.unique(months)}
    if gaps != want_gaps:
        fails.append(f"gap report {gaps} != dropped slots per month {want_gaps}")
    return fails


def check_pass(inp, res) -> list[str]:
    """Every correctness check that applies to the workload."""
    fails = []
    for s in res.samples:
        fails += check_sample(s)
    if not res.samples:
        fails.append("no day-level was sampled for the oracle check")
    fails += check_summaries(res)
    expected_skips = len(inp.meta.get("outage_days", []))
    if res.skipped != expected_skips:
        fails.append(f"skipped {res.skipped} whole-day outages, expected {expected_skips}")
    if inp.workload == "year-csv":
        fails += check_ingest(inp, res)
    if inp.workload == "export":
        fails += check_exports(inp, res)
    return fails
