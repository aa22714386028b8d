"""The benchmark's own driver: the paper's experiment chained from public calls.

One pass of a workload carries every target day from its input to the
final per-level summary:

* ``year-csv``: monthly detector CSVs -> parse -> group by date -> assemble every
  day -> per month select Tue-Thu donors and build S1 and S2 -> every day x
  levels 1-5 x S1/S2 in raw mode -> summarize.
* ``recon-sweep``: sensor-years already in memory -> per sensor and month
  donors -> every day x levels 1-5 x S1/S2 x {raw, rescaled} -> summarize.
* ``export``: one sensor-year in memory -> every day reconstructed at one
  level and scenario, scored, and written as CSV and JSON; then the whole
  year written as records, plus its gap report.

After every timed piece the pass runs the reference kernel of :mod:`speed`;
its times are kept apart from the pieces' and taken out of the pass's wall
time.

A day with no kept slot at all (a whole-day outage) carries nothing to
score, so the driver skips it and counts it instead of attempting it. An
operation is one day-level evaluation or one month's donor selection; it
fails when it raises :class:`FlowReconError`.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from flowrecon.errors import FlowReconError
from flowrecon.ingest import SLOTS_PER_DAY, DaySignal, day_to_records
from flowrecon.matrix import DaySelectionCriteria

import inputs
import speed

WORKLOADS = ("year-csv", "recon-sweep", "export")
LEVELS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Plan:
    """What is computed for each target day."""

    levels: tuple[int, ...]
    scenarios: tuple[int, ...]
    modes: tuple[bool, ...]  # rescale_approximation values

    @property
    def per_day(self) -> int:
        return len(self.levels) * len(self.scenarios) * len(self.modes)


PLANS = {
    "year-csv": Plan(LEVELS, (1, 2), (False,)),
    "recon-sweep": Plan(LEVELS, (1, 2), (False, True)),
    "export": Plan((3,), (1,), (False,)),
}


@dataclass
class Input:
    """A workload's input in the form the program receives it."""

    workload: str
    meta: dict
    work: Path
    dates: list[date]
    sensors: list[str]
    calendars: list[list[DaySignal]] = field(default_factory=list)  # in-memory workloads
    records: list = field(default_factory=list)  # export: the year as records
    truth: dict = field(default_factory=dict)  # generated arrays, for the checks


@dataclass
class Sample:
    """One checked day-level: everything needed to recompute it independently."""

    key: tuple
    day: DaySignal
    profile: object
    aggregated: object
    baseline: DaySignal
    reconstructed: DaySignal
    result: object


@dataclass
class PassResult:
    wall_s: float = 0.0
    prep_s: float = 0.0
    day_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)  # reference kernel times, see speed.py
    after_day_s: list[float] = field(default_factory=list)  # mean kernel time after each day
    days: int = 0
    skipped: int = 0
    attempted: int = 0
    failed: int = 0
    summaries: dict = field(default_factory=dict)
    results: dict = field(default_factory=lambda: defaultdict(list))
    samples: list[Sample] = field(default_factory=list)
    exports: list[tuple] = field(default_factory=list)  # (sample, csv, json, clamped_csv, clamped_json)
    parse_counts: tuple[int, int] | None = None
    assembled: list[DaySignal] = field(default_factory=list)


class NullTracer:
    """Stand-in for :class:`tracing.Tracer` when tracing is off."""

    pass_id = -1
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


def load(workload: str, work: Path) -> Input:
    """Read the generated inputs; in-memory workloads become day signals here."""
    meta = json.loads((work / "meta.json").read_text(encoding="utf-8"))
    days = inputs.dates(meta["n_days"])
    inp = Input(workload, meta, work, days, [])
    if workload == "year-csv":
        inp.sensors = [meta["sensor"]]
        inp.truth = {"values": np.load(work / "values.npy"), "kept": np.load(work / "kept.npy")}
    elif workload == "recon-sweep":
        inp.sensors = meta["sensors"]
        grids = np.load(work / "values.npy")
        inp.calendars = [[DaySignal(d, s, v) for d, v in zip(days, grid)] for s, grid in zip(inp.sensors, grids)]
    else:
        inp.sensors = [meta["sensor"]]
        values, kept = np.load(work / "values.npy"), np.load(work / "kept.npy")
        inp.truth = {"values": values, "kept": kept}
        calendar = [
            DaySignal(d, meta["sensor"], v, frozenset(np.flatnonzero(~k).tolist()))
            for d, v, k in zip(days, values, kept)
        ]
        inp.calendars = [calendar]
        inp.records = [rec for day in calendar for rec in day_to_records(day)]
    return inp


def _timed(res: PassResult, fn, *args):
    """Call ``fn`` as one timed piece of the pass, then sample the host's speed."""
    t0 = time.perf_counter()
    out = fn(*args)
    speed.sample(time.perf_counter() - t0, res.ref_s)
    return out


def _prepare(api, calendar, months, plan, res: PassResult) -> dict:
    """Month -> [(scenario, profile)] donors; a failed selection leaves the month empty."""
    builders = {1: api.build_matrix_scenario1, 2: api.build_matrix_scenario2}
    by_date = {day.date: day for day in calendar}
    donors = {}
    for year, month in months:
        res.attempted += 1
        try:
            chosen = api.select_typical_days(calendar, DaySelectionCriteria(year, month))
        except FlowReconError:
            res.failed += 1
            continue
        days = [by_date[d] for d in chosen]
        donors[month] = [(s, builders[s](days)) for s in plan.scenarios]
    return donors


def _score_day(api, day, sensor_index, donors, plan, res: PassResult, sample) -> DaySignal | None:
    """Every level x scenario x mode of one day; returns the last reconstruction."""
    recon = None
    for level in plan.levels:
        aggregated = api.aggregate(day, level)
        baseline = api.staircase_baseline(aggregated)
        for scenario, profile in donors:
            for rescale in plan.modes:
                res.attempted += 1
                try:
                    recon = api.reconstruct_day(profile, aggregated, level, rescale)
                    result = api.evaluate_day(day, recon, baseline, level)
                except FlowReconError:
                    res.failed += 1
                    continue
                res.results[(sensor_index, scenario, rescale)].append(result)
                key = (sensor_index, day.date, level, scenario, rescale)
                if sample and key in sample:
                    res.samples.append(Sample(key, day, profile, aggregated, baseline, recon, result))
    return recon


def _score_calendar(api, tracer, calendar, sensor_index, plan, res: PassResult, sample, out_dir=None):
    months = sorted({(d.date.year, d.date.month) for d in calendar})
    t0 = time.perf_counter()
    with tracer.span("driver.prepare"):
        donors = _prepare(api, calendar, months, plan, res)
    prep_s = time.perf_counter() - t0
    res.prep_s += prep_s
    speed.sample(prep_s, res.ref_s)
    for day in calendar:
        if len(day.filled_slots) == SLOTS_PER_DAY:
            res.skipped += 1
            continue
        t0 = time.perf_counter()
        with tracer.span("driver.day"):
            month_donors = donors.get(day.date.month)
            if month_donors is None:
                res.attempted += plan.per_day
                res.failed += plan.per_day
            else:
                recon = _score_day(api, day, sensor_index, month_donors, plan, res, sample)
                if out_dir is not None and recon is not None:
                    # the plan's last combination made ``recon``; if sampled, it is the last sample
                    last = (sensor_index, day.date, plan.levels[-1], plan.scenarios[-1], plan.modes[-1])
                    _export_day(api, day, recon, out_dir, res, last in sample)
        res.day_s.append(time.perf_counter() - t0)
        res.days += 1
        first = len(res.ref_s)
        speed.sample(res.day_s[-1], res.ref_s)
        res.after_day_s.append(statistics.fmean(res.ref_s[first:]))
    for (s, scenario, rescale), results in sorted(res.results.items()):
        if s == sensor_index:
            res.summaries[(s, scenario, rescale)] = _timed(res, api.summarize, results)


def _export_day(api, day, recon, out_dir, res, sampled: bool):
    """Write one reconstructed day; a sampled day keeps its files for read-back."""
    csv_path = out_dir / f"{day.date.isoformat()}.csv"
    json_path = out_dir / f"{day.date.isoformat()}.json"
    clamped_csv = api.write_reconstruction_csv(csv_path, recon, day.daily_total, day)
    clamped_json = api.write_reconstruction_json(json_path, recon, day.daily_total, day)
    if sampled:
        res.exports.append((res.samples[-1], csv_path, json_path, clamped_csv, clamped_json))


def run_pass(api, tracer, inp: Input, sample=frozenset()) -> PassResult:
    """One full pass of the workload; ``sample`` names day-levels to keep for checks."""
    plan = PLANS[inp.workload]
    res = PassResult()
    t0 = time.perf_counter()
    with tracer.span("driver.pass"):
        if inp.workload == "year-csv":
            by_date = defaultdict(list)
            rejected = duplicates = 0
            for path in sorted(inp.work.glob("input-*.csv")):
                parsed = _timed(res, api.parse_sensor_csv, path)
                rejected += parsed.rejected_rows
                duplicates += parsed.duplicate_rows
                for rec in parsed.records:
                    by_date[rec.timestamp.date()].append(rec)
            res.parse_counts = (rejected, duplicates)
            sensor = inp.sensors[0]
            res.assembled = _timed(res, lambda: [api.assemble_day(by_date.get(d, ()), d, sensor) for d in inp.dates])
            _score_calendar(api, tracer, res.assembled, 0, plan, res, sample)
        elif inp.workload == "recon-sweep":
            for index, calendar in enumerate(inp.calendars):
                _score_calendar(api, tracer, calendar, index, plan, res, sample)
        else:
            out = inp.work / "out"
            out.mkdir(exist_ok=True)
            _score_calendar(api, tracer, inp.calendars[0], 0, plan, res, sample, out)
            _timed(res, api.write_records_csv, inp.records, out / "records.csv")
            report = _timed(res, api.gap_report, inp.records, inp.dates[0], inp.dates[-1], inp.sensors[0])
            _timed(res, api.write_gap_csv, report, out / "gaps.csv")
    res.wall_s = time.perf_counter() - t0 - sum(res.ref_s)
    return res
