"""The list-based export writers against the per-slot writers they replaced.

``reference_rows``, ``reference_csv`` and ``reference_json`` are the
per-slot ``slot_start`` timestamps, per-cell ``format_number`` CSV writer
and ``json.dump`` writer, kept here as they were. Hypothesis rebuilds days
through ``reconstruct_day`` (levels 1-5, raw and rescaled, 0.3-400
vehicles per slot, so near-empty days with negative shares too), adds
all-zero and negated reconstructions, and writes each with and without an
original day and in both precisions, on dates that include 29 February,
31 December, ``date.min`` and ``date.max``. Both sides must write the same
bytes, return the same clamped count and raise the same exception type.
"""

import csv
import json
import tempfile
from datetime import date
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrecon.errors import FlowReconError, ZeroDailyTotal
from flowrecon.ingest import MAX_AGGREGATION_LEVEL, SLOTS_PER_DAY, DaySignal, aggregate, slot_start
from flowrecon.matrix import build_matrix_scenario1, build_matrix_scenario2
from flowrecon.reconstruct import (
    normalize_percent,
    reconstruct_day,
    write_reconstruction_csv,
    write_reconstruction_json,
)

EDGE_DATES = (date(2012, 2, 29), date(2000, 2, 29), date(2012, 12, 31), date.min, date.max)
DONOR_DATES = (date(2012, 4, 3), date(2012, 4, 4), date(2012, 4, 5))


def reference_format_number(value, full_precision=False):
    if full_precision:
        return repr(float(value))
    return format(float(value), ".6g")


def reference_rows(reconstructed, total_vehicles, original):
    shares = normalize_percent(reconstructed).values
    clamped = int(np.sum(shares < 0))
    counts = np.clip(shares, 0.0, None) * total_vehicles
    rows = []
    for slot in range(SLOTS_PER_DAY):
        rows.append(
            (
                slot_start(reconstructed.date, slot).isoformat(timespec="minutes"),
                float(shares[slot]),
                float(counts[slot]),
                float(original.values[slot]) if original is not None else None,
            )
        )
    return rows, clamped


def reference_csv(path, reconstructed, total_vehicles, original=None, full_precision=False):
    rows, clamped = reference_rows(reconstructed, total_vehicles, original)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "share", "count", "original_count"])
        for ts, share, count, orig in rows:
            writer.writerow(
                [
                    ts,
                    reference_format_number(share, full_precision),
                    reference_format_number(count, full_precision),
                    "" if orig is None else reference_format_number(orig, full_precision),
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
@given(export_cases(), st.booleans())
def test_csv_bytes_match_reference(case, full_precision):
    recon, total, original = case
    args = (recon, total, original, full_precision)
    assert outcome(write_reconstruction_csv, *args) == outcome(reference_csv, *args)


@settings(max_examples=120, deadline=None)
@given(export_cases())
def test_json_bytes_match_reference(case):
    assert outcome(write_reconstruction_json, *case) == outcome(reference_json, *case)


def test_zero_total_raises_on_both_sides():
    zeros = DaySignal(date.max, "", np.zeros(SLOTS_PER_DAY))
    writers = (write_reconstruction_csv, reference_csv, write_reconstruction_json, reference_json)
    for write in writers:
        assert outcome(write, zeros, 10.0, None) == (ZeroDailyTotal, False)
