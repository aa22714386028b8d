"""Detail transplantation: rebuild a 5-minute day from aggregated counts.

The paper puts a target day's level-k counts in place of the approximation
of the donor profile's Haar decomposition and inverts the transform. That
is linear, so :func:`reconstruct_day` computes it in closed form::

    values = repeat(c * counts, 2**k) + r_k = 2**k * c * staircase + r_k

where ``r_k`` (the inverse of the donor's details alone) is the profile
minus its own 2**k-block means, ``c = 2**(-k/2)`` for raw counts and
``c = 2**(-k)`` with ``rescale_approximation`` (the target's orthonormal
approximation, which makes the output count-faithful: staircase + r_k).
``r_k`` depends on the profile alone, so a :class:`MatrixProfile` builds
it for every level when it is built, and :meth:`MatrixProfile.residual`
looks it up. :func:`reconstruct_day` returns a fresh, writable array on
each call.

The paper's "distortion" is the raw mode's ``2**(k/2) * staircase + r_k``:
after percent normalisation the donor detail is weighted down by
2**(-k/2) relative to the count-conserving staircase. So comparisons run
on percent-of-daily-total signals; raw negative slots are allowed and only
clamped when exporting vehicle counts. :mod:`flowrecon.haar` keeps the
paper's transform as the reference and test oracle for the closed form.

:func:`share_row` is the one rule a percent signal passes (positive total,
finite shares, shares summing to one); the export writers and
:func:`flowrecon.metrics.evaluate_day` both apply it.
The tests hold it to the separate normaliser of ``tests/metric_reference.py``.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    InvalidParams,
    LevelMismatch,
    NonFiniteValues,
    SharesNotNormalized,
    ZeroDailyTotal,
)
from .ingest import SLOT_CLOCKS, AggregatedSignal, DaySignal
from .matrix import MatrixProfile

SHARE_SUM_TOL = 1e-9


def share_row(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Each slot's share of the row's total, and the sum of those shares.

    This is the one percent-share rule a day passes before it is scored or
    exported. It raises ``ZeroDailyTotal`` when the total is not positive,
    ``NonFiniteValues`` when a share is not finite (so also for a NaN
    total), and ``SharesNotNormalized`` when the shares do not sum to 1
    within ``SHARE_SUM_TOL`` (heavy cancellation in the total). The checks
    cost one sum per row unless the row fails.
    """
    total = values.sum()
    if total <= 0:  # a NaN total passes here and makes every share NaN
        raise ZeroDailyTotal(f"daily total {float(total)!r} is not positive")
    shares = values / total
    share_sum = shares.sum()
    if not abs(share_sum - 1.0) <= SHARE_SUM_TOL:
        if not np.isfinite(shares).all():
            raise NonFiniteValues("shares must be finite")
        raise SharesNotNormalized(f"shares sum to {float(share_sum)!r}, expected 1")
    return shares, share_sum


def reconstruct_day(
    matrix: MatrixProfile,
    aggregated: AggregatedSignal,
    levels: int,
    rescale_approximation: bool = False,
) -> DaySignal:
    """The donor's level-``levels`` Haar detail under the target day's counts."""
    residual = matrix.residual(levels)  # LevelOutOfRange first, then LevelMismatch
    if aggregated.level != levels:
        raise LevelMismatch(f"aggregated level {aggregated.level} != levels {levels}")
    scale = 2.0 ** (-levels if rescale_approximation else -levels / 2)
    values = residual + (aggregated.values * scale)[:, None]
    return DaySignal(aggregated.source_date, "", values.ravel(), frozenset())


def staircase_baseline(aggregated: AggregatedSignal) -> DaySignal:
    """Spread each window count uniformly over its slots.

    Equals the inverse transform of the counts as the approximation with
    all-zero details, rescaled to conserve counts. This is the
    comparison floor for any reconstruction.
    """
    block = 1 << aggregated.level
    values = np.repeat(aggregated.values / block, block)
    return DaySignal(aggregated.source_date, "", values, frozenset())


def _reconstruction_columns(
    reconstructed: DaySignal,
    total_vehicles: float,
    original: DaySignal | None,
):
    """One day's timestamps, shares, clamped counts and original counts (None
    without an original day) as lists, and the number of negative shares.

    Raises ``NonFiniteValues`` when a count is not finite: a non-finite
    ``total_vehicles``, or a finite one whose product with a share overflows;
    then ``InvalidParams`` for a negative ``total_vehicles``.
    """
    shares = share_row(reconstructed.values)[0]
    clamped = int(np.sum(shares < 0))
    with np.errstate(over="ignore", invalid="ignore"):
        # + 0.0 turns a -0.0 total into 0.0, so no count is written as -0
        counts = np.clip(shares, 0.0, None) * (total_vehicles + 0.0)
    if not np.isfinite(counts).all():
        raise NonFiniteValues(f"counts for total_vehicles {total_vehicles!r} are not finite")
    if total_vehicles < 0:
        raise InvalidParams(f"total_vehicles {total_vehicles!r} is negative")
    day = reconstructed.date.isoformat()
    stamps = [day + clock for clock in SLOT_CLOCKS]
    originals = None if original is None else original.values.tolist()
    return stamps, shares.tolist(), counts.tolist(), originals, clamped


# One row of the CSV export: timestamp, share, count and original count.
_CSV_ROW = "%s,%.6g,%.6g,%.6g\r\n"
_CSV_ROW_NO_ORIGINAL = "%s,%.6g,%.6g,\r\n"


def write_reconstruction_csv(
    path,
    reconstructed: DaySignal,
    total_vehicles: float,
    original: DaySignal | None = None,
) -> int:
    """Write (timestamp, share, count, original count) rows for one day.

    Numbers carry 6 significant digits (``format(x, ".6g")``); the JSON twin
    keeps full precision. Without an original day the last cell is empty.
    The bytes are what ``csv.writer`` writes: CRLF line ends and minimal
    quoting, which no cell needs. Negative shares are clamped to zero in the
    count column only; the number of clamped slots is returned so reports
    can disclose it. Non-finite counts raise ``NonFiniteValues``, a negative
    total ``InvalidParams``, before the file is opened.
    """
    stamps, shares, counts, originals, clamped = _reconstruction_columns(
        reconstructed, total_vehicles, original
    )
    if originals is None:
        row, rows = _CSV_ROW_NO_ORIGINAL, zip(stamps, shares, counts)
    else:
        row, rows = _CSV_ROW, zip(stamps, shares, counts, originals)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp,share,count,original_count\r\n" + "".join(map(row.__mod__, rows)))
    return clamped


# One slot of the JSON export, keys in sorted order; %r of a finite float is its JSON form.
_JSON_SLOT = '{"count": %r, "original_count": %r, "share": %r, "timestamp": "%s"}'
_JSON_SLOT_NO_ORIGINAL = '{"count": %r, "original_count": null, "share": %r, "timestamp": "%s"}'


def write_reconstruction_json(
    path,
    reconstructed: DaySignal,
    total_vehicles: float,
    original: DaySignal | None = None,
) -> int:
    """JSON twin of :func:`write_reconstruction_csv`, full precision.

    The bytes are ``json.dumps(payload, sort_keys=True)`` with the default
    separators, plus a newline, where ``payload`` holds ``clamped_slots``,
    ``date`` and one ``{count, original_count, share, timestamp}`` object per
    slot (``original_count`` null without an original day). Non-finite
    counts raise ``NonFiniteValues`` (so no ``Infinity`` or ``NaN`` token is
    written), a negative total ``InvalidParams``, before the file is opened.
    """
    stamps, shares, counts, originals, clamped = _reconstruction_columns(
        reconstructed, total_vehicles, original
    )
    if originals is None:
        slots = map(_JSON_SLOT_NO_ORIGINAL.__mod__, zip(counts, shares, stamps))
    else:
        slots = map(_JSON_SLOT.__mod__, zip(counts, originals, shares, stamps))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            '{"clamped_slots": %d, "date": "%s", "slots": [%s]}\n'
            % (clamped, reconstructed.date.isoformat(), ", ".join(slots))
        )
    return clamped
