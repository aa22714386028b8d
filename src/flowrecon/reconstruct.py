"""Detail transplantation: rebuild a 5-minute day from aggregated counts.

The paper puts a target day's level-k counts in place of the approximation
of the donor profile's Haar decomposition and inverts the transform. That
is linear, so :func:`reconstruct_day` computes it in closed form::

    values = r_k + (c * counts)[_WINDOW_OF[k - 1]] = 2**k * c * staircase + r_k

where ``r_k`` (the inverse of the donor's details alone) is the profile
minus its own 2**k-block means, ``c = 2**(-k/2)`` for raw counts and
``c = 2**(-k)`` with ``rescale_approximation`` (the target's orthonormal
approximation, which makes the output count-faithful: staircase + r_k).
``ingest._WINDOW_OF`` maps each slot to its level-k window, so one gather
spreads a per-window value over its slots, here as in
:func:`staircase_baseline` (``c = 2**(-k)``, no ``r_k``) and the donor
profiles of :mod:`flowrecon.matrix`. ``r_k`` depends on the profile alone,
so a :class:`MatrixProfile` builds it for every level when it is built, as
a flat read-only row of 288, and :meth:`MatrixProfile.residual` looks it
up. :func:`reconstruct_day` returns a fresh, writable array on each call.

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

Each export writer does three things: the share rule, one ``%`` that fills
its format's whole-day template (``_CSV_DAY``, ``_JSON_DAY``), and one write.
"""

from __future__ import annotations

import numpy as np

from .errors import FlowReconError
from .ingest import SLOT_CLOCKS, _WINDOW_OF, AggregatedSignal, DaySignal, _derived
from .matrix import MatrixProfile

SHARE_SUM_TOL = 1e-9


def share_row(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Each slot's share of the row's total, and the sum of those shares.

    This is the one percent-share rule a day passes before it is scored or
    exported. It raises ``"zero-total"`` when the total is not positive,
    ``"non-finite"`` when a share is not finite (so also for a NaN
    total), and ``"not-normalized"`` when the shares do not sum to 1
    within ``SHARE_SUM_TOL`` (heavy cancellation in the total). The checks
    cost one sum per row unless the row fails.
    """
    total = np.add.reduce(values)
    if total <= 0:  # a NaN total passes here and makes every share NaN
        raise FlowReconError("zero-total", f"daily total {float(total)!r} is not positive")
    shares = values / total
    share_sum = np.add.reduce(shares)
    if not abs(share_sum - 1.0) <= SHARE_SUM_TOL:
        if not np.isfinite(shares).all():
            raise FlowReconError("non-finite", "shares must be finite")
        raise FlowReconError("not-normalized", f"shares sum to {float(share_sum)!r}, expected 1")
    return shares, share_sum


def reconstruct_day(
    matrix: MatrixProfile,
    aggregated: AggregatedSignal,
    levels: int,
    rescale_approximation: bool = False,
) -> DaySignal:
    """The donor's level-``levels`` Haar detail under the target day's counts."""
    residual = matrix.residual(levels)  # "level" for a bad level first, then for a mismatch
    if aggregated.level != levels:
        raise FlowReconError("level", f"aggregated level {aggregated.level} != levels {levels}")
    values = aggregated.values[_WINDOW_OF[levels - 1]]
    values *= 2.0 ** (-levels if rescale_approximation else -levels / 2)
    values += residual
    return _derived(DaySignal, values, date=aggregated.source_date, sensor_id="",
                    filled_slots=frozenset())


def staircase_baseline(aggregated: AggregatedSignal) -> DaySignal:
    """Spread each window count uniformly over its slots.

    Equals the inverse transform of the counts as the approximation with
    all-zero details, rescaled to conserve counts. This is the
    comparison floor for any reconstruction.
    """
    level = aggregated.level
    values = aggregated.values[_WINDOW_OF[level - 1]]
    values /= 1 << level
    return _derived(DaySignal, values, date=aggregated.source_date, sensor_id="",
                    filled_slots=frozenset())


def _reconstruction_columns(reconstructed: DaySignal, total_vehicles: float):
    """One day's shares and clamped counts as lists, and the number of
    negative shares.

    Raises what :func:`share_row` raises, then ``"non-finite"`` when a count is
    not finite: a non-finite ``total_vehicles``, or a finite one whose product
    with a share overflows; then ``"bad-params"`` for a negative
    ``total_vehicles``; each without a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        shares = share_row(reconstructed.values)[0]
        # + 0.0 turns a -0.0 total into 0.0, so no count is written as -0
        counts = np.clip(shares, 0.0, None) * (total_vehicles + 0.0)
    clamped = int(np.count_nonzero(shares < 0))
    if not np.isfinite(counts).all():
        raise FlowReconError(
            "non-finite", f"counts for total_vehicles {total_vehicles!r} are not finite"
        )
    if total_vehicles < 0:
        raise FlowReconError("bad-params", f"total_vehicles {total_vehicles!r} is negative")
    return shares.tolist(), counts.tolist(), clamped


# The whole CSV export of a day, built once at import from ingest.SLOT_CLOCKS: the
# header, then per slot the date, the slot's clock text in place, share, count and
# the original count's cell ("%.6g" text, or "" without an original day). A writer
# fills every cell with one % over one interleaved cell list.
_CSV_DAY = "timestamp,share,count,original_count\r\n" + "".join(
    "%s" + clock + ",%.6g,%.6g,%s\r\n" for clock in SLOT_CLOCKS
)


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
    can disclose it. The day is refused as :func:`share_row` refuses it, then
    non-finite counts raise ``"non-finite"`` and a negative total
    ``"bad-params"``, before the file is opened and with no numpy warning.
    """
    shares, counts, clamped = _reconstruction_columns(reconstructed, total_vehicles)
    cells = [reconstructed.date.isoformat(), None, None, ""] * len(shares)
    cells[1::4] = shares
    cells[2::4] = counts
    if original is not None:
        cells[3::4] = map("%.6g".__mod__, original.values.tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_CSV_DAY % tuple(cells))
    return clamped


# The whole JSON export of a day, built as _CSV_DAY is, keys in sorted order: the
# head, then per slot the count, the original count's cell (its repr, or null
# without an original day), the share and the date before the slot's clock. %r of
# a finite float is its JSON form.
_JSON_DAY = '{"clamped_slots": %d, "date": "%s", "slots": [' + ", ".join(
    '{"count": %r, "original_count": %s, "share": %r, "timestamp": "%s' + clock + '"}'
    for clock in SLOT_CLOCKS
) + "]}\n"


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
    slot (``original_count`` null without an original day). It refuses as
    the CSV twin does, so no ``Infinity`` or ``NaN`` token is written.
    """
    shares, counts, clamped = _reconstruction_columns(reconstructed, total_vehicles)
    day = reconstructed.date.isoformat()
    cells = [clamped, day] + [None, "null", None, day] * len(shares)
    cells[2::4] = counts
    cells[4::4] = shares
    if original is not None:
        cells[3::4] = map(repr, original.values.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_JSON_DAY % tuple(cells))
    return clamped
