"""Fidelity metrics between original and reconstructed days.

The headline error metric is the mean absolute relative error per slot in
percent ("MAPE (interpretation)"): slots where the original share is zero
are excluded from the mean and counted. The mean absolute difference of
shares is emitted alongside for transparency, since it lives on a much
smaller scale. Both metrics and the correlation are computed on
percent-of-daily-total signals.

:func:`evaluate_day` scores in three parts: the original day's terms, each
row's terms against them, and the combination. A day is scored against
several reconstructions and one staircase baseline per level, so the
module keeps one memo entry: the original's values' bytes and terms, and
the last baseline's bytes and terms against that original. Keys are the
exact bytes, compared with ``==``, since values are writable and a key by
identity could go stale. The entry is one tuple in one module global, so
a reader in any thread sees matching keys and terms.

The relative error divides ``|row - original|`` by the original's divisor
row: its shares where they are positive and ``inf`` where they are not, so
a finite difference at an excluded slot divides to exactly ``0.0`` and a
kept slot's quotient is the plain IEEE one. It divides rather than
multiplying by reciprocals, which overflow for a subnormal share. A
quotient over a tiny share can still overflow to ``inf``, and a difference
that overflowed to ``inf`` in the subtraction (which warns there) divides
to NaN at an excluded slot; the result refuses either with
``InvalidParams``. So that a caller who turns warnings into errors gets that
refusal and not a numpy ``RuntimeWarning``, the divide runs under
``np.errstate(over="ignore", invalid="ignore")`` unless no quotient can
overflow: when every kept share of the original is at least 1e-150 and the
centred norms of the original and the row are below 1e150, each ``|delta|``
is below 2e150 + 2 and each quotient below 1e301, and the divide runs plain,
without the ``errstate`` and its cost. Either way the quotients are the same.

:func:`evaluate_day` builds its :class:`DayResult` through ``_result``, which
sets the nine fields as the dataclass ``__init__`` does and keeps only the
refusals that its caller or its arithmetic can break, in the constructor's
order: ``check_level`` of the caller's level, ``InvalidParams`` for a NaN
correlation, and ``InvalidParams`` for an error that is not finite. A
correlation is clamped to [-1, 1] so that a NaN passes through, and it is
NaN when the product of two centred norms overflows (as ``cross / inf`` it
would read 0.0). Every other rule holds by construction: errors and MADs are
sums of magnitudes; finite centred norms keep every share below 1.4e154, so
the MADs are finite; and shares that sum to one keep a slot, so
``excluded_slots`` is an int in 0..287. The public constructor keeps every
check. Each sum is ``np.add.reduce``, the reduction that ``ndarray.sum``
wraps in Python.

Every row passes :func:`flowrecon.reconstruct.share_row` first. The tests
hold :func:`evaluate_day` to the scalar ``pearson``, ``mean_abs_pct_error``
and ``share_mean_abs_diff`` of ``tests/metric_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConstantInput, EmptyResults, InvalidParams
from .ingest import BASE_WINDOW_MINUTES, SLOTS_PER_DAY, DaySignal, check_level, is_int
from .reconstruct import share_row


@dataclass(frozen=True)
class DayResult:
    """Per-day, per-level fidelity against the original; ``check_level`` checks the level, and
    ``InvalidParams`` refuses a correlation outside [-1, 1], an error not finite and >= 0 or an
    ``excluded_slots`` that is no int (``ingest.is_int``) in 0..287."""

    date: date
    level: int
    correlation: float
    error_pct: float
    baseline_correlation: float
    baseline_error_pct: float
    share_mad: float
    baseline_share_mad: float
    excluded_slots: int

    def __post_init__(self):
        check_level(self.level)
        r, br = self.correlation, self.baseline_correlation
        if not -1.0 <= r <= 1.0 >= br >= -1.0:  # NaN fails every comparison
            raise InvalidParams(f"correlation {r} or {br} outside [-1, 1]")
        e, be = self.error_pct, self.baseline_error_pct
        mad, bmad = self.share_mad, self.baseline_share_mad
        if not 0 <= e < math.inf > be >= 0 <= mad < math.inf > bmad >= 0:
            raise InvalidParams(f"error {e}, {be}, {mad} or {bmad} is not finite and >= 0")
        if not (is_int(self.excluded_slots) and 0 <= self.excluded_slots < SLOTS_PER_DAY):
            raise InvalidParams(
                f"excluded_slots {self.excluded_slots!r} is no int in [0, {SLOTS_PER_DAY})"
            )


@dataclass(frozen=True)
class LevelSummary:
    """Mean / median / max / min of both metrics at one aggregation level."""

    level: int
    window_minutes: int
    correlation_mean: float
    correlation_median: float
    correlation_max: float
    correlation_min: float
    error_mean: float
    error_median: float
    error_max: float
    error_min: float
    baseline_correlation_mean: float
    baseline_correlation_median: float
    baseline_correlation_max: float
    baseline_correlation_min: float
    baseline_error_mean: float
    baseline_error_median: float
    baseline_error_max: float
    baseline_error_min: float


class _Original(NamedTuple):
    """The terms of an original day that every row scored against it reuses."""

    shares: np.ndarray
    divisor: np.ndarray  # shares, inf where a share is not positive
    kept: int
    centred: np.ndarray
    norm: float  # 0.0 for a constant row
    bounded: bool  # every kept share >= _SHARE_FLOOR and norm < _NORM_CEILING


def _centred_row(values: np.ndarray):
    """(shares, centred shares, centred norm) of one row; raises what
    :func:`share_row` raises on it."""
    shares, share_sum = share_row(values)
    centred = shares - share_sum / shares.size
    norm = math.sqrt(centred @ centred)
    # a constant row's float mean can differ from its value, so its norm need
    # not be 0; but its shares are all ~1/288, which bounds that norm below
    # 1e-15. Only a smaller norm needs the range test (max > min is ptp > 0
    # on the finite rows that reach here).
    if norm < 1e-12 and not np.maximum.reduce(shares) > np.minimum.reduce(shares):
        norm = 0.0
    return shares, centred, norm


# (original bytes, its terms, baseline bytes, its terms against the original)
_memo: tuple[bytes, _Original, bytes | None, tuple[float, float, float, float] | None] | None = None

# Below these bounds no quotient of the relative error can overflow: each |delta| is
# at most the two centred norms plus the two share means, < 2e150 + 2, and each kept
# share is >= 1e-150, so every quotient is < 1e301.
_SHARE_FLOOR = 1e-150
_NORM_CEILING = 1e150


def _original_terms(values: np.ndarray) -> _Original:
    """The terms of an original day's values."""
    shares, centred, norm = _centred_row(values)
    kept = shares > 0
    divisor = np.where(kept, shares, np.inf)
    bounded = float(np.minimum.reduce(divisor)) >= _SHARE_FLOOR and norm < _NORM_CEILING
    return _Original(shares, divisor, int(np.count_nonzero(kept)), centred, norm, bounded)


def _row_terms(values: np.ndarray, original: _Original) -> tuple[float, float, float, float]:
    """A reconstruction's or baseline's terms against the original's, as a tuple
    ``(error, mad, cross, norm)``: the sum of ``|row - original| / original`` over
    the kept slots, the sum of ``|row - original|``, the centred row's dot product
    with the centred original, and the row's centred norm (0.0 for a constant row).
    The row's shares are its own fresh array, so they become ``|row - original|``
    and then its quotient in place."""
    shares, centred, norm = _centred_row(values)
    diff = np.subtract(shares, original.shares, out=shares)
    np.abs(diff, out=diff)
    mad = float(np.add.reduce(diff))
    if original.bounded and norm < _NORM_CEILING:  # a NaN norm fails: the quiet path
        np.divide(diff, original.divisor, out=diff)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # the result refuses the inf or NaN
            np.divide(diff, original.divisor, out=diff)
    return float(np.add.reduce(diff)), mad, float(centred @ original.centred), norm


def evaluate_day(
    original: DaySignal,
    reconstructed: DaySignal,
    baseline: DaySignal,
    level: int,
) -> DayResult:
    """Score one reconstruction and its staircase baseline on percent signals.

    Each row passes :func:`flowrecon.reconstruct.share_row`; the result
    equals, up to float rounding, the scalar reference metrics of the three
    share rows (``tests/metric_reference.py``). The original is checked
    first, then the reconstruction, then the baseline, each raising what
    ``share_row`` raises on it; then ``ConstantInput``, and last the
    result's ``LevelOutOfRange``, or its ``InvalidParams`` for a correlation
    whose centred norms overflow or for an error that overflows to inf (a
    subnormal original share). Shares that sum to one hold a positive share,
    so the original always keeps a slot for the relative error and no
    all-zero original can reach it.
    """
    global _memo
    memo = _memo
    key = original.values.tobytes()
    if memo is None or memo[0] != key:
        # stored before the rows are scored, so a failing row costs no recompute
        memo = _memo = (key, _original_terms(np.frombuffer(key)), None, None)
    orig = memo[1]
    error, mad, cross, n1 = _row_terms(reconstructed.values, orig)
    baseline_key = baseline.values.tobytes()
    base = memo[3]
    if memo[2] != baseline_key:
        base = _row_terms(np.frombuffer(baseline_key), orig)
        _memo = (key, orig, baseline_key, base)
    base_error, base_mad, base_cross, n2 = base
    n0 = orig.norm
    if not (n0 > 0 and n1 > 0 and n2 > 0):
        raise ConstantInput("correlation undefined for a constant vector")
    d1, d2 = n0 * n1, n0 * n2
    size = orig.shares.size
    return _result(
        original.date,
        level,
        # NaN for overflowed norms; max and min pass on a NaN first argument
        min(max(cross / d1, -1.0), 1.0) if d1 < math.inf else math.nan,
        error / orig.kept * 100.0,
        min(max(base_cross / d2, -1.0), 1.0) if d2 < math.inf else math.nan,
        base_error / orig.kept * 100.0,
        mad / size,
        base_mad / size,
        size - orig.kept,
    )


_set = object.__setattr__


def _result(day, level, correlation, error_pct, baseline_correlation, baseline_error_pct,
            share_mad, baseline_share_mad, excluded_slots) -> DayResult:
    """The :class:`DayResult` of fields that :func:`evaluate_day` computed, set in field
    order as the dataclass ``__init__`` sets them, with only the refusals that a caller
    or the arithmetic can break (see the module docstring)."""
    check_level(level)
    if not -1.0 <= correlation <= 1.0 >= baseline_correlation >= -1.0:
        raise InvalidParams(f"correlation {correlation} or {baseline_correlation} is undefined")
    if not error_pct < math.inf > baseline_error_pct:
        raise InvalidParams(f"error {error_pct} or {baseline_error_pct} is not finite")
    result = object.__new__(DayResult)
    _set(result, "date", day)
    _set(result, "level", level)
    _set(result, "correlation", correlation)
    _set(result, "error_pct", error_pct)
    _set(result, "baseline_correlation", baseline_correlation)
    _set(result, "baseline_error_pct", baseline_error_pct)
    _set(result, "share_mad", share_mad)
    _set(result, "baseline_share_mad", baseline_share_mad)
    _set(result, "excluded_slots", excluded_slots)
    return result


# the DayResult fields a LevelSummary row summarizes, in LevelSummary's order
_SUMMARIZED = ("correlation", "error_pct", "baseline_correlation", "baseline_error_pct")


def summarize(results: Sequence[DayResult]) -> list[LevelSummary]:
    """Per-level summary rows over a corpus of day results.

    The median is the lower-middle element for even counts. Levels appear
    in ascending order regardless of input order.
    """
    if not results:
        raise EmptyResults("no day results to summarize")
    by_level: dict[int, list[DayResult]] = {}
    for res in results:
        by_level.setdefault(res.level, []).append(res)

    summaries = []
    for level in sorted(by_level):
        stats = []
        for name in _SUMMARIZED:
            ordered = sorted(getattr(r, name) for r in by_level[level])
            lower_median = ordered[(len(ordered) - 1) // 2]
            stats += map(float, (np.mean(ordered), lower_median, ordered[-1], ordered[0]))
        summaries.append(LevelSummary(level, BASE_WINDOW_MINUTES << level, *stats))
    return summaries
