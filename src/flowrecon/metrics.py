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
original's and the baseline's terms sit in single-entry memos keyed by
the exact bytes of their values, compared with ``==``: values are
writable, so a key by identity could go stale. Each memo is one tuple of
key and terms in one module global, so a reader in any thread sees a
matching pair. The memoised arrays are read-only. The relative error
divides by the original's shares rather than multiplying by their
reciprocals, which overflow for a subnormal share.

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
from .ingest import BASE_WINDOW_MINUTES, DaySignal
from .reconstruct import share_row


@dataclass(frozen=True)
class DayResult:
    """Per-day, per-level fidelity against the original signal."""

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
        for r in (self.correlation, self.baseline_correlation):
            if not -1.0 <= r <= 1.0:
                raise InvalidParams(f"correlation {r} outside [-1, 1]")
        if self.error_pct < 0 or self.baseline_error_pct < 0:
            raise InvalidParams("error percentages must be non-negative")


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
    included: np.ndarray  # shares > 0
    kept: int
    centred: np.ndarray
    norm: float  # 0.0 for a constant row


class _Row(NamedTuple):
    """One share row's terms against an original day."""

    error: float  # sum of |row - original| / original over included slots
    mad: float  # sum of |row - original|
    cross: float  # centred row . centred original
    norm: float  # 0.0 for a constant row


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


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


_original_memo: tuple[bytes, _Original] | None = None
_baseline_memo: tuple[bytes, bytes, _Row] | None = None


def _original_terms(key: bytes) -> _Original:
    """The original's terms from its values' bytes, memoised for the last key."""
    global _original_memo
    memo = _original_memo
    if memo is not None and memo[0] == key:
        return memo[1]
    shares, centred, norm = _centred_row(np.frombuffer(key))
    included = shares > 0
    kept = int(np.count_nonzero(included))
    terms = _Original(_frozen(shares), _frozen(included), kept, _frozen(centred), norm)
    _original_memo = (key, terms)
    return terms


def _row_terms(values: np.ndarray, original: _Original) -> _Row:
    """A reconstruction's or baseline's terms against the original's."""
    shares, centred, norm = _centred_row(values)
    diff = np.abs(shares - original.shares)
    # dividing, not multiplying by 1/share: a subnormal share's reciprocal overflows
    relative = np.divide(diff, original.shares, out=np.zeros(diff.size), where=original.included)
    return _Row(float(relative.sum()), float(diff.sum()), float(centred @ original.centred), norm)


def _baseline_terms(key: bytes, baseline_key: bytes, original: _Original) -> _Row:
    """The baseline's terms against ``original``, whose values' bytes are
    ``key``, memoised for the last pair of keys."""
    global _baseline_memo
    memo = _baseline_memo
    if memo is not None and memo[0] == key and memo[1] == baseline_key:
        return memo[2]
    terms = _row_terms(np.frombuffer(baseline_key), original)
    _baseline_memo = (key, baseline_key, terms)
    return terms


def evaluate_day(
    original: DaySignal,
    reconstructed: DaySignal,
    baseline: DaySignal,
    level: int,
) -> DayResult:
    """Score one reconstruction and its staircase baseline on percent signals.

    Each row passes :func:`flowrecon.reconstruct.share_row`; the result
    equals, up to float rounding, the scalar reference metrics of the three
    share rows (``tests/metric_reference.py``). The work falls in three
    parts:

    - the original's terms (shares, ``> 0`` mask, kept count, centred row
      and norm, constancy), computed once per original day;
    - each row's terms against them (the share rule, the sums of
      ``|delta| / original`` and ``|delta|``, the cross term with the
      original, the norm and constancy), for the reconstruction on every
      call;
    - the baseline's terms, which are the same for every reconstruction of
      a day and level.

    The original's and the baseline's terms are kept in single-entry memos
    keyed by the exact bytes of the values (a day's values are writable, so
    neither identity nor a stale entry can be trusted); a row that fails
    is never memoised. The original is checked first, then the
    reconstruction, then the baseline, each raising what ``share_row``
    raises on it; ``ConstantInput`` comes last. Shares that sum to one
    hold a positive share, so the original always keeps a slot for the
    relative error and no all-zero original can reach it.
    """
    key = original.values.tobytes()
    orig = _original_terms(key)
    row = _row_terms(reconstructed.values, orig)
    base = _baseline_terms(key, baseline.values.tobytes(), orig)
    n0, n1, n2 = orig.norm, row.norm, base.norm
    if not (n0 > 0 and n1 > 0 and n2 > 0):
        raise ConstantInput("correlation undefined for a constant vector")
    size = orig.shares.size
    return DayResult(
        date=original.date,
        level=level,
        correlation=max(-1.0, min(1.0, row.cross / (n0 * n1))),
        error_pct=row.error / orig.kept * 100.0,
        baseline_correlation=max(-1.0, min(1.0, base.cross / (n0 * n2))),
        baseline_error_pct=base.error / orig.kept * 100.0,
        share_mad=row.mad / size,
        baseline_share_mad=base.mad / size,
        excluded_slots=size - orig.kept,
    )


def _lower_median(sorted_values: Sequence[float]) -> float:
    return float(sorted_values[(len(sorted_values) - 1) // 2])


def _stats(values: list[float]) -> tuple[float, float, float, float]:
    ordered = sorted(values)
    return (
        float(np.mean(ordered)),
        _lower_median(ordered),
        float(ordered[-1]),
        float(ordered[0]),
    )


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
        rows = by_level[level]
        corr = _stats([r.correlation for r in rows])
        err = _stats([r.error_pct for r in rows])
        bcorr = _stats([r.baseline_correlation for r in rows])
        berr = _stats([r.baseline_error_pct for r in rows])
        summaries.append(
            LevelSummary(
                level,
                BASE_WINDOW_MINUTES << level,
                *corr,
                *err,
                *bcorr,
                *berr,
            )
        )
    return summaries
