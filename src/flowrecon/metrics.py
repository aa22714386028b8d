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
original's and the baseline's terms sit in single-entry
``functools.lru_cache`` caches keyed by the exact bytes of their values:
values are writable, so a key by identity could go stale. The cached
arrays are read-only. The relative error divides by the original's
shares rather than multiplying by their reciprocals, which overflow for a
subnormal share.
:func:`pearson`, :func:`mean_abs_pct_error` and
:func:`share_mean_abs_diff` are the scalar references.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple, NoReturn, Sequence

import numpy as np

from .errors import (
    AllZeroOriginal,
    ConstantInput,
    EmptyResults,
    InvalidParams,
    LengthMismatch,
    SharesNotNormalized,
)
from .ingest import BASE_WINDOW_MINUTES, DaySignal
from .reconstruct import SHARE_SUM_TOL, PercentSignal, normalize_percent


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


def pearson(a, b) -> float:
    """Population product-moment correlation, cov(a, b) / (sigma_a sigma_b)."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise LengthMismatch(f"vector lengths {x.size} != {y.size}")
    if x.size < 2:
        raise ConstantInput("correlation needs at least 2 samples")
    dx = x - x.mean()
    dy = y - y.mean()
    nx = np.sqrt(np.sum(dx * dx))
    ny = np.sqrt(np.sum(dy * dy))
    # a constant vector's float mean can differ from its value: test ptp too
    if nx == 0.0 or ny == 0.0 or np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise ConstantInput("correlation undefined for a constant vector")
    r = float(np.sum(dx * dy) / (nx * ny))
    return max(-1.0, min(1.0, r))


class MapeResult(NamedTuple):
    error_pct: float
    excluded_slots: int


def _shares(signal) -> np.ndarray:
    return signal.values if isinstance(signal, PercentSignal) else np.asarray(signal, float)


def mean_abs_pct_error(original, reconstructed) -> MapeResult:
    """Mean of |orig - recon| / orig over slots with positive original share.

    Returns the mean in percent together with the number of zero-original
    slots that were excluded. Inputs are percent signals (or raw share
    vectors of equal length).
    """
    o = _shares(original)
    r = _shares(reconstructed)
    if o.shape != r.shape:
        raise LengthMismatch(f"share lengths {o.size} != {r.size}")
    included = o > 0
    excluded = int(o.size - included.sum())
    if not included.any():
        raise AllZeroOriginal("no slot with a positive original share")
    rel = np.abs(o[included] - r[included]) / o[included]
    return MapeResult(float(rel.mean() * 100.0), excluded)


def share_mean_abs_diff(original, reconstructed) -> float:
    """Mean absolute difference of shares (transparency metric)."""
    o = _shares(original)
    r = _shares(reconstructed)
    if o.shape != r.shape:
        raise LengthMismatch(f"share lengths {o.size} != {r.size}")
    return float(np.abs(o - r).mean())


def _reject_first_invalid(days: Sequence[DaySignal]) -> NoReturn:
    """Raise what :func:`normalize_percent` raises on the first day it rejects.

    The reference normalises the original, the reconstruction and the
    baseline in turn, so a bad later day must not mask a bad earlier one.
    """
    for day in days:
        normalize_percent(day)
    raise SharesNotNormalized("shares do not sum to 1")


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


def _share_row(values: np.ndarray):
    """(shares, centred shares, centred norm) of one row, or None where
    :func:`normalize_percent` would raise on it."""
    total = values.sum()
    if not total > 0:  # a NaN total is rejected too
        return None
    shares = values / total
    share_sum = shares.sum()
    if not abs(share_sum - 1.0) <= SHARE_SUM_TOL:
        return None
    centred = shares - share_sum / shares.size
    norm = math.sqrt(centred @ centred)
    # a constant row's float mean can differ from its value, so its norm need
    # not be 0; but its shares are all ~1/288, which bounds that norm below
    # 1e-15. Only a smaller norm needs the range test (max > min is ptp > 0
    # on the finite rows that reach here).
    if norm < 1e-12 and not np.maximum.reduce(shares) > np.minimum.reduce(shares):
        norm = 0.0
    return shares, centred, norm


@functools.lru_cache(maxsize=1)
def _original_terms(key: bytes) -> _Original | None:
    """The original's terms from its values' bytes; None if it does not normalise."""
    row = _share_row(np.frombuffer(key))
    if row is None:
        return None
    shares, centred, norm = row
    included = shares > 0
    kept = int(np.count_nonzero(included))
    return _Original(_frozen(shares), _frozen(included), kept, _frozen(centred), norm)


def _row_terms(values: np.ndarray, original: _Original) -> _Row | None:
    """A reconstruction's or baseline's terms; None if it does not normalise."""
    row = _share_row(values)
    if row is None:
        return None
    shares, centred, norm = row
    diff = np.abs(shares - original.shares)
    # dividing, not multiplying by 1/share: a subnormal share's reciprocal overflows
    relative = np.divide(diff, original.shares, out=np.zeros(diff.size), where=original.included)
    return _Row(float(relative.sum()), float(diff.sum()), float(centred @ original.centred), norm)


@functools.lru_cache(maxsize=1)
def _baseline_terms(key: bytes, baseline_key: bytes) -> _Row | None:
    """The baseline's terms against the original whose values' bytes are ``key``."""
    return _row_terms(np.frombuffer(baseline_key), _original_terms(key))


def evaluate_day(
    original: DaySignal,
    reconstructed: DaySignal,
    baseline: DaySignal,
    level: int,
) -> DayResult:
    """Score one reconstruction and its staircase baseline on percent signals.

    It makes the checks of :func:`normalize_percent` and equals, up to float
    rounding, :func:`pearson`, :func:`mean_abs_pct_error` and
    :func:`share_mean_abs_diff` of the three share rows, which are its
    reference. The work falls in three parts:

    - the original's terms (shares, ``> 0`` mask, kept count, centred row
      and norm, constancy), computed once per original day;
    - each row's terms against them (the normalisation checks, the sums of
      ``|delta| / original`` and ``|delta|``, the cross term with the
      original, the norm and constancy), for the reconstruction on every
      call;
    - the baseline's terms, which are the same for every reconstruction of
      a day and level.

    The original's and the baseline's terms are kept in single-entry caches
    keyed by the exact bytes of the values (a day's values are writable, so
    neither identity nor a stale entry can be trusted).
    The original is checked first, then the reconstruction, then the
    baseline; the first that fails raises what :func:`normalize_percent`
    raises on it. ``AllZeroOriginal`` comes next, then ``ConstantInput``.
    """
    key = original.values.tobytes()
    orig = _original_terms(key)
    row = None if orig is None else _row_terms(reconstructed.values, orig)
    base = None if row is None else _baseline_terms(key, baseline.values.tobytes())
    if base is None:
        _reject_first_invalid((original, reconstructed, baseline))
    if not orig.kept:
        raise AllZeroOriginal("no slot with a positive original share")
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
