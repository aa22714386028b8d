"""Fidelity metrics between original and reconstructed days.

The headline error metric is the mean absolute relative error per slot in
percent ("MAPE (interpretation)"): slots where the original share is zero
are excluded from the mean and counted. The mean absolute difference of
shares is emitted alongside for transparency, since it lives on a much
smaller scale. Both metrics and the correlation are computed on
percent-of-daily-total signals.
"""

from __future__ import annotations

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


def evaluate_day(
    original: DaySignal,
    reconstructed: DaySignal,
    baseline: DaySignal,
    level: int,
) -> DayResult:
    """Score one reconstruction and its staircase baseline on percent signals.

    One pass over the (original, reconstruction, baseline) share rows. It
    makes the checks of :func:`normalize_percent` and equals, up to float
    rounding, :func:`pearson`, :func:`mean_abs_pct_error` and
    :func:`share_mean_abs_diff` of those shares, which are its reference.
    """
    values = np.array((original.values, reconstructed.values, baseline.values))
    totals = values.sum(axis=1)
    # the 3 totals, share sums, error sums and the Gram matrix are checked and
    # combined as Python floats: one numpy call per tiny array costs more than its math
    t0, t1, t2 = totals.tolist()
    if t0 <= 0 or t1 <= 0 or t2 <= 0:  # a NaN total goes on to NonFiniteValues
        _reject_first_invalid((original, reconstructed, baseline))
    shares = values / totals[:, None]
    sums = shares.sum(axis=1)
    s0, s1, s2 = sums.tolist()
    if not (
        abs(s0 - 1.0) <= SHARE_SUM_TOL
        and abs(s1 - 1.0) <= SHARE_SUM_TOL
        and abs(s2 - 1.0) <= SHARE_SUM_TOL
    ):
        _reject_first_invalid((original, reconstructed, baseline))
    orig = shares[0]
    included = orig > 0
    kept = int(np.count_nonzero(included))
    if not kept:
        raise AllZeroOriginal("no slot with a positive original share")
    diffs = np.abs(shares[1:] - orig)
    # dividing, not multiplying by 1/orig: a subnormal share's reciprocal overflows
    relative = np.divide(diffs, orig, out=np.zeros(diffs.shape), where=included)
    error, baseline_error = relative.sum(axis=1).tolist()
    mad, baseline_mad = diffs.sum(axis=1).tolist()
    centred = shares - (sums / orig.size)[:, None]
    (g00, g01, g02), (_, g11, _), (_, _, g22) = (centred @ centred.T).tolist()
    n0, n1, n2 = math.sqrt(g00), math.sqrt(g11), math.sqrt(g22)
    # a constant vector's float mean can differ from its value: test the range too
    if not (n0 > 0 and n1 > 0 and n2 > 0 and min(np.ptp(shares, axis=1).tolist()) > 0):
        raise ConstantInput("correlation undefined for a constant vector")
    return DayResult(
        date=original.date,
        level=level,
        correlation=max(-1.0, min(1.0, g01 / (n0 * n1))),
        error_pct=error / kept * 100.0,
        baseline_correlation=max(-1.0, min(1.0, g02 / (n0 * n2))),
        baseline_error_pct=baseline_error / kept * 100.0,
        share_mad=mad / orig.size,
        baseline_share_mad=baseline_mad / orig.size,
        excluded_slots=orig.size - kept,
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
