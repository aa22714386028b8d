"""The scalar share metrics and percent normaliser, kept as the reference.

``evaluate_day`` and ``flowrecon.reconstruct.share_row`` replaced these:
``check_shares``, ``PercentSignal`` and ``normalize_percent`` (which checks
a day's shares one rule at a time) and the scalar ``pearson``,
``mean_abs_pct_error`` and ``share_mean_abs_diff`` on one pair of share
vectors. They are kept here as they were, and import none of the
package's share code, so the differential tests compare the package with
an independent copy of the rule rather than with itself. Each runs under
``np.errstate(over="ignore", invalid="ignore")``, which silences an
overflow to ``inf`` or a NaN without changing a value, so a
``RuntimeWarning`` that a test run prints comes from the package.

Its MAPE refuses an all-zero original with ``"zero-total"``, as ``share_row``
refuses a day with no positive total; ``evaluate_day`` cannot meet one, whose
total ``share_row`` rejects first.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import NamedTuple

import numpy as np

from flowrecon.errors import FlowReconError
from flowrecon.ingest import SLOTS_PER_DAY, DaySignal
from flowrecon.reconstruct import SHARE_SUM_TOL


@np.errstate(over="ignore", invalid="ignore")
def check_shares(shares: np.ndarray) -> None:
    """Reject share vectors (along the last axis) that are non-finite or do not sum to 1."""
    sums = shares.sum(axis=-1)
    if (abs(sums - 1.0) <= SHARE_SUM_TOL).all():
        return
    if not np.isfinite(shares).all():
        raise FlowReconError("non-finite", "shares must be finite")
    raise FlowReconError("not-normalized", f"shares sum to {sums!r}, expected 1")


@dataclass(frozen=True, eq=False)
class PercentSignal:
    """A day's flow as each slot's share of the daily total.

    Shares sum to one. Reconstructed days may produce shares outside
    [0, 1] because raw reconstruction values can be negative.
    """

    values: np.ndarray
    source_date: date

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (SLOTS_PER_DAY,):
            raise FlowReconError("shape", f"expected {SLOTS_PER_DAY} slots, got {vals.shape}")
        check_shares(vals)
        object.__setattr__(self, "values", vals)


@np.errstate(over="ignore", invalid="ignore")
def normalize_percent(day: DaySignal) -> PercentSignal:
    """Each slot's share of the daily total; invariant under uniform scaling."""
    total = float(day.values.sum())
    if total <= 0:
        raise FlowReconError("zero-total", f"daily total {total!r} is not positive")
    return PercentSignal(day.values / total, day.date)


@np.errstate(over="ignore", invalid="ignore")
def pearson(a, b) -> float:
    """Population product-moment correlation, cov(a, b) / (sigma_a sigma_b), clamped to
    [-1, 1]. It is NaN, which ``DayResult`` refuses, when it is NaN before the clamp or
    when the product of the centred norms overflows."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise FlowReconError("shape", f"vector lengths {x.size} != {y.size}")
    if x.size < 2:
        raise FlowReconError("constant", "correlation needs at least 2 samples")
    dx = x - x.mean()
    dy = y - y.mean()
    nx = np.sqrt(np.sum(dx * dx))
    ny = np.sqrt(np.sum(dy * dy))
    # a constant vector's float mean can differ from its value: test ptp too
    if nx == 0.0 or ny == 0.0 or np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise FlowReconError("constant", "correlation undefined for a constant vector")
    if not nx * ny < np.inf:
        return np.nan
    r = float(np.sum(dx * dy) / (nx * ny))
    return min(max(r, -1.0), 1.0)


class MapeResult(NamedTuple):
    error_pct: float
    excluded_slots: int


def _shares(signal) -> np.ndarray:
    return signal.values if isinstance(signal, PercentSignal) else np.asarray(signal, float)


@np.errstate(over="ignore", invalid="ignore")
def mean_abs_pct_error(original, reconstructed) -> MapeResult:
    """Mean of |orig - recon| / orig over slots with positive original share.

    Returns the mean in percent together with the number of zero-original
    slots that were excluded. Inputs are percent signals (or raw share
    vectors of equal length).
    """
    o = _shares(original)
    r = _shares(reconstructed)
    if o.shape != r.shape:
        raise FlowReconError("shape", f"share lengths {o.size} != {r.size}")
    included = o > 0
    excluded = int(o.size - included.sum())
    if not included.any():
        raise FlowReconError("zero-total", "no slot with a positive original share")
    rel = np.abs(o[included] - r[included]) / o[included]
    return MapeResult(float(rel.mean() * 100.0), excluded)


@np.errstate(over="ignore", invalid="ignore")
def share_mean_abs_diff(original, reconstructed) -> float:
    """Mean absolute difference of shares (transparency metric)."""
    o = _shares(original)
    r = _shares(reconstructed)
    if o.shape != r.shape:
        raise FlowReconError("shape", f"share lengths {o.size} != {r.size}")
    return float(np.abs(o - r).mean())
