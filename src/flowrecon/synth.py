"""Deterministic synthetic commuter-day generator.

Days are a mixture of Gaussian peaks over the 288-slot grid plus a
uniform floor, scaled to a daily total, with optional multiplicative
noise. Every day draws from its own PCG64 stream seeded by
(seed, ordinal date), so corpora are reproducible across platforms and
independent of generation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date

import numpy as np

from .errors import InvalidParams
from .ingest import SLOTS_PER_DAY, DaySignal, check_month, is_int
from .matrix import TYPICAL_WEEKDAYS

DEFAULT_SENSOR_ID = "synthetic-01"


@dataclass(frozen=True)
class PeakSpec:
    """One Gaussian bump: center slot, width (std dev, slots), weight share."""

    center: float
    width: float
    weight: float


@dataclass(frozen=True)
class ProfileParams:
    """A synthetic day's shape; ``InvalidParams`` for a total, noise or peak
    off its range (below) or a seed that is no int >= 0 by ``is_int``."""

    daily_total: float
    peaks: tuple[PeakSpec, ...]
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "peaks", tuple(self.peaks))
        # chained bounds: a NaN fails every comparison, so it is rejected too
        if not 0 < self.daily_total < math.inf:
            raise InvalidParams(f"daily_total must be positive and finite, got {self.daily_total}")
        if not 0 <= self.noise_std < math.inf:
            raise InvalidParams("noise_std must be non-negative and finite")
        if not (is_int(self.seed) and self.seed >= 0):
            raise InvalidParams(f"seed must be a non-negative integer, got {self.seed!r}")
        weight_sum = 0.0
        for peak in self.peaks:
            if not 0 <= peak.center < SLOTS_PER_DAY:
                raise InvalidParams(f"peak center {peak.center} outside the day grid")
            if not 0 < peak.width < math.inf:
                raise InvalidParams("peak width must be positive and finite")
            if not 0 <= peak.weight < math.inf:
                raise InvalidParams("peak weight must be non-negative and finite")
            weight_sum += peak.weight
        if weight_sum > 1.0 + 1e-12:
            raise InvalidParams(f"peak weights sum to {weight_sum}, must be <= 1")


# morning / evening commuter pattern: peaks near 07:45 and 17:40
DEFAULT_PARAMS = ProfileParams(
    daily_total=24000.0,
    peaks=(PeakSpec(93.0, 11.0, 0.34), PeakSpec(212.0, 16.0, 0.38)),
    noise_std=0.05,
    seed=1729,
)


def _rng_for(seed: int, day: date) -> np.random.Generator:
    return np.random.default_rng([seed, day.toordinal()])


def base_profile(params: ProfileParams) -> np.ndarray:
    """Noiseless slot values; sums to daily_total by construction."""
    slots = np.arange(SLOTS_PER_DAY, dtype=float)
    floor_share = 1.0 - sum(p.weight for p in params.peaks)
    shape = np.full(SLOTS_PER_DAY, floor_share / SLOTS_PER_DAY)
    for peak in params.peaks:
        bump = np.exp(-0.5 * ((slots - peak.center) / peak.width) ** 2)
        shape += peak.weight * bump / bump.sum()
    return params.daily_total * shape


def _realize(params: ProfileParams, day: date, rng) -> DaySignal:
    values = base_profile(params)
    if params.noise_std > 0:
        values = values * (1.0 + rng.normal(0.0, params.noise_std, SLOTS_PER_DAY))
        np.maximum(values, 0.0, out=values)
    return DaySignal(day, DEFAULT_SENSOR_ID, values, frozenset())


def generate_day(params: ProfileParams, day: date) -> DaySignal:
    """One synthetic day; identical inputs give an identical signal."""
    return _realize(params, day, _rng_for(params.seed, day))


def _jittered(params: ProfileParams, rng, jitter: float) -> ProfileParams:
    if jitter <= 0 or not params.peaks:
        return params
    weight_budget = sum(p.weight for p in params.peaks)
    peaks = []
    for peak in params.peaks:
        center = float(
            np.clip(peak.center + rng.normal(0.0, jitter * peak.width), 0, SLOTS_PER_DAY - 1)
        )
        weight = max(peak.weight * (1.0 + rng.normal(0.0, jitter)), 0.0)
        peaks.append(PeakSpec(center, peak.width, weight))
    # keep the floor share fixed: renormalize the jittered mix to its old budget
    new_sum = sum(p.weight for p in peaks)
    if new_sum > 0:
        peaks = [replace(p, weight=p.weight * weight_budget / new_sum) for p in peaks]
    return replace(params, peaks=tuple(peaks))


def generate_corpus(
    params: ProfileParams,
    year: int,
    month: int,
    weekdays: frozenset[int] = TYPICAL_WEEKDAYS,
    jitter: float = 0.0,
) -> list[DaySignal]:
    """One day per matching calendar date of the month, in date order.

    ``jitter`` perturbs peak centers and the weight mix per day, drawn
    from the same per-date stream as the noise, so a fixed seed yields a
    byte-identical corpus. ``InvalidParams`` for a year and month that fail
    ``ingest.check_month`` or a negative or non-finite ``jitter``.
    """
    check_month(year, month)
    if not 0 <= jitter < math.inf:
        raise InvalidParams("jitter must be non-negative and finite")
    days = []
    for dom in range(1, 32):
        try:
            day = date(year, month, dom)
        except ValueError:
            break
        if day.weekday() not in weekdays:
            continue
        rng = _rng_for(params.seed, day)
        realized = _jittered(params, rng, jitter)
        days.append(_realize(realized, day, rng))
    return days
