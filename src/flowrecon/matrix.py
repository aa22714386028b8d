"""Typical-day selection and donor-profile construction.

The donor profile ("matrix") is an average over fault-free typical
weekdays of one month. Scenario 1 keeps the 5-minute slot means; Scenario
2 replaces each 20-minute block (4 slots) with its mean, an equivalent
flow rate on a wider window that keeps the slot count unchanged. A
Scenario-2 profile therefore has identically zero detail coefficients at
levels 1 and 2 of its Haar decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyDayList, InvalidParams, NotBlockConstant, NoTypicalDays, UnknownScenario
from .ingest import BASE_WINDOW_MINUTES, SLOTS_PER_DAY, DaySignal, check_level, finite_row, is_int

TYPICAL_WEEKDAYS = frozenset({1, 2, 3})  # Tuesday, Wednesday, Thursday (Monday = 0)

SCENARIO_SLOT_MEAN = 1
SCENARIO_BLOCK_RATE = 2
RATE_BLOCK_SLOTS = 20 // BASE_WINDOW_MINUTES  # 4 slots per 20-minute block


@dataclass(frozen=True)
class DaySelectionCriteria:
    """The month whose typical weekdays donate the profile; ``InvalidParams``
    unless the year and the month (in 1-12) are ints by ``ingest.is_int``."""

    year: int
    month: int

    def __post_init__(self):
        if not (is_int(self.year) and is_int(self.month) and 1 <= self.month <= 12):
            raise InvalidParams(f"year {self.year!r} or month {self.month!r} is no int month")


@dataclass(frozen=True, eq=False)
class MatrixProfile:
    """Averaged typical-day signal that donates detail coefficients.

    ``values`` passes ``ingest.finite_row`` and is kept as a read-only copy, so later
    changes to the caller's array do not reach the profile and the level-k detail residual
    ``r_k`` (:meth:`residual`, which checks its level first) is safe to cache per level.
    ``scenario`` is an int (``ingest.is_int``) 1 or 2, else ``UnknownScenario``.
    """

    values: np.ndarray
    scenario: int
    member_dates: tuple[date, ...]

    def __post_init__(self):
        vals = finite_row(self.values, SLOTS_PER_DAY).copy()  # a private copy, frozen below
        scenario = self.scenario
        if not (is_int(scenario) and scenario in (SCENARIO_SLOT_MEAN, SCENARIO_BLOCK_RATE)):
            raise UnknownScenario(f"unknown scenario {scenario!r}")
        if scenario == SCENARIO_BLOCK_RATE:
            blocks = vals.reshape(-1, RATE_BLOCK_SLOTS)
            if not (blocks == blocks[:, :1]).all():
                raise NotBlockConstant("scenario-2 profile must be constant per 20-minute block")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "member_dates", tuple(self.member_dates))
        object.__setattr__(self, "_residuals", {})

    def residual(self, level: int) -> np.ndarray:
        """The profile minus its own 2**level-block means, as (windows, 2**level) blocks.

        This is the inverse transform of the profile's Haar details up to
        ``level``. It is computed once per level and cached read-only, which
        is safe because the profile's values are a frozen private copy.
        """
        check_level(level)
        cached = self._residuals.get(level)
        if cached is None:
            block = 1 << level
            blocks = self.values.reshape(-1, block)
            cached = blocks - blocks.sum(axis=1, keepdims=True) * (1.0 / block)
            cached.flags.writeable = False
            self._residuals[level] = cached
        return cached


def select_typical_days(
    calendar: Iterable[DaySignal], criteria: DaySelectionCriteria
) -> list[date]:
    """Dates in the criteria month that are typical and fault-free.

    A day qualifies when it falls on a Tuesday, Wednesday or Thursday
    (``TYPICAL_WEEKDAYS``) and its signal has no zero-filled slots.
    """
    chosen = {
        day.date
        for day in calendar
        if day.date.year == criteria.year
        and day.date.month == criteria.month
        and day.date.weekday() in TYPICAL_WEEKDAYS
        and not day.filled_slots
    }
    if not chosen:
        raise NoTypicalDays(
            f"no fault-free typical day in {criteria.year}-{criteria.month:02d}"
        )
    return sorted(chosen)


def _slot_mean(days: Sequence[DaySignal]) -> np.ndarray:
    if not days:
        raise EmptyDayList("at least one day is required")
    return np.mean([d.values for d in days], axis=0)


def build_matrix_scenario1(days: Sequence[DaySignal]) -> MatrixProfile:
    """Per-slot arithmetic mean over the donor days, 5-minute resolution kept."""
    values = _slot_mean(days)
    return MatrixProfile(values, SCENARIO_SLOT_MEAN, tuple(sorted(d.date for d in days)))


def build_matrix_scenario2(days: Sequence[DaySignal]) -> MatrixProfile:
    """Per-slot mean widened to 20-minute equivalent flow rates.

    Every block of 4 slots is replaced by its block mean, so the profile
    keeps 288 samples but is piecewise constant on 20-minute windows.
    """
    mean = _slot_mean(days)
    blocks = mean.reshape(-1, RATE_BLOCK_SLOTS).mean(axis=1)
    values = np.repeat(blocks, RATE_BLOCK_SLOTS)
    return MatrixProfile(values, SCENARIO_BLOCK_RATE, tuple(sorted(d.date for d in days)))
