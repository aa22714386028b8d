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

from .errors import EmptyDayList, NotBlockConstant, NoTypicalDays, UnknownScenario
from .ingest import (
    BASE_WINDOW_MINUTES,
    MAX_AGGREGATION_LEVEL,
    SLOTS_PER_DAY,
    DaySignal,
    check_level,
    check_month,
    finite_row,
    is_int,
)

TYPICAL_WEEKDAYS = frozenset({1, 2, 3})  # Tuesday, Wednesday, Thursday (Monday = 0)

SCENARIO_SLOT_MEAN = 1
SCENARIO_BLOCK_RATE = 2
RATE_BLOCK_SLOTS = 20 // BASE_WINDOW_MINUTES  # 4 slots per 20-minute block


@dataclass(frozen=True)
class DaySelectionCriteria:
    """The month whose typical weekdays donate the profile; ``InvalidParams``
    unless the year and the month pass ``ingest.check_month``."""

    year: int
    month: int

    def __post_init__(self):
        check_month(self.year, self.month)


def _detail_residual(row: np.ndarray, level: int) -> np.ndarray:
    """The detail residual ``r_k`` of ``row`` at ``level``: the row minus its own
    2**level-block means, as read-only ``(windows, 2**level)`` blocks.

    This is the inverse Haar transform of the row's details up to ``level``.
    """
    block = 1 << level
    blocks = row.reshape(-1, block)
    residual = blocks - blocks.sum(axis=1, keepdims=True) * (1.0 / block)
    residual.flags.writeable = False
    return residual


@dataclass(frozen=True, eq=False)
class MatrixProfile:
    """Averaged typical-day signal that donates detail coefficients.

    ``values`` passes ``ingest.finite_row`` and is kept as a read-only copy, so later
    changes to the caller's array do not reach the profile. The detail residual ``r_k`` of
    every level 1 to ``MAX_AGGREGATION_LEVEL`` is built from that copy once, with the
    profile, and :meth:`residual` only looks it up. ``scenario`` is an int
    (``ingest.is_int``) 1 or 2, else ``UnknownScenario``.
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
        levels = range(1, MAX_AGGREGATION_LEVEL + 1)
        object.__setattr__(self, "_residuals", tuple(_detail_residual(vals, k) for k in levels))

    def residual(self, level: int) -> np.ndarray:
        """The profile's read-only detail residual ``r_k`` at ``level``, which
        ``ingest.check_level`` checks first: the profile minus its own
        2**level-block means, as (windows, 2**level) blocks."""
        check_level(level)
        return self._residuals[level - 1]


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
