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

from .errors import FlowReconError
from .ingest import (
    MAX_AGGREGATION_LEVEL,
    SLOTS_PER_DAY,
    _WINDOW_OF,
    DaySignal,
    check_level,
    check_month,
    finite_row,
    is_int,
)

TYPICAL_WEEKDAYS = frozenset({1, 2, 3})  # Tuesday, Wednesday, Thursday (Monday = 0)

SCENARIO_SLOT_MEAN = 1
SCENARIO_BLOCK_RATE = 2
RATE_LEVEL = 2  # a 20-minute block is a level-2 window of 4 slots


@dataclass(frozen=True)
class DaySelectionCriteria:
    """The month whose typical weekdays donate the profile; ``"bad-params"``
    unless the year and the month pass ``ingest.check_month``."""

    year: int
    month: int

    def __post_init__(self):
        check_month(self.year, self.month)


def _block_means(row: np.ndarray, level: int) -> np.ndarray:
    """The means of ``row``'s 2**level-slot blocks, spread over their slots by
    ``ingest._WINDOW_OF``: the sum times ``1 / block``, which for a power-of-two
    block is bitwise ``.mean(axis=1)``, at less cost."""
    block = 1 << level
    return (row.reshape(-1, block).sum(axis=1) * (1.0 / block))[_WINDOW_OF[level - 1]]


def _detail_residual(row: np.ndarray, level: int) -> np.ndarray:
    """The detail residual ``r_k`` of ``row`` at ``level``, the inverse Haar transform of its
    details up to ``level``: the row minus its :func:`_block_means`, as a read-only row."""
    residual = row - _block_means(row, level)
    residual.flags.writeable = False
    return residual


@dataclass(frozen=True, eq=False)
class MatrixProfile:
    """Averaged typical-day signal that donates detail coefficients.

    ``values`` passes ``ingest.finite_row`` and is kept as a read-only copy, so later
    changes to the caller's array do not reach the profile. The detail residual ``r_k`` of
    every level 1 to ``MAX_AGGREGATION_LEVEL`` is built from that copy once, with the
    profile, as a flat read-only row of 288, and :meth:`residual` only looks it up.
    ``scenario`` is an int (``ingest.is_int``) 1 or 2, else ``"bad-params"``.
    """

    values: np.ndarray
    scenario: int
    member_dates: tuple[date, ...]

    def __post_init__(self):
        vals = finite_row(self.values, SLOTS_PER_DAY).copy()  # a private copy, frozen below
        scenario = self.scenario
        if not (is_int(scenario) and scenario in (SCENARIO_SLOT_MEAN, SCENARIO_BLOCK_RATE)):
            raise FlowReconError("bad-params", f"unknown scenario {scenario!r}")
        if scenario == SCENARIO_BLOCK_RATE:
            if not (vals == vals[:: 1 << RATE_LEVEL][_WINDOW_OF[RATE_LEVEL - 1]]).all():
                raise FlowReconError(
                    "bad-params", "scenario-2 profile must be constant per 20-minute block"
                )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "member_dates", tuple(self.member_dates))
        levels = range(1, MAX_AGGREGATION_LEVEL + 1)
        object.__setattr__(self, "_residuals", tuple(_detail_residual(vals, k) for k in levels))

    def residual(self, level: int) -> np.ndarray:
        """The profile's read-only detail residual ``r_k`` at ``level``, which
        ``ingest.check_level`` checks first: the profile minus its own
        2**level-block means, as a flat row of 288, the same array on every call."""
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
        raise FlowReconError(
            "empty", f"no fault-free typical day in {criteria.year}-{criteria.month:02d}"
        )
    return sorted(chosen)


def _slot_mean(days: Sequence[DaySignal]) -> np.ndarray:
    if not days:
        raise FlowReconError("empty", "at least one day is required")
    return np.mean([d.values for d in days], axis=0)


def build_matrix_scenario1(days: Sequence[DaySignal]) -> MatrixProfile:
    """Per-slot arithmetic mean over the donor days, 5-minute resolution kept."""
    values = _slot_mean(days)
    return MatrixProfile(values, SCENARIO_SLOT_MEAN, tuple(sorted(d.date for d in days)))


def build_matrix_scenario2(days: Sequence[DaySignal]) -> MatrixProfile:
    """Per-slot mean widened to 20-minute equivalent flow rates.

    Every level-2 window (``RATE_LEVEL``, 4 slots) takes its mean
    (:func:`_block_means`), so the profile keeps 288 samples but is piecewise
    constant on 20-minute windows.
    """
    values = _block_means(_slot_mean(days), RATE_LEVEL)
    return MatrixProfile(values, SCENARIO_BLOCK_RATE, tuple(sorted(d.date for d in days)))
