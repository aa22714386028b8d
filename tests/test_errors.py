"""Every validation failure of the signal types is a FlowReconError.

Code that scores a whole corpus catches ``FlowReconError`` to count a failed
day and go on; a plain ``ValueError`` would end the run instead.
"""

from datetime import date

import numpy as np
import pytest

from flowrecon.errors import (
    FlowReconError,
    LevelMismatch,
    NonFiniteValues,
    NotBlockConstant,
    SharesNotNormalized,
    SlotOutOfRange,
    UnknownScenario,
    WrongShape,
)
from flowrecon.haar import haar_forward
from flowrecon.ingest import SLOTS_PER_DAY, AggregatedSignal, DaySignal
from flowrecon.matrix import MatrixProfile
from flowrecon.metrics import evaluate_day
from flowrecon.reconstruct import PercentSignal

DAY = date(2012, 4, 10)
FLAT = np.ones(SLOTS_PER_DAY)


def raises(error, build):
    with pytest.raises(FlowReconError) as info:
        build()
    assert isinstance(info.value, error)


def with_nan(length):
    values = np.ones(length)
    values[3] = np.nan
    return values


def test_wrong_shape():
    raises(WrongShape, lambda: DaySignal(DAY, "s1", np.ones(287)))
    raises(WrongShape, lambda: AggregatedSignal(10, np.ones(143), DAY, 1))
    raises(WrongShape, lambda: MatrixProfile(np.ones((2, SLOTS_PER_DAY)), 1, ()))
    raises(WrongShape, lambda: PercentSignal(np.full(4, 0.25), DAY))
    raises(WrongShape, lambda: haar_forward(np.ones((2, 4)), 1))


def test_non_finite_values():
    raises(NonFiniteValues, lambda: DaySignal(DAY, "s1", with_nan(SLOTS_PER_DAY)))
    raises(NonFiniteValues, lambda: AggregatedSignal(10, with_nan(144), DAY, 1))
    raises(NonFiniteValues, lambda: MatrixProfile(with_nan(SLOTS_PER_DAY), 1, ()))
    raises(NonFiniteValues, lambda: PercentSignal(with_nan(SLOTS_PER_DAY), DAY))
    raises(NonFiniteValues, lambda: haar_forward([1.0, np.inf], 1))


def test_slot_out_of_range():
    raises(SlotOutOfRange, lambda: DaySignal(DAY, "s1", FLAT, frozenset({SLOTS_PER_DAY})))


def test_window_level_mismatch():
    raises(LevelMismatch, lambda: AggregatedSignal(20, np.ones(144), DAY, 1))


def test_unknown_scenario():
    raises(UnknownScenario, lambda: MatrixProfile(FLAT, 3, ()))


def test_not_block_constant():
    raises(NotBlockConstant, lambda: MatrixProfile(np.arange(SLOTS_PER_DAY, dtype=float), 2, ()))


def test_shares_not_normalized():
    raises(SharesNotNormalized, lambda: PercentSignal(np.full(SLOTS_PER_DAY, 0.5), DAY))
    # cancellation: the total rounds to 848 while the shares sum to 0.984375
    values = np.zeros(SLOTS_PER_DAY)
    values[[145, 185, 231, 261]] = [632.0, -1e17, 1e17, 201.28]
    flat, reconstructed = DaySignal(DAY, "s1", FLAT), DaySignal(DAY, "s1", values)
    raises(SharesNotNormalized, lambda: evaluate_day(flat, reconstructed, flat, 1))
