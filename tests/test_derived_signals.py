"""Signals the library builds from signals it has already checked.

``aggregate``, ``staircase_baseline`` and ``reconstruct_day`` build their
outputs without the public constructors' field checks, keeping only the
finiteness check that arithmetic can break. These tests hold each output to
the checked constructor on the same row, bitwise, for levels 1-5, both
scenarios and both modes; pin that every output owns a fresh, writable array;
and show that an overflow still raises ``NonFiniteValues``. The scoring
divide skips ``np.errstate`` only below its bounds (a kept original share
>= 1e-150, centred norms < 1e150); at those bounds ``evaluate_day`` matches
the guarded path bitwise and warns nothing.
"""

import math
import warnings
from datetime import date

import numpy as np
import pytest

from flowrecon import ingest, metrics
from flowrecon.errors import NonFiniteValues
from flowrecon.ingest import SLOTS_PER_DAY, AggregatedSignal, DaySignal, aggregate
from flowrecon.matrix import MatrixProfile, build_matrix_scenario1, build_matrix_scenario2
from flowrecon.metrics import evaluate_day
from flowrecon.reconstruct import reconstruct_day, staircase_baseline

DAY = date(2012, 4, 10)
DONOR_DATES = (date(2012, 4, 3), date(2012, 4, 4), date(2012, 4, 5))
LEVELS = range(1, 6)


def target_rows():
    """Ordinary, near-empty and signed target rows."""
    rng = np.random.default_rng(25)
    near_empty = np.zeros(SLOTS_PER_DAY)
    near_empty[[3, 140, 141]] = 1.0
    signed = rng.normal(0.0, 50.0, SLOTS_PER_DAY)
    return [rng.uniform(0.0, 300.0, SLOTS_PER_DAY), near_empty, signed]


def profiles():
    rng = np.random.default_rng(26)
    days = [DaySignal(d, "s1", rng.uniform(0.0, 300.0, SLOTS_PER_DAY)) for d in DONOR_DATES]
    return build_matrix_scenario1(days), build_matrix_scenario2(days)


def assert_same_signal(got, want):
    """Same class, the same fields and bitwise the same values (0.0 and -0.0 differ)."""
    assert type(got) is type(want)
    assert vars(got).keys() == vars(want).keys()
    for name, value in vars(want).items():
        if name == "values":
            assert got.values.dtype == value.dtype and got.values.shape == value.shape
            assert got.values.tobytes() == value.tobytes()
        else:
            assert type(getattr(got, name)) is type(value) and getattr(got, name) == value


@pytest.mark.parametrize("level", LEVELS)
def test_outputs_equal_the_checked_constructors_bitwise(level):
    block = 1 << level
    for row in target_rows():
        day = DaySignal(DAY, "s1", row)
        agg = aggregate(day, level)
        assert_same_signal(agg, AggregatedSignal(row.reshape(-1, block).sum(axis=1), DAY, level))
        baseline = staircase_baseline(agg)
        # the staircase's expression before its index table
        assert_same_signal(baseline, DaySignal(DAY, "", np.repeat(agg.values / block, block)))
        assert baseline.sensor_id == "" and baseline.filled_slots == frozenset()
        for profile in profiles():
            for rescale in (False, True):
                recon = reconstruct_day(profile, agg, level, rescale)
                scale = 2.0 ** (-level if rescale else -level / 2)
                # the transplant's expression before the window table: the residual as blocks
                residual = profile.residual(level).reshape(-1, block)
                values = (residual + (agg.values * scale)[:, None]).ravel()
                assert_same_signal(recon, DaySignal(DAY, "", values, frozenset()))


def owns_its_values(signal, *others):
    values = signal.values
    return values.flags.writeable and not any(np.shares_memory(values, o) for o in others)


@pytest.mark.parametrize("level", LEVELS)
def test_every_call_returns_a_fresh_writable_array(level):
    day = DaySignal(DAY, "s1", target_rows()[0])
    agg = aggregate(day, level)
    again = aggregate(day, level)
    assert owns_its_values(agg, day.values, again.values)
    baseline = staircase_baseline(agg)
    assert owns_its_values(baseline, agg.values, staircase_baseline(agg).values)
    for profile in profiles():
        residual = profile.residual(level)
        for rescale in (False, True):
            recon = reconstruct_day(profile, agg, level, rescale)
            other = reconstruct_day(profile, agg, level, rescale)
            assert owns_its_values(recon, residual, profile.values, agg.values, other.values)
            recon.values[:] = -1.0
            fresh = reconstruct_day(profile, agg, level, rescale)
            assert np.array_equal(other.values, fresh.values)


def test_aggregate_checks_its_level_once(monkeypatch):
    calls = []
    check = ingest.check_level
    monkeypatch.setattr(ingest, "check_level", lambda level: (calls.append(level), check(level)))
    aggregate(DaySignal(DAY, "s1", target_rows()[0]), 3)
    assert calls == [3]


def test_an_overflowing_window_sum_is_not_finite():
    day = DaySignal(DAY, "s1", np.full(SLOTS_PER_DAY, 1e308))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValues):
        aggregate(day, 1)


def test_an_overflowing_residual_table_gives_no_reconstruction():
    """The profile is finite, but its block sums overflow, so its residuals are -inf."""
    with np.errstate(over="ignore"):
        profile = MatrixProfile(np.full(SLOTS_PER_DAY, 1e308), 1, ())
    assert np.isinf(profile.residual(1)).all()
    agg = aggregate(DaySignal(DAY, "s1", target_rows()[0]), 1)
    with pytest.raises(NonFiniteValues):
        reconstruct_day(profile, agg, 1)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_values_mutated_in_place_still_fail_the_finiteness_check(bad):
    day = DaySignal(DAY, "s1", target_rows()[0])
    agg = aggregate(day, 2)
    profile = profiles()[0]
    day.values[5] = bad
    agg.values[5] = bad
    with np.errstate(invalid="ignore"):
        for build in (
            lambda: aggregate(day, 2),
            lambda: staircase_baseline(agg),
            lambda: reconstruct_day(profile, agg, 2),
        ):
            with pytest.raises(NonFiniteValues):
                build()


# the relative error's bounds as the module states them
FLOOR, CEILING = 1e-150, 1e150


def original_with_share(share):
    """A day whose slot 0 has exactly ``share`` of a total of exactly 1.0."""
    values = np.zeros(SLOTS_PER_DAY)
    values[1:257] = 1.0 / 256  # dyadic, so they sum to 1.0 exactly
    values[0] = share  # far below one ulp of 1.0
    assert values.sum() == 1.0
    return DaySignal(DAY, "s1", values)


def row_with_norm_near_ceiling(above):
    """A ramp with +a and -a at slots 0 and 8, whose centred norm lies just above or
    below 1e150; found by bisecting ``a``."""
    ramp = np.arange(1.0, SLOTS_PER_DAY + 1)

    def norm(a):
        row = ramp.copy()
        row[0], row[8] = a, -a
        return row, metrics._centred_row(row)[2]

    lo, hi = 1e150, 1e156
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if norm(mid)[1] < CEILING else (lo, mid)
    row, n = norm(hi if above else lo)
    assert (n >= CEILING) if above else (n < CEILING), n
    assert math.isfinite(n)
    return DaySignal(DAY, "s1", row)


def guarded_result(monkeypatch, *args):
    """``evaluate_day`` with every divide under ``np.errstate``: no norm is below 0."""
    with monkeypatch.context() as patch:
        patch.setattr(metrics, "_NORM_CEILING", 0.0)
        metrics._memo = None
        want = evaluate_day(*args)
    metrics._memo = None
    return want


def assert_bitwise_equal(got, want):
    for name, value in vars(want).items():
        if isinstance(value, float):
            assert getattr(got, name).hex() == value.hex(), name
        else:
            assert getattr(got, name) == value, name


@pytest.mark.parametrize("share, bounded", ((FLOOR, True), (np.nextafter(FLOOR, 0.0), False)))
def test_a_kept_share_at_the_floor_scores_like_the_guarded_divide(monkeypatch, share, bounded):
    original = original_with_share(share)
    terms = metrics._original_terms(original.values)
    assert terms.divisor.min() == share and terms.bounded is bounded
    agg = aggregate(original, 2)
    args = (original, reconstruct_day(profiles()[0], agg, 2), staircase_baseline(agg), 2)
    want = guarded_result(monkeypatch, *args)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate_day(*args)
    assert_bitwise_equal(got, want)


@pytest.mark.parametrize("above", (False, True), ids=("below", "above"))
def test_a_row_norm_beside_the_ceiling_scores_like_the_guarded_divide(monkeypatch, above):
    original = original_with_share(FLOOR)
    assert metrics._original_terms(original.values).bounded
    recon = row_with_norm_near_ceiling(above)
    baseline = staircase_baseline(aggregate(original, 2))
    want = guarded_result(monkeypatch, original, recon, baseline, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate_day(original, recon, baseline, 2)
    assert_bitwise_equal(got, want)
    assert math.isfinite(got.error_pct)
