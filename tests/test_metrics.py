"""Day scoring and summaries, and the scalar reference metrics.

The ``test_pearson_*``, ``test_mape_*`` and ``test_share_mean_abs_diff``
cases pin the scalar references in ``tests/metric_reference.py``, which
the differential tests hold ``evaluate_day`` to. Each paper semantic among
them (hand-computed correlation and MAPE, the zero-original exclusion,
constant rows) is also checked on ``evaluate_day`` directly.
"""

import math
import tracemalloc
import warnings
from dataclasses import fields
from datetime import date

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flowrecon.errors import (
    ConstantInput,
    EmptyResults,
    FlowReconError,
    InvalidParams,
    LengthMismatch,
    ZeroDailyTotal,
)
from flowrecon.ingest import SLOTS_PER_DAY, DaySignal, aggregate
from flowrecon.metrics import DayResult, evaluate_day, summarize
from flowrecon.reconstruct import share_row, staircase_baseline

from metric_reference import AllZeroOriginal, mean_abs_pct_error, pearson, share_mean_abs_diff

DAY = date(2012, 4, 10)
RAMP = np.arange(1, SLOTS_PER_DAY + 1, dtype=float)


def day_of(values):
    return DaySignal(DAY, "s1", np.asarray(values, dtype=float))


def result_for(level, corr, err, day=DAY, bcorr=0.9, berr=12.0):
    return DayResult(day, level, corr, err, bcorr, berr, 0.001, 0.002, 0)


def test_pearson_self_and_negated():
    x = np.array([1.0, 4.0, 2.0, 8.0])
    assert pearson(x, x) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)


def test_pearson_hand_value():
    # cov/(sigma*sigma) of these vectors reduces to 3*sqrt(21)/14
    r = pearson([1, 2, 3], [1, 2, 4])
    assert r == pytest.approx(3 * math.sqrt(21) / 14, abs=1e-12)
    assert r == pytest.approx(0.9819805060619657, abs=1e-12)


def test_pearson_errors():
    with pytest.raises(LengthMismatch):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(ConstantInput):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ConstantInput):
        pearson([5], [5])
    # 288 equal shares: their float mean is not exactly the share
    with pytest.raises(ConstantInput):
        pearson(np.arange(SLOTS_PER_DAY), np.full(SLOTS_PER_DAY, 1.0 / SLOTS_PER_DAY))


def test_pearson_affine_invariance():
    rng = np.random.default_rng(12)
    for _ in range(25):
        a = rng.normal(size=64)
        b = rng.normal(size=64)
        c = float(rng.uniform(0.1, 9.0))
        d = float(rng.uniform(-5.0, 5.0))
        assert abs(pearson(a, c * b + d) - pearson(a, b)) < 1e-9


def test_mape_identical_is_zero():
    shares = np.full(4, 0.25)
    result = mean_abs_pct_error(shares, shares)
    assert result.error_pct == 0.0
    assert result.excluded_slots == 0


def test_mape_hand_arithmetic():
    result = mean_abs_pct_error([0.1, 0.2], [0.11, 0.18])
    assert result.error_pct == pytest.approx(10.0)


def test_mape_excludes_zero_original_slots():
    result = mean_abs_pct_error([0.0, 0.1, 0.2], [0.05, 0.11, 0.18])
    assert result.excluded_slots == 1
    assert result.error_pct == pytest.approx(10.0)


def test_mape_all_zero_original():
    with pytest.raises(AllZeroOriginal):
        mean_abs_pct_error([0.0, 0.0], [0.1, 0.2])


def test_mape_zero_iff_equal_on_positive_slots():
    rng = np.random.default_rng(3)
    for _ in range(20):
        o = rng.uniform(0.0, 1.0, 32)
        o[rng.integers(0, 32, 4)] = 0.0
        r = o.copy()
        r[o == 0] = rng.uniform(0.1, 1.0, int((o == 0).sum()))
        assert mean_abs_pct_error(o, r).error_pct == 0.0
        r2 = o.copy()
        bump = int(np.flatnonzero(o > 0)[0])
        r2[bump] += 0.01
        assert mean_abs_pct_error(o, r2).error_pct > 0.0


def test_share_mean_abs_diff():
    assert share_mean_abs_diff([0.5, 0.5], [0.4, 0.6]) == pytest.approx(0.1)


def score(original, reconstructed, level=1):
    """evaluate_day against the level's staircase baseline of the original."""
    original = day_of(original)
    baseline = staircase_baseline(aggregate(original, level))
    return evaluate_day(original, day_of(reconstructed), baseline, level)


def test_evaluate_day_hand_values():
    # shares v/576 and w/672 of the tiled vectors: the population correlation
    # is that of [1, 2, 3] and [1, 2, 4], and every slot is off by 1/7
    result = score(np.tile([1.0, 2.0, 3.0], 96), np.tile([1.0, 2.0, 4.0], 96))
    assert result.correlation == pytest.approx(3 * math.sqrt(21) / 14, abs=1e-12)
    assert result.error_pct == pytest.approx(100.0 / 7.0, rel=1e-12)
    assert result.share_mad == pytest.approx(1.0 / 2016.0, rel=1e-12)
    assert result.excluded_slots == 0


def test_evaluate_day_hand_mape_and_negated_correlation():
    # two halves of 1 and 2 vehicles: the level-1 staircase is the day itself
    original = np.repeat([1.0, 2.0], SLOTS_PER_DAY // 2)
    result = score(original, np.repeat([1.1, 1.9], SLOTS_PER_DAY // 2))
    assert result.error_pct == pytest.approx(7.5, rel=1e-12)  # mean of 10% and 5%
    assert result.correlation == pytest.approx(1.0)
    assert result.baseline_error_pct == 0.0
    assert result.baseline_correlation == pytest.approx(1.0)
    swapped = score(original, np.repeat([2.0, 1.0], SLOTS_PER_DAY // 2))
    assert swapped.error_pct == pytest.approx(75.0, rel=1e-12)  # mean of 100% and 50%
    assert swapped.correlation == pytest.approx(-1.0)


def test_evaluate_day_excludes_zero_original_slots():
    # thirds of 0, 1 and 2 vehicles; the reconstruction moves half of the
    # last third's traffic into the first, where the original is zero
    original = np.repeat([0.0, 1.0, 2.0], SLOTS_PER_DAY // 3)
    result = score(original, np.repeat([0.5, 1.0, 1.5], SLOTS_PER_DAY // 3))
    assert result.excluded_slots == SLOTS_PER_DAY // 3
    assert result.error_pct == pytest.approx(12.5, rel=1e-12)  # 0% and 25% over 192 slots
    assert result.share_mad == pytest.approx(1.0 / (3 * SLOTS_PER_DAY), rel=1e-12)


def test_evaluate_day_error_zero_iff_equal_on_positive_slots():
    original = np.repeat([0.0, 1.0, 2.0], SLOTS_PER_DAY // 3)
    # +-5 vehicles in two zero-original slots: the total and every included share stay
    shifted = original.copy()
    shifted[[0, 1]] = (5.0, -5.0)
    result = score(original, shifted)
    assert result.error_pct == 0.0
    assert result.excluded_slots == SLOTS_PER_DAY // 3
    assert result.share_mad > 0.0 and result.correlation < 1.0
    bumped = shifted.copy()
    bumped[[100, 200]] = (1.01, 1.99)  # an included slot moves, the total does not
    assert score(original, bumped).error_pct > 0.0


def test_evaluate_day_rejects_a_zero_original_before_scoring():
    # an all-zero original has no total to share: ZeroDailyTotal, where the
    # scalar reference MAPE raises AllZeroOriginal
    with pytest.raises(ZeroDailyTotal):
        evaluate_day(day_of(np.zeros(SLOTS_PER_DAY)), day_of(RAMP), day_of(RAMP), 1)


@given(hnp.arrays(float, SLOTS_PER_DAY, elements=st.floats(-1e6, 1e6)))
def test_accepted_share_rows_keep_a_positive_share(values):
    """Shares that sum to one hold a positive share, so a scored original
    always keeps a slot for the relative error."""
    try:
        shares, _ = share_row(values)
    except FlowReconError:
        return
    assert (shares > 0).any()


@pytest.mark.parametrize(
    "rows",
    [
        (np.full(SLOTS_PER_DAY, 7.0), RAMP, RAMP),
        # 288 equal shares: their float mean is not exactly the share
        (RAMP, np.full(SLOTS_PER_DAY, 1.0 / SLOTS_PER_DAY), RAMP),
        (RAMP, RAMP[::-1], np.full(SLOTS_PER_DAY, 13.0)),
    ],
    ids=("original", "reconstruction", "baseline"),
)
def test_evaluate_day_constant_row(rows):
    with pytest.raises(ConstantInput):
        evaluate_day(*map(day_of, rows), 1)


def test_evaluate_day_perfect_reconstruction():
    rng = np.random.default_rng(7)
    values = rng.uniform(1.0, 100.0, SLOTS_PER_DAY)
    original = day_of(values)
    baseline = day_of(values + rng.uniform(0, 5, SLOTS_PER_DAY))
    result = evaluate_day(original, original, baseline, level=2)
    assert result.correlation == pytest.approx(1.0)
    assert result.error_pct == 0.0
    assert result.excluded_slots == 0
    assert result.level == 2


def test_evaluate_day_baseline_self_comparison():
    rng = np.random.default_rng(8)
    original = day_of(rng.uniform(1.0, 100.0, SLOTS_PER_DAY))
    baseline = day_of(rng.uniform(1.0, 100.0, SLOTS_PER_DAY))
    result = evaluate_day(original, baseline, baseline, level=1)
    assert result.correlation == pytest.approx(result.baseline_correlation)
    assert result.error_pct == pytest.approx(result.baseline_error_pct)
    assert result.share_mad == pytest.approx(result.baseline_share_mad)


def test_a_subnormal_share_day_is_refused_not_warned_about():
    """Slot 0's share is subnormal and the reconstruction moves it by about a
    tenth of the day, so its relative error overflows to inf: a caller that
    turns warnings into errors gets ``InvalidParams``, not numpy's ``RuntimeWarning``."""
    values = np.ones(SLOTS_PER_DAY)
    values[0] = 1e-310
    moved = np.ones(SLOTS_PER_DAY)
    moved[0] = 0.1 * SLOTS_PER_DAY
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams):
            score(values, moved)


def test_an_overflowed_difference_at_an_excluded_slot_gives_no_divide_warning():
    """|delta| overflows to inf at slot 1, whose original share is negative:
    the divisor row makes that slot inf / inf, the day is refused, and the
    divide adds no warning to those the subtraction and products raise."""
    values, moved = np.zeros(SLOTS_PER_DAY), np.zeros(SLOTS_PER_DAY)
    values[:3] = (1e308, -1e308, 1.0)
    moved[:3] = (-1e308, 1e308, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidParams):
            score(values, moved)
    assert not [w for w in caught if "divide" in str(w.message)]


def test_day_result_validates_correlation_range():
    with pytest.raises(ValueError):
        result_for(1, 1.5, 3.0)


def retained_bytes(build):
    """The bytes that the list ``build()`` returns still holds, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained


def test_evaluate_day_results_retain_no_more_than_constructed_ones():
    """A result that ``evaluate_day`` builds without its constructor holds no more memory
    than one the constructor builds from fresh floats of the same values."""
    rng = np.random.default_rng(3)
    original, reconstructed = (day_of(rng.uniform(1.0, 300.0, SLOTS_PER_DAY)) for _ in range(2))
    baseline = staircase_baseline(aggregate(original, 2))
    evaluate_day(original, reconstructed, baseline, 2)  # the memo holds these terms from here on
    scored = retained_bytes(lambda: [evaluate_day(original, reconstructed, baseline, 2)
                                     for _ in range(10_000)])
    result = evaluate_day(original, reconstructed, baseline, 2)
    values = {f.name: getattr(result, f.name) for f in fields(DayResult)}

    def constructed():
        # v * 1.0 is a new float of the same value, as each scored result holds its own
        return DayResult(**{name: v * 1.0 if type(v) is float else v for name, v in values.items()})

    built = retained_bytes(lambda: [constructed() for _ in range(10_000)])
    assert scored <= built * 1.02, f"{scored} against {built} bytes"


def test_summarize_single_day():
    (summary,) = summarize([result_for(1, 0.97, 7.0)])
    assert summary.level == 1
    assert summary.window_minutes == 10
    assert summary.correlation_mean == summary.correlation_median
    assert summary.correlation_max == summary.correlation_min == 0.97
    assert summary.error_mean == summary.error_median == 7.0


def test_summarize_orders_levels_and_weights_stats():
    results = [
        result_for(4, 0.90, 12.0),
        result_for(1, 0.99, 6.0),
        result_for(1, 0.95, 8.0),
        result_for(4, 0.92, 10.0),
    ]
    summaries = summarize(results)
    assert [s.level for s in summaries] == [1, 4]
    level1 = summaries[0]
    assert level1.correlation_mean == pytest.approx(0.97)
    assert level1.correlation_median == 0.95  # lower-middle for even counts
    assert level1.correlation_max == 0.99
    assert level1.correlation_min == 0.95
    assert level1.error_median == 6.0
    assert level1.window_minutes == 10
    assert summaries[1].window_minutes == 80


def test_summarize_lower_median_of_evaluated_days():
    rng = np.random.default_rng(15)
    results = []
    for noise in (0.5, 0.1, 0.4, 0.2):  # four days: an even count
        original = rng.uniform(10.0, 100.0, SLOTS_PER_DAY)
        results.append(score(original, original + rng.normal(0.0, noise * 50.0, SLOTS_PER_DAY)))
    (summary,) = summarize(results)
    correlations = sorted(r.correlation for r in results)
    errors = sorted(r.error_pct for r in results)
    assert summary.correlation_median == correlations[1] < correlations[2]
    assert summary.error_median == errors[1] < errors[2]
    assert summary.error_mean == pytest.approx(sum(errors) / 4)


def test_summarize_permutation_invariant():
    rng = np.random.default_rng(11)
    results = [
        result_for(lvl, float(rng.uniform(0.9, 0.99)), float(rng.uniform(5, 15)))
        for lvl in (1, 2, 3, 4)
        for _ in range(6)
    ]
    base = summarize(results)
    shuffled = list(results)
    rng.shuffle(shuffled)
    again = summarize(shuffled)
    assert base == again


def test_summarize_min_median_max_ordering():
    rng = np.random.default_rng(14)
    results = [
        result_for(2, float(rng.uniform(0.9, 0.99)), float(rng.uniform(5, 15)))
        for _ in range(9)
    ]
    (summary,) = summarize(results)
    assert summary.correlation_min <= summary.correlation_median <= summary.correlation_max
    assert summary.error_min <= summary.error_median <= summary.error_max


def test_summarize_empty():
    with pytest.raises(EmptyResults):
        summarize([])
