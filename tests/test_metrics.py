import math
from datetime import date

import numpy as np
import pytest

from flowrecon.errors import (
    AllZeroOriginal,
    ConstantInput,
    EmptyResults,
    LengthMismatch,
)
from flowrecon.ingest import SLOTS_PER_DAY, DaySignal
from flowrecon.metrics import (
    DayResult,
    evaluate_day,
    mean_abs_pct_error,
    pearson,
    share_mean_abs_diff,
    summarize,
)

DAY = date(2012, 4, 10)


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


def test_day_result_validates_correlation_range():
    with pytest.raises(ValueError):
        result_for(1, 1.5, 3.0)


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
