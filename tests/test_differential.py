"""Closed-form reconstruction and cached scoring against their references.

``reconstruct_day`` is checked against the paper's Haar path (forward
transform of the donor, counts swapped in as the approximation, inverse
transform). ``evaluate_day`` is checked against the composition it
replaced of ``normalize_percent``, ``pearson``, ``mean_abs_pct_error`` and
``share_mean_abs_diff``, kept in ``tests/metric_reference.py``; that
normaliser checks shares with its own ``check_shares``, not with the
package's ``share_row``. The check also runs with ``evaluate_day``'s
one-entry memo of the original's and the baseline's terms warm:
across reconstructions, interleaved pairs, values mutated in place, new
dates, threads, error cases, the subnormal-share boundary and an
overflowing difference at an excluded slot. The relative error term and
every ``summarize`` row are checked bitwise against the masked divide and
the per-metric statistics they replaced. Each profile's table of detail
residuals is checked bitwise against the expression a profile once
evaluated lazily, on the first read of each level.
"""

import dataclasses
import math
import pickle
import sys
import threading
from dataclasses import fields
from datetime import date

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flowrecon import metrics
from flowrecon.errors import FlowReconError, InvalidParams, ZeroDailyTotal
from flowrecon.haar import WaveletDecomposition, haar_forward, haar_inverse
from flowrecon.ingest import BASE_WINDOW_MINUTES, SLOTS_PER_DAY, DaySignal, aggregate
from flowrecon.matrix import MatrixProfile, build_matrix_scenario1, build_matrix_scenario2
from flowrecon.metrics import DayResult, LevelSummary, evaluate_day, summarize
from flowrecon.reconstruct import reconstruct_day, share_row, staircase_baseline

from metric_reference import mean_abs_pct_error, normalize_percent, pearson, share_mean_abs_diff

DAY = date(2012, 4, 10)
DONOR_DATES = [date(2012, 4, 3), date(2012, 4, 4), date(2012, 4, 5)]

flows = hnp.arrays(float, SLOTS_PER_DAY, elements=st.floats(0.0, 1000.0))


@st.composite
def near_empty_flows(draw):
    """A day carrying 0-5 vehicles in a handful of slots, zero everywhere else."""
    values = np.zeros(SLOTS_PER_DAY)
    for _ in range(draw(st.integers(0, 5))):
        values[draw(st.integers(0, SLOTS_PER_DAY - 1))] += 1.0
    return values


target_flows = st.one_of(flows, near_empty_flows())


def haar_path(matrix, agg, level, rescale):
    details = haar_forward(matrix.values, level).details
    approx = agg.values / 2 ** (level / 2) if rescale else agg.values
    return haar_inverse(WaveletDecomposition(level, approx, details))


def reference_evaluate(original, reconstructed, baseline, level):
    orig = normalize_percent(original)
    recon = normalize_percent(reconstructed)
    base = normalize_percent(baseline)
    mape = mean_abs_pct_error(orig, recon)
    base_mape = mean_abs_pct_error(orig, base)
    return DayResult(
        date=original.date,
        level=level,
        correlation=pearson(orig.values, recon.values),
        error_pct=mape.error_pct,
        baseline_correlation=pearson(orig.values, base.values),
        baseline_error_pct=base_mape.error_pct,
        share_mad=share_mean_abs_diff(orig, recon),
        baseline_share_mad=share_mean_abs_diff(orig, base),
        excluded_slots=mape.excluded_slots,
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except FlowReconError as exc:
        return type(exc)


def assert_same_outcome(original, reconstructed, baseline, level):
    want = outcome(reference_evaluate, original, reconstructed, baseline, level)
    got = outcome(evaluate_day, original, reconstructed, baseline, level)
    if isinstance(want, type):
        assert got is want
        return
    assert isinstance(got, DayResult)
    # evaluate_day builds its result without the constructor's checks: each must pass them
    assert got == DayResult(**{f.name: getattr(got, f.name) for f in fields(DayResult)})
    for field in fields(DayResult):
        assert getattr(got, field.name) == pytest.approx(
            getattr(want, field.name), rel=1e-12, abs=1e-12
        ), field.name


def donor(scenario, donor_flows):
    days = [DaySignal(d, "s1", v) for d, v in zip(DONOR_DATES, donor_flows)]
    build = build_matrix_scenario1 if scenario == 1 else build_matrix_scenario2
    return build(days)


@settings(max_examples=150, deadline=None)
@given(
    donor_flows=st.lists(flows, min_size=1, max_size=3),
    target=target_flows,
    scenario=st.sampled_from((1, 2)),
    level=st.integers(1, 5),
    rescale=st.booleans(),
)
def test_closed_form_matches_haar_path(donor_flows, target, scenario, level, rescale):
    matrix = donor(scenario, donor_flows)
    agg = aggregate(DaySignal(DAY, "s1", target), level)
    got = reconstruct_day(matrix, agg, level, rescale).values
    want = haar_path(matrix, agg, level, rescale)
    scale = max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * scale)


@settings(max_examples=150, deadline=None)
@given(
    donor_flows=st.lists(flows, min_size=1, max_size=3),
    target=target_flows,
    scenario=st.sampled_from((1, 2)),
    level=st.integers(1, 5),
    rescale=st.booleans(),
)
def test_evaluate_day_matches_reference_composition(donor_flows, target, scenario, level, rescale):
    original = DaySignal(DAY, "s1", target)
    agg = aggregate(original, level)
    reconstructed = reconstruct_day(donor(scenario, donor_flows), agg, level, rescale)
    assert_same_outcome(original, reconstructed, staircase_baseline(agg), level)


@settings(max_examples=100, deadline=None)
@given(
    original=target_flows,
    reconstructed=hnp.arrays(float, SLOTS_PER_DAY, elements=st.floats(-1000.0, 1000.0)),
    baseline=target_flows,
)
def test_evaluate_day_matches_reference_on_signed_inputs(original, reconstructed, baseline):
    assert_same_outcome(
        DaySignal(DAY, "s1", original),
        DaySignal(DAY, "s1", reconstructed),
        DaySignal(DAY, "s1", baseline),
        3,
    )


RAMP = np.arange(1, SLOTS_PER_DAY + 1, dtype=float)
# 288 x 1e308: the total overflows to inf and every share is 0
OVERFLOWING = np.full(SLOTS_PER_DAY, 1e308)
# the partial sums overflow both ways, so the total is NaN
NAN_TOTAL = np.resize([1.7e308, -1.7e308], SLOTS_PER_DAY)
# heavy cancellation: the total rounds to 848 while the shares sum to 0.984375
CANCELLING = np.zeros(SLOTS_PER_DAY)
CANCELLING[[145, 185, 231, 261]] = [632.0, -1e17, 1e17, 201.28]
# the total is 286 and the shares sum to one, but the centred norm overflows to inf
NORM_OVERFLOWING = np.ones(SLOTS_PER_DAY)
NORM_OVERFLOWING[:2] = (1e200, -1e200)


def clear_memo():
    assert hasattr(metrics, "_memo")  # a renamed memo would otherwise stay warm
    metrics._memo = None


def valid_triple(seed=0):
    """An original, reconstruction and baseline that all score."""
    rng = np.random.default_rng(seed)
    original = DaySignal(DAY, "s1", rng.uniform(0.0, 300.0, SLOTS_PER_DAY))
    agg = aggregate(original, 2)
    profile = donor(1, [rng.uniform(0.0, 300.0, SLOTS_PER_DAY)])
    return original, reconstruct_day(profile, agg, 2), staircase_baseline(agg)


def in_each_position(bad):
    return [tuple(bad if i == pos else RAMP for i in range(3)) for pos in range(3)]


@pytest.mark.parametrize(
    "original, reconstructed, baseline",
    [
        # zero totals, in each position
        (np.zeros(SLOTS_PER_DAY), np.ones(SLOTS_PER_DAY), np.ones(SLOTS_PER_DAY)),
        (np.arange(SLOTS_PER_DAY, dtype=float), np.zeros(SLOTS_PER_DAY), np.ones(SLOTS_PER_DAY)),
        (np.arange(SLOTS_PER_DAY, dtype=float), np.ones(SLOTS_PER_DAY), np.zeros(SLOTS_PER_DAY)),
        # all-zero original with a non-zero reconstruction and baseline
        (np.zeros(SLOTS_PER_DAY), np.arange(SLOTS_PER_DAY, dtype=float), np.ones(SLOTS_PER_DAY)),
        # constant signals, in each position
        (np.full(SLOTS_PER_DAY, 3.0), np.arange(SLOTS_PER_DAY, dtype=float), np.ones(SLOTS_PER_DAY)),
        (np.arange(1, SLOTS_PER_DAY + 1, dtype=float), np.full(SLOTS_PER_DAY, 7.0), np.ones(SLOTS_PER_DAY)),
        (np.arange(1, SLOTS_PER_DAY + 1, dtype=float), np.arange(SLOTS_PER_DAY, dtype=float), np.full(SLOTS_PER_DAY, 0.25)),
        # a zero total in a later row does not mask an earlier non-finite row
        (RAMP, NAN_TOTAL, np.zeros(SLOTS_PER_DAY)),
    ]
    # constant, with a float mean one rounding away from the value
    + in_each_position(np.full(SLOTS_PER_DAY, 13.0))
    + in_each_position(OVERFLOWING)
    + in_each_position(NAN_TOTAL)
    + in_each_position(CANCELLING)
    + in_each_position(NORM_OVERFLOWING),
)
@pytest.mark.parametrize("cache", ("cold", "valid pair", "same original"))
def test_evaluate_day_raises_like_reference(original, reconstructed, baseline, cache):
    days = [DaySignal(DAY, "s1", v) for v in (original, reconstructed, baseline)]
    want = outcome(reference_evaluate, *days, 2)
    assert isinstance(want, type) and issubclass(want, FlowReconError)
    clear_memo()
    if cache == "valid pair":
        evaluate_day(*valid_triple(), 2)
    elif cache == "same original":
        # warms the original's entry (valid or not) and a baseline entry for it
        outcome(evaluate_day, days[0], *valid_triple()[1:], 2)
    assert outcome(evaluate_day, *days, 2) is want


@settings(max_examples=100, deadline=None)
@given(
    donor_flows=st.lists(flows, min_size=1, max_size=3),
    target=hnp.arrays(float, SLOTS_PER_DAY, elements=st.floats(1.0, 1000.0)),
    slot=st.integers(0, SLOTS_PER_DAY - 1),
    tiny=st.floats(1e-315, 1e-306),
    scenario=st.sampled_from((1, 2)),
    level=st.integers(1, 5),
    rescale=st.booleans(),
)
def test_evaluate_day_matches_reference_on_a_subnormal_original_share(
    donor_flows, target, slot, tiny, scenario, level, rescale
):
    """Dividing by a subnormal share can overflow: then both sides refuse the
    day with ``InvalidParams``, else they agree on a finite error."""
    target[slot] = tiny
    original = DaySignal(DAY, "s1", target)
    assume(0 < normalize_percent(original).values[slot] < np.finfo(float).smallest_normal)
    agg = aggregate(original, level)
    reconstructed = reconstruct_day(donor(scenario, donor_flows), agg, level, rescale)
    assert_same_outcome(original, reconstructed, staircase_baseline(agg), level)


@pytest.mark.parametrize("value", (0.1, 13.0))
@pytest.mark.parametrize("position", range(3))
def test_nearly_constant_rows_score_like_reference(value, position):
    """One slot a single ulp above a constant: the row varies, with a norm far below 1e-12."""
    nudged = np.full(SLOTS_PER_DAY, value)
    nudged[7] = np.nextafter(value, np.inf)
    rows = [RAMP if i != position else nudged for i in range(3)]
    days = [DaySignal(DAY, "s1", v) for v in rows]
    assert isinstance(reference_evaluate(*days, 2), DayResult)
    assert_same_outcome(*days, 2)


def test_memo_serves_many_reconstructions_and_interleaved_pairs():
    clear_memo()
    original, _, baseline = valid_triple(1)
    agg = aggregate(original, 2)
    rng = np.random.default_rng(2)
    for scenario in (1, 2):
        profile = donor(scenario, [rng.uniform(0.0, 300.0, SLOTS_PER_DAY) for _ in range(2)])
        for rescale in (False, True):
            recon = reconstruct_day(profile, agg, 2, rescale)
            assert_same_outcome(original, recon, baseline, 2)
    a, b = valid_triple(3), valid_triple(4)
    for triple in (a, b, a, b, a):
        assert_same_outcome(*triple, 2)
    # the same original against another baseline, then the first one again
    for pair_baseline in (b[2], a[2], b[2]):
        assert_same_outcome(a[0], a[1], pair_baseline, 2)


def test_memo_scores_each_original_and_baseline_once(monkeypatch):
    """Counts the rows whose shares are computed: one per original day, one
    per baseline of a day and level, one per reconstruction."""
    rows = []
    centred_row = metrics._centred_row

    def counted(values):
        rows.append(values)
        return centred_row(values)

    monkeypatch.setattr(metrics, "_centred_row", counted)

    def rows_scored(calls):
        clear_memo()
        rows.clear()
        for args in calls:
            evaluate_day(*args)
        return len(rows)

    rng = np.random.default_rng(7)
    profiles = [donor(s, [rng.uniform(0.0, 300.0, SLOTS_PER_DAY)]) for s in (1, 2)]

    def sweep(original):
        # the recon-sweep plan: levels 1-5 x S1/S2 x raw/rescaled, level-major
        for level in range(1, 6):
            agg = aggregate(original, level)
            baseline = staircase_baseline(agg)
            for profile in profiles:
                for rescale in (False, True):
                    yield original, reconstruct_day(profile, agg, level, rescale), baseline, level

    days = [valid_triple(seed)[0] for seed in (20, 21)]
    assert rows_scored(args for day in days for args in sweep(day)) == 26 * len(days)
    triples = [valid_triple(seed) for seed in range(20, 24)]
    assert rows_scored((*t, 2) for t in triples) == 3 * len(triples)
    a, b = valid_triple(3), valid_triple(4)
    interleaved = [(*t, 2) for t in (a, b, a, b, a)]
    # the same original against another baseline, then the first one again
    interleaved += [(a[0], a[1], base, 2) for base in (b[2], a[2], b[2])]
    assert rows_scored(interleaved) == 21


def test_memo_follows_values_mutated_in_place():
    original, recon, baseline = valid_triple(5)
    assert_same_outcome(original, recon, baseline, 2)
    before = evaluate_day(original, recon, baseline, 2)
    original.values[:10] *= 3.0
    assert_same_outcome(original, recon, baseline, 2)
    assert evaluate_day(original, recon, baseline, 2) != before
    baseline.values[100:140] = 0.0
    assert_same_outcome(original, recon, baseline, 2)
    original.values[:] = 0.0
    assert_same_outcome(original, recon, baseline, 2)
    assert outcome(evaluate_day, original, recon, baseline, 2) is ZeroDailyTotal


def test_memo_returns_the_callers_date():
    original, recon, baseline = valid_triple(6)
    later = DaySignal(date(2013, 1, 2), "s1", original.values.copy())
    first = evaluate_day(original, recon, baseline, 2)
    second = evaluate_day(later, recon, baseline, 2)
    assert first.date == DAY and second.date == later.date
    assert_same_outcome(later, recon, baseline, 2)
    assert dataclasses.replace(second, date=DAY) == first


def test_memo_is_consistent_across_threads():
    triples = [valid_triple(seed) for seed in range(10, 16)]
    want = [evaluate_day(*t, 2) for t in triples]
    for t in triples:
        assert_same_outcome(*t, 2)
    errors = []

    def score(offset):
        # each thread walks the pairs in its own order, so the one-entry memo thrashes
        try:
            for i in range(60):
                k = (i * (offset + 1) + offset) % len(triples)
                got = evaluate_day(*triples[k], 2)
                if got != want[k]:
                    errors.append((offset, k, got))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append((offset, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=score, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def boundary_original(share):
    """A day whose slot 0 holds exactly ``share`` of a 512-vehicle total."""
    values = np.zeros(SLOTS_PER_DAY)
    values[1:257] = 2.0
    values[0] = share * 512.0  # exact: a power-of-two scale
    day = DaySignal(DAY, "s1", values)
    assert normalize_percent(day).values[0] == share
    return day


# slot 0 share 9 of a unit total: 9 / share overflows at the boundary shares
OVERSHOOT = np.zeros(SLOTS_PER_DAY)
OVERSHOOT[:3] = (9.0, -8.5, 0.5)


@pytest.mark.parametrize(
    "share",
    (np.finfo(float).tiny, np.nextafter(np.finfo(float).tiny, 0.0)),
    ids=("smallest normal", "largest subnormal"),
)
@pytest.mark.parametrize("recon_values", (RAMP, OVERSHOOT), ids=("ramp", "overshoot"))
def test_subnormal_share_boundary_matches_reference(share, recon_values):
    clear_memo()
    original = boundary_original(share)
    recon = DaySignal(DAY, "s1", recon_values)
    baseline = staircase_baseline(aggregate(original, 2))
    with np.errstate(over="ignore"):
        want = outcome(reference_evaluate, original, recon, baseline, 2)
        assert_same_outcome(original, recon, baseline, 2)
        got = outcome(evaluate_day, original, recon, baseline, 2)
    if recon_values is OVERSHOOT:  # the error overflows to inf: the day is refused
        assert want is got is InvalidParams
        return
    assert math.isfinite(got.error_pct) and math.isfinite(want.error_pct)
    assert math.isfinite(got.baseline_error_pct) and math.isfinite(want.baseline_error_pct)


def test_overflowing_difference_at_an_excluded_slot_matches_reference():
    """|delta| is inf at slot 0 and at slot 1, whose original share is
    negative: the reference excludes slot 1 from the error, the divisor row
    makes it NaN, and either way the share MAD is inf, so both refuse the day
    with ``InvalidParams``."""
    original, recon = np.zeros(SLOTS_PER_DAY), np.zeros(SLOTS_PER_DAY)
    original[:3] = (1e308, -1e308, 1.0)
    recon[:3] = (-1e308, 1e308, 1.0)
    days = [DaySignal(DAY, "s1", v) for v in (original, recon, RAMP)]
    clear_memo()
    with np.errstate(over="ignore", invalid="ignore"):
        want = outcome(reference_evaluate, *days, 2)
        for _ in range(2):  # cold, then with this triple's terms cached
            assert_same_outcome(*days, 2)
        got = outcome(evaluate_day, *days, 2)
    assert want is got is InvalidParams


def masked_relative_error(diff, shares):
    """The relative error term as the masked divide before the divisor row wrote it."""
    return np.divide(diff, shares, out=np.zeros(diff.size), where=shares > 0).sum()


# zero, signed-zero, negative and subnormal counts next to ordinary ones
signed_counts = hnp.arrays(
    float,
    SLOTS_PER_DAY,
    elements=st.one_of(
        st.floats(-1000.0, 1000.0),
        st.sampled_from((0.0, -0.0, -1.0, 5e-324, 1e-310, -1e-310)),
    ),
)


# both signed rows must pass share_row, which many draws fail, so hypothesis's filter
# health check failed some runs at random; every kept draw is checked as before
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(original=signed_counts, row=signed_counts)
def test_divisor_row_error_equals_the_masked_divide_bitwise(original, row):
    try:
        orig_shares, _ = share_row(original)
        row_shares, _ = share_row(row)
    except FlowReconError:
        reject()
    terms = metrics._original_terms(original)
    assert terms.kept == np.count_nonzero(orig_shares > 0)
    with np.errstate(over="ignore"):
        diff = np.abs(row_shares - orig_shares)
        want = masked_relative_error(diff, orig_shares)
    error, mad, _, _ = metrics._row_terms(row, terms)
    if math.isnan(error):  # inf / inf: |delta| overflowed at an excluded slot
        assert not np.isfinite(diff[orig_shares <= 0]).all() and mad == math.inf
    else:
        assert error.hex() == float(want).hex()


def stats_before(values):
    """Mean, lower median, max and min as ``summarize`` computed each metric before its loop."""
    ordered = sorted(values)
    return (
        float(np.mean(ordered)),
        float(ordered[(len(ordered) - 1) // 2]),
        float(ordered[-1]),
        float(ordered[0]),
    )


def summarize_before(results):
    by_level = {}
    for res in results:
        by_level.setdefault(res.level, []).append(res)
    return [
        LevelSummary(
            level,
            BASE_WINDOW_MINUTES << level,
            *stats_before([r.correlation for r in by_level[level]]),
            *stats_before([r.error_pct for r in by_level[level]]),
            *stats_before([r.baseline_correlation for r in by_level[level]]),
            *stats_before([r.baseline_error_pct for r in by_level[level]]),
        )
        for level in sorted(by_level)
    ]


correlations = st.floats(-1.0, 1.0)
errors = st.floats(0.0, 1e6)
day_results = st.builds(
    DayResult,
    date=st.just(DAY),
    level=st.integers(1, 5),
    correlation=correlations,
    error_pct=errors,
    baseline_correlation=correlations,
    baseline_error_pct=errors,
    share_mad=st.just(0.001),
    baseline_share_mad=st.just(0.002),
    excluded_slots=st.integers(0, SLOTS_PER_DAY - 1),
)


@settings(max_examples=200, deadline=None)
@given(results=st.lists(day_results, min_size=1, max_size=40), rnd=st.randoms(use_true_random=False))
def test_summarize_equals_the_per_metric_stats_bitwise(results, rnd):
    rnd.shuffle(results)
    got, want = summarize(results), summarize_before(results)
    assert [s.level for s in got] == [s.level for s in want]
    for g, w in zip(got, want):
        for field in fields(LevelSummary):
            assert float(getattr(g, field.name)).hex() == float(getattr(w, field.name)).hex()


@pytest.mark.parametrize("scenario", (1, 2))
def test_cached_residual_is_stable_and_matches_haar_path(scenario):
    rng = np.random.default_rng(11)
    matrix = donor(scenario, [rng.uniform(0, 300, SLOTS_PER_DAY) for _ in DONOR_DATES])
    original = DaySignal(DAY, "s1", rng.uniform(0, 300, SLOTS_PER_DAY))
    for level in range(1, 6):
        agg = aggregate(original, level)
        for rescale in (False, True):
            first = reconstruct_day(matrix, agg, level, rescale).values
            again = reconstruct_day(matrix, agg, level, rescale).values
            assert np.array_equal(first, again)
            want = haar_path(matrix, agg, level, rescale)
            np.testing.assert_allclose(first, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


def test_profile_owns_a_frozen_copy_of_its_values():
    rng = np.random.default_rng(12)
    values = rng.uniform(0, 300, SLOTS_PER_DAY)
    matrix = MatrixProfile(values, 1, tuple(DONOR_DATES))
    agg = aggregate(DaySignal(DAY, "s1", rng.uniform(0, 300, SLOTS_PER_DAY)), 3)
    before = reconstruct_day(matrix, agg, 3).values.copy()
    kept = values.copy()
    values[:] = 0.0
    assert np.array_equal(matrix.values, kept)
    assert np.array_equal(reconstruct_day(matrix, agg, 3).values, before)
    with pytest.raises(ValueError):
        matrix.values[0] = 1.0


def lazy_residual(matrix, level):
    """The residual as a profile once computed it on its first read of a level,
    as blocks, raveled to the profile's flat row."""
    block = 1 << level
    blocks = matrix.values.reshape(-1, block)
    return (blocks - blocks.sum(axis=1, keepdims=True) * (1.0 / block)).ravel()


@settings(max_examples=100, deadline=None)
@given(
    donor_flows=st.lists(
        st.one_of(flows, hnp.arrays(float, SLOTS_PER_DAY, elements=st.floats(-1e200, 1e200))),
        min_size=1,
        max_size=3,
    ),
    scenario=st.sampled_from((1, 2)),
)
def test_residual_table_equals_the_lazy_expression_bitwise(donor_flows, scenario):
    matrix = donor(scenario, donor_flows)
    for level in range(1, 6):
        got, want = matrix.residual(level), lazy_residual(matrix, level)
        assert got.shape == want.shape == (SLOTS_PER_DAY,)
        assert got.tobytes() == want.tobytes()  # bitwise: 0.0 and -0.0 differ here
        assert not got.flags.writeable and matrix.residual(level) is got


@settings(max_examples=100, deadline=None)
@given(
    donor_flows=st.lists(
        st.one_of(flows, hnp.arrays(float, SLOTS_PER_DAY, elements=st.floats(-1e200, 1e200))),
        min_size=1,
        max_size=3,
    )
)
def test_scenario2_profile_equals_the_repeated_block_means_bitwise(donor_flows):
    """The builder's expression before the window table: ``np.repeat`` of the block means."""
    mean = np.mean(donor_flows, axis=0)
    want = np.repeat(mean.reshape(-1, 4).mean(axis=1), 4)
    assert donor(2, donor_flows).values.tobytes() == want.tobytes()


def test_reading_a_residual_changes_nothing_in_the_profile():
    rng = np.random.default_rng(14)
    matrix = donor(2, [rng.uniform(0, 300, SLOTS_PER_DAY)])
    before = pickle.dumps(matrix)  # the profile's whole state, residuals included
    for level in range(1, 6):
        assert matrix.residual(level) is matrix.residual(level)
        assert matrix.residual(level).shape == (SLOTS_PER_DAY,)
        with pytest.raises(ValueError):
            matrix.residual(level)[0] = 1.0
    assert pickle.dumps(matrix) == before


def test_reconstruction_does_not_alias_the_cached_residual():
    rng = np.random.default_rng(13)
    matrix = donor(1, [rng.uniform(0, 300, SLOTS_PER_DAY)])
    agg = aggregate(DaySignal(DAY, "s1", rng.uniform(0, 300, SLOTS_PER_DAY)), 2)
    day = reconstruct_day(matrix, agg, 2)
    want = day.values.copy()
    day.values[:] = -1.0
    assert np.array_equal(reconstruct_day(matrix, agg, 2).values, want)
