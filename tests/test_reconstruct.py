import json
from datetime import date, datetime, time, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrecon.errors import LevelMismatch, LevelOutOfRange, ZeroDailyTotal
from flowrecon.haar import WaveletDecomposition, haar_forward, haar_inverse
from flowrecon.ingest import (
    SLOT_CLOCKS,
    SLOT_OF,
    SLOT_TIMES,
    SLOTS_PER_DAY,
    AggregatedSignal,
    DaySignal,
    aggregate,
)
from flowrecon.matrix import build_matrix_scenario1, build_matrix_scenario2
from flowrecon.metrics import evaluate_day
from flowrecon.reconstruct import (
    reconstruct_day,
    share_row,
    staircase_baseline,
    write_reconstruction_csv,
    write_reconstruction_json,
)

DAY = date(2012, 4, 10)


def bimodal_day(rng, day=DAY, total=24000.0, sensor="s1"):
    slots = np.arange(SLOTS_PER_DAY, dtype=float)
    shape = (
        0.30 / SLOTS_PER_DAY
        + 0.32 * np.exp(-0.5 * ((slots - 93) / 11) ** 2) / 27.0
        + 0.38 * np.exp(-0.5 * ((slots - 212) / 16) ** 2) / 40.0
    )
    values = total * shape * (1.0 + rng.normal(0, 0.05, SLOTS_PER_DAY))
    return DaySignal(day, sensor, np.clip(values, 0, None))


def constant_matrix(value=10.0):
    day = DaySignal(date(2012, 3, 6), "s1", np.full(SLOTS_PER_DAY, value))
    return build_matrix_scenario1([day])


def zero_details(levels):
    return tuple(np.zeros(SLOTS_PER_DAY >> j) for j in range(1, levels + 1))


def approximation_part(agg, level):
    """Inverse transform of the counts as the approximation, with zero details."""
    return haar_inverse(WaveletDecomposition(level, agg.values, zero_details(level)))


def detail_part(matrix, level):
    """Inverse transform of the donor's details, with a zero approximation."""
    details = haar_forward(matrix.values, level).details
    return haar_inverse(WaveletDecomposition(level, np.zeros(SLOTS_PER_DAY >> level), details))


def scaled_staircase(agg, level, rescale=False):
    """c_k * counts spread over each window: the reconstruction under zero donor detail."""
    scale = 2.0 ** (-level if rescale else -level / 2)
    return np.repeat(agg.values * scale, 1 << level)


def test_extract_details_constant_matrix_is_all_zero():
    # a constant donor has no detail, so the output is exactly c_k * staircase
    rng = np.random.default_rng(3)
    day = bimodal_day(rng)
    for level in range(1, 6):
        agg = aggregate(day, level)
        for rescale in (False, True):
            recon = reconstruct_day(constant_matrix(), agg, level, rescale)
            assert np.array_equal(recon.values, scaled_staircase(agg, level, rescale))


def test_extract_details_scenario2_zero_fine_levels():
    rng = np.random.default_rng(4)
    days = [
        DaySignal(date(2012, 3, 6 + i), "s1", rng.uniform(10, 300, SLOTS_PER_DAY))
        for i in range(3)
    ]
    matrix = build_matrix_scenario2(days)
    day = bimodal_day(rng)
    for level in (1, 2, 3, 4):
        agg = aggregate(day, level)
        residual = reconstruct_day(matrix, agg, level).values - scaled_staircase(agg, level)
        if level <= 2:
            assert np.max(np.abs(residual)) == 0.0
        else:
            assert np.max(np.abs(residual)) > 0


def test_extract_details_level1_matches_pair_differences():
    rng = np.random.default_rng(6)
    days = [DaySignal(date(2012, 3, 6), "s1", rng.uniform(0, 300, SLOTS_PER_DAY))]
    profile = build_matrix_scenario1(days)
    agg = aggregate(bimodal_day(rng), 1)
    residual = reconstruct_day(profile, agg, 1).values - scaled_staircase(agg, 1)
    half_diff = (profile.values[0::2] - profile.values[1::2]) / 2
    np.testing.assert_allclose(residual[0::2], half_diff, atol=1e-12)
    np.testing.assert_allclose(residual[1::2], -half_diff, atol=1e-12)


def test_extract_details_level_bounds():
    agg = aggregate(bimodal_day(np.random.default_rng(7)), 1)
    for bad in (0, 6):
        with pytest.raises(LevelOutOfRange):
            reconstruct_day(constant_matrix(), agg, bad)


def test_substitute_shapes_and_mismatch():
    rng = np.random.default_rng(9)
    day = bimodal_day(rng)
    recon = reconstruct_day(constant_matrix(), aggregate(day, 4), 4)
    assert recon.values.shape == (SLOTS_PER_DAY,)
    assert recon.date == day.date

    with pytest.raises(LevelMismatch):
        reconstruct_day(constant_matrix(), aggregate(day, 1), 4)


def test_zero_bank_inverse_is_scaled_staircase():
    rng = np.random.default_rng(12)
    day = bimodal_day(rng)
    for level in (1, 2, 3, 4):
        agg = aggregate(day, level)
        raw = approximation_part(agg, level)
        stair = staircase_baseline(agg)
        np.testing.assert_allclose(raw / 2 ** (level / 2), stair.values, atol=1e-9)
        # with the rescale flag the inverse IS the staircase
        rescaled = haar_inverse(
            WaveletDecomposition(level, agg.values / 2 ** (level / 2), zero_details(level))
        )
        np.testing.assert_allclose(rescaled, stair.values, atol=1e-9)


def test_self_consistency_rescale_path():
    rng = np.random.default_rng(15)
    day = bimodal_day(rng)
    matrix = build_matrix_scenario1([day])
    for level in (1, 2, 3, 4):
        recon = reconstruct_day(
            matrix, aggregate(day, level), level, rescale_approximation=True
        )
        assert np.max(np.abs(recon.values - day.values)) < 1e-9


def test_self_consistency_orthonormal_coefficients_directly():
    rng = np.random.default_rng(16)
    day = bimodal_day(rng)
    dec = haar_forward(day.values, 3)
    donor_details = haar_forward(build_matrix_scenario1([day]).values, 3).details
    rebuilt = haar_inverse(WaveletDecomposition(3, dec.approximation, donor_details))
    assert np.max(np.abs(rebuilt - day.values)) < 1e-9


def test_constant_matrix_and_day_reconstruct_constant():
    day = DaySignal(DAY, "s1", np.full(SLOTS_PER_DAY, 12.0))
    recon = reconstruct_day(constant_matrix(), aggregate(day, 2), 2)
    assert np.max(recon.values) - np.min(recon.values) < 1e-9


def test_wavelet_beats_staircase_on_similar_days():
    rng = np.random.default_rng(2012)
    matrix_days = [bimodal_day(rng, date(2012, 3, 6 + i)) for i in range(13)]
    matrix = build_matrix_scenario1(matrix_days)
    target = bimodal_day(rng, DAY)
    agg = aggregate(target, 4)
    recon = reconstruct_day(matrix, agg, 4)
    result = evaluate_day(target, recon, staircase_baseline(agg), 4)
    assert result.correlation > result.baseline_correlation


def test_share_row_shares():
    values = np.zeros(SLOTS_PER_DAY)
    values[0] = 5.0
    values[1] = 95.0
    pct, share_sum = share_row(values)
    assert pct[0] == pytest.approx(0.05)
    assert pct.sum() == pytest.approx(1.0) == share_sum


def test_share_row_constant_day():
    pct = share_row(np.full(SLOTS_PER_DAY, 7.0))[0]
    np.testing.assert_allclose(pct, 1.0 / SLOTS_PER_DAY, atol=1e-15)


def test_share_row_scale_invariance():
    rng = np.random.default_rng(21)
    day = bimodal_day(rng)
    base = share_row(day.values)[0]
    for c in (0.5, 2.0, 10.0):
        scaled = share_row(c * day.values)[0]
        assert np.max(np.abs(scaled - base)) < 1e-12


def test_share_row_zero_total():
    with pytest.raises(ZeroDailyTotal):
        share_row(np.zeros(SLOTS_PER_DAY))


@st.composite
def vehicle_days(draw, days):
    """``days`` rows of whole vehicles per slot (0-400), from dense to mostly zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occupied = rng.random((days, SLOTS_PER_DAY)) < draw(st.sampled_from((0.005, 0.05, 0.5, 1.0)))
    return rng.integers(0, 401, (days, SLOTS_PER_DAY)) * occupied.astype(float)


@settings(max_examples=300, deadline=None)
@given(
    donor_flows=st.integers(1, 5).flatmap(vehicle_days),
    target=vehicle_days(1),
    slot=st.integers(0, SLOTS_PER_DAY - 1),
    scenario=st.sampled_from((1, 2)),
)
def test_share_row_accepts_every_reconstruction_of_vehicle_counts(donor_flows, target, slot, scenario):
    """share_row's absolute ``|sum - 1| <= 1e-9`` never rejects a reconstruction
    of a day carrying at least one vehicle, at any level and in either mode."""
    target = target[0]
    target[slot] = max(target[slot], 1.0)
    days = [DaySignal(date(2012, 4, 3 + i), "s1", v) for i, v in enumerate(donor_flows)]
    profile = (build_matrix_scenario1 if scenario == 1 else build_matrix_scenario2)(days)
    original = DaySignal(DAY, "s1", target)
    for level in range(1, 6):
        agg = aggregate(original, level)
        for rescale in (False, True):
            share_row(reconstruct_day(profile, agg, level, rescale).values)


def test_staircase_uniform_spread():
    values = np.ones(SLOTS_PER_DAY)
    values[:16] = 10.0  # first 80-minute window sums to 160
    day = DaySignal(DAY, "s1", values)
    stair = staircase_baseline(aggregate(day, 4))
    assert np.all(stair.values[:16] == 10.0)


def test_staircase_level1_halving():
    values = np.ones(SLOTS_PER_DAY)
    values[0], values[1], values[2], values[3] = 1.0, 2.0, 3.0, 4.0
    stair = staircase_baseline(aggregate(DaySignal(DAY, "s1", values), 1))
    np.testing.assert_allclose(stair.values[:4], [1.5, 1.5, 3.5, 3.5])


def test_staircase_preserves_totals():
    rng = np.random.default_rng(33)
    day = bimodal_day(rng)
    for level in range(1, 6):
        agg = aggregate(day, level)
        assert staircase_baseline(agg).values.sum() == pytest.approx(
            agg.values.sum(), rel=1e-12
        )


def test_superposition_of_reconstruction():
    rng = np.random.default_rng(41)
    for _ in range(20):
        level = int(rng.integers(1, 5))
        matrix_day = DaySignal(DAY, "s1", rng.uniform(0, 300, SLOTS_PER_DAY))
        matrix = build_matrix_scenario1([matrix_day])
        day = bimodal_day(rng)
        agg = aggregate(day, level)
        recon = reconstruct_day(matrix, agg, level).values
        expected = approximation_part(agg, level) + detail_part(matrix, level)
        assert np.max(np.abs(recon - expected)) < 1e-9


def test_scale_decomposition_of_scaled_input():
    # reconstruct(c * agg) = c * approximation part + fixed detail part
    rng = np.random.default_rng(43)
    day = bimodal_day(rng)
    matrix = build_matrix_scenario1([DaySignal(DAY, "s1", rng.uniform(0, 200, SLOTS_PER_DAY))])
    level = 3
    agg = aggregate(day, level)
    approx = approximation_part(agg, level)
    detail = detail_part(matrix, level)
    for c in (0.5, 2.0, 10.0):
        scaled = AggregatedSignal(c * agg.values, agg.source_date, level)
        recon_c = reconstruct_day(matrix, scaled, level).values
        assert np.max(np.abs(recon_c - (c * approx + detail))) < 1e-9


def test_detail_bank_is_immutable_and_reused():
    # the donor profile is read, never written, and reuse gives identical output
    rng = np.random.default_rng(55)
    matrix = build_matrix_scenario1([bimodal_day(rng, date(2012, 3, 6))])
    snapshot = matrix.values.copy()
    agg = aggregate(bimodal_day(rng), 3)
    first = reconstruct_day(matrix, agg, 3).values
    for rescale in (False, True) * 3:
        again = reconstruct_day(matrix, agg, 3, rescale).values
        assert np.array_equal(matrix.values, snapshot)
        if not rescale:
            assert np.array_equal(again, first)


def test_output_length_is_always_full_grid():
    rng = np.random.default_rng(60)
    day = bimodal_day(rng)
    matrix = build_matrix_scenario1([day])
    for level in (1, 2, 3, 4):
        recon = reconstruct_day(matrix, aggregate(day, level), level)
        assert recon.values.size == SLOTS_PER_DAY


def test_reconstruction_export_csv_and_json(tmp_path):
    rng = np.random.default_rng(66)
    day = bimodal_day(rng)
    matrix = build_matrix_scenario1([bimodal_day(rng, date(2012, 3, 7))])
    agg = aggregate(day, 4)
    recon = reconstruct_day(matrix, agg, 4)
    total = float(agg.values.sum())

    csv_path = tmp_path / "recon.csv"
    clamped = write_reconstruction_csv(csv_path, recon, total, original=day)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "timestamp,share,count,original_count"
    assert len(lines) == SLOTS_PER_DAY + 1
    assert clamped >= 0

    json_path = tmp_path / "recon.json"
    clamped_json = write_reconstruction_json(json_path, recon, total, original=day)
    payload = json.loads(json_path.read_text())
    assert payload["clamped_slots"] == clamped == clamped_json
    assert len(payload["slots"]) == SLOTS_PER_DAY
    counts = np.array([s["count"] for s in payload["slots"]])
    assert np.all(counts >= 0)


@pytest.mark.parametrize(
    "day", [date(2012, 2, 29), date(2012, 12, 31), date(2024, 3, 31), date.min, date.max]
)
def test_slot_clocks_match_slot_times(day):
    assert len(SLOT_TIMES) == len(SLOT_CLOCKS) == len(SLOT_OF) == SLOTS_PER_DAY
    for slot, (start, clock) in enumerate(zip(SLOT_TIMES, SLOT_CLOCKS)):
        assert SLOT_OF[start] == slot and start.tzinfo is None
        stamp = datetime.combine(day, start)
        assert stamp == datetime.combine(day, time()) + timedelta(minutes=5 * slot)
        assert stamp.time() == start
        text = stamp.isoformat(timespec="minutes")
        assert clock == text[10:]
        assert day.isoformat() + clock == text
