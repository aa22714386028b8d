import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flowrecon.haar import WaveletDecomposition, haar_forward, haar_inverse, max_levels

from refusal import refused

ROOT2 = math.sqrt(2.0)


def forward_level(x):
    """One analysis step of the orthonormal two-tap filter, the transforms' reference."""
    x = np.asarray(x, dtype=float)
    even, odd = x[0::2], x[1::2]
    return (even + odd) / ROOT2, (even - odd) / ROOT2


def inverse_level(a, d):
    """Exact left-inverse of :func:`forward_level`."""
    out = np.empty(2 * a.size)
    out[0::2] = (a + d) / ROOT2
    out[1::2] = (a - d) / ROOT2
    return out


def pair_filter_oracle(xs):
    """Direct evaluation of the two-tap orthonormal filter, no numpy."""
    a = [(xs[i] + xs[i + 1]) / math.sqrt(2) for i in range(0, len(xs), 2)]
    d = [(xs[i] - xs[i + 1]) / math.sqrt(2) for i in range(0, len(xs), 2)]
    return a, d


def block_sum_oracle(xs, k):
    """Brute-force block sums of width 2**k."""
    width = 2 ** k
    return [math.fsum(xs[i : i + width]) for i in range(0, len(xs), width)]


def level_one(values):
    dec = haar_forward(values, 1)
    return dec.approximation, dec.details[0]


def test_level_one_forward_constant_pair():
    a, d = level_one([6, 6])
    np.testing.assert_allclose(a, [8.48528137423857], atol=1e-12)
    np.testing.assert_allclose(d, [0.0], atol=1e-12)


def test_level_one_forward_matches_filter_oracle():
    signal = [4, 2, 6, 6]
    a, d = level_one(signal)
    oa, od = pair_filter_oracle(signal)
    np.testing.assert_allclose(a, oa, atol=1e-12)
    np.testing.assert_allclose(d, od, atol=1e-12)
    # frozen values from the oracle
    np.testing.assert_allclose(a, [4.242640687119285, 8.48528137423857], atol=1e-12)
    np.testing.assert_allclose(d, [1.414213562373095, 0.0], atol=1e-12)


def test_level_one_forward_zero_signal():
    a, d = level_one([0, 0, 0, 0])
    assert np.array_equal(a, [0, 0])
    assert np.array_equal(d, [0, 0])


def test_forward_rejects_non_finite():
    with pytest.raises(ValueError):
        haar_forward([1.0, float("nan")], 1)


def test_level_one_inverse_constant_pair():
    x = haar_inverse(WaveletDecomposition(1, [8.48528137423857], ([0.0],)))
    np.testing.assert_allclose(x, [6, 6], atol=1e-12)


def test_level_one_inverse_undoes_forward():
    dec = WaveletDecomposition(1, [4.242640687119285, 8.48528137423857], ([1.414213562373095, 0.0],))
    np.testing.assert_allclose(haar_inverse(dec), [4, 2, 6, 6], atol=1e-12)


def test_level_one_inverse_zero():
    np.testing.assert_array_equal(haar_inverse(WaveletDecomposition(1, [0], ([0],))), [0, 0])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), pairs=st.integers(1, 144))
def test_transforms_equal_the_single_level_composition_bitwise(data, pairs):
    """Any finite signal of even length up to 288, at every level 1 to max_levels(n);
    where a coefficient or a rebuilt value of the composition overflows, the
    transform raises ``"non-finite"`` instead."""
    n = 2 * pairs
    level = data.draw(st.integers(1, max_levels(n)), label="level")
    x = data.draw(hnp.arrays(float, n, elements=st.floats(allow_nan=False, allow_infinity=False)))
    with np.errstate(over="ignore", invalid="ignore"):
        approx, details = x, []
        for _ in range(level):
            approx, detail = forward_level(approx)
            details.append(detail)
        rebuilt = approx
        for detail in reversed(details):
            rebuilt = inverse_level(rebuilt, detail)
    if not all(np.isfinite(v).all() for v in (approx, *details)):
        with refused("non-finite"):
            haar_forward(x, level)
        return
    dec = haar_forward(x, level)
    if not np.isfinite(rebuilt).all():
        with refused("non-finite"):
            haar_inverse(dec)
        return
    got = haar_inverse(dec)
    assert dec.approximation.tobytes() == approx.tobytes()
    assert [d.tobytes() for d in dec.details] == [d.tobytes() for d in details]
    assert got.tobytes() == rebuilt.tobytes()


def test_forward_refuses_an_overflowing_pair_sum_without_a_warning():
    """The pair sums of 1e308 overflow at level 1, which would give the
    approximation ``[inf]`` and the details ``[0, 0]``, ``[nan]``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with refused("non-finite"):
            haar_forward(np.full(4, 1e308), 2)


def test_inverse_refuses_an_overflowing_rebuild_without_a_warning():
    """Finite coefficients whose sum overflows, which would rebuild ``[inf, 0.]``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with refused("non-finite"):
            haar_inverse(WaveletDecomposition(1, [1.5e308], ([1.5e308],)))


def test_multilevel_constant_signal():
    dec = haar_forward([1, 1, 1, 1], 2)
    np.testing.assert_allclose(dec.approximation, [2.0], atol=1e-12)
    np.testing.assert_allclose(dec.details[1], [0.0], atol=1e-12)
    np.testing.assert_allclose(dec.details[0], [0.0, 0.0], atol=1e-12)


def test_multilevel_two_stages():
    dec = haar_forward([4, 2, 6, 6], 2)
    np.testing.assert_allclose(dec.approximation, [9.0], atol=1e-12)
    np.testing.assert_allclose(dec.details[1], [-3.0], atol=1e-12)
    np.testing.assert_allclose(dec.details[0], [1.414213562373095, 0.0], atol=1e-12)


def test_multilevel_coefficient_lengths_for_day_grid():
    rng = np.random.default_rng(7)
    dec = haar_forward(rng.normal(size=288), 5)
    assert dec.approximation.size == 9
    assert [d.size for d in dec.details] == [144, 72, 36, 18, 9]


def test_forward_rejects_non_dyadic_lengths():
    with refused("shape", "does not divide signal length"):
        haar_forward([1, 2, 3, 4, 5, 6], 2)
    with refused("shape", "does not divide signal length"):
        haar_forward(np.ones(7), 1)
    with refused("level", "levels must be an int"):
        haar_forward([1, 2], 0)


def test_roundtrip_small():
    x = [1, 3, 5, 7]
    out = haar_inverse(haar_forward(x, 2))
    assert np.max(np.abs(out - np.asarray(x, float))) < 1e-12


def test_inverse_of_frozen_coefficients():
    dec = WaveletDecomposition(2, [9.0], ([1.414213562373095, 0.0], [-3.0]))
    np.testing.assert_allclose(haar_inverse(dec), [4, 2, 6, 6], atol=1e-12)


def test_single_window_staircase_reconstruction():
    # one coarse coefficient c * 2**(k/2) with zero details spreads back to c
    k, c = 3, 2.5
    dec = WaveletDecomposition(
        k, [c * 2 ** (k / 2)], (np.zeros(4), np.zeros(2), np.zeros(1))
    )
    np.testing.assert_allclose(haar_inverse(dec), np.full(8, c), atol=1e-12)


@pytest.mark.parametrize(
    "levels, approximation, details",
    [
        (2, [1.0], ([1.0, 2.0, 3.0], [0.5])),
        (1, [1.0, 2.0], ()),
        (1, [1.0, 2.0], ([3.0],)),  # details shorter than the approximation
        (1, [[1.0]], ([1.0],)),  # a 2-D approximation
        (1, [1.0], ([[1.0]],)),  # a 2-D detail of the right size
    ],
)
def test_malformed_decomposition_rejected(levels, approximation, details):
    """Refused when built, before any inverse step."""
    with refused("shape", "-level decomposition"):
        WaveletDecomposition(levels, approximation, details)


def test_empty_decomposition_rejected_as_forward_rejects_an_empty_signal():
    with refused("shape", "non-empty"):
        haar_forward([], 1)
    with refused("shape", "non-empty"):
        WaveletDecomposition(1, [], ([],))


def test_max_levels():
    assert max_levels(288) == 5
    assert max_levels(7) == 0
    assert max_levels(1024) == 10
    assert max_levels(1) == 0
    with pytest.raises(ValueError):
        max_levels(0)


def test_roundtrip_property():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        x = rng.normal(scale=50.0, size=288)
        out = haar_inverse(haar_forward(x, k))
        assert np.max(np.abs(out - x)) < 1e-9


def test_parseval_energy_property():
    rng = np.random.default_rng(99)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        x = rng.normal(scale=20.0, size=288)
        dec = haar_forward(x, k)
        coef_energy = np.sum(dec.approximation**2) + sum(
            np.sum(d**2) for d in dec.details
        )
        sig_energy = np.sum(x**2)
        assert abs(coef_energy - sig_energy) <= 1e-9 * sig_energy


def test_constant_signal_has_zero_details_everywhere():
    for c in (0.0, 1.0, -3.25, 417.0):
        dec = haar_forward(np.full(288, c), 5)
        for d in dec.details:
            assert np.max(np.abs(d)) == 0.0


def test_linearity_of_forward_transform():
    rng = np.random.default_rng(5)
    s, t = rng.normal(size=96), rng.normal(size=96)
    a, b = 2.5, -1.25
    dec_mix = haar_forward(a * s + b * t, 3)
    dec_s, dec_t = haar_forward(s, 3), haar_forward(t, 3)
    np.testing.assert_allclose(
        dec_mix.approximation,
        a * dec_s.approximation + b * dec_t.approximation,
        atol=1e-9,
    )
    for dm, ds, dt in zip(dec_mix.details, dec_s.details, dec_t.details):
        np.testing.assert_allclose(dm, a * ds + b * dt, atol=1e-9)


def test_size_preservation_at_every_depth():
    rng = np.random.default_rng(11)
    x = rng.normal(size=288)
    for k in range(1, 6):
        dec = haar_forward(x, k)
        assert dec.approximation.size + sum(d.size for d in dec.details) == 288
        assert dec.approximation.size * 2**k == 288


def test_approximation_matches_block_sum_oracle():
    rng = np.random.default_rng(31)
    x = rng.uniform(0, 300, size=288)
    for k in range(1, 6):
        dec = haar_forward(x, k)
        expected = np.asarray(block_sum_oracle(x.tolist(), k)) / 2 ** (k / 2)
        assert np.max(np.abs(dec.approximation - expected)) < 1e-9
