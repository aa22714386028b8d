"""Dyadic Haar discrete wavelet transform, single level and multilevel.

Both filters carry the 1/sqrt(2) scale factor, so the transform is
orthonormal: signal energy equals coefficient energy at every depth and
the inverse rebuilds the input exactly (up to float rounding). Lengths
that 2**levels does not divide are rejected rather than padded, because
padding would silently distort boundary windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    LengthMismatch,
    LevelOutOfRange,
    NonFiniteValues,
    NotDyadicallyDivisible,
    OddLength,
    WrongShape,
)

SQRT2 = float(np.sqrt(2.0))


def _as_signal(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise WrongShape("signal must be a non-empty 1-D sequence of reals")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValues("signal values must be finite")
    return arr


def max_levels(length: int) -> int:
    """Largest k >= 0 such that 2**k divides ``length``.

    >>> max_levels(288)
    5
    """
    if length < 1:
        raise WrongShape("length must be >= 1")
    # count of trailing zero bits
    return (length & -length).bit_length() - 1


def haar_forward_level(values) -> tuple[np.ndarray, np.ndarray]:
    """One analysis level: per-pair scaled sums and differences.

    For each input pair ``(x[2i], x[2i+1])`` the approximation is
    ``(x[2i] + x[2i+1]) / sqrt(2)`` (low-pass) and the detail is
    ``(x[2i] - x[2i+1]) / sqrt(2)`` (high-pass); both outputs have half
    the input length.

    Raises
    ------
    OddLength
        If the input length is odd. No padding is applied.
    """
    x = _as_signal(values)
    if x.size % 2:
        raise OddLength(f"signal length {x.size} is odd")
    even, odd = x[0::2], x[1::2]
    return (even + odd) / SQRT2, (even - odd) / SQRT2


def haar_inverse_level(approximation, detail) -> np.ndarray:
    """Exact left-inverse of :func:`haar_forward_level`.

    Rebuilds ``x[2i] = (a[i] + d[i]) / sqrt(2)`` and
    ``x[2i+1] = (a[i] - d[i]) / sqrt(2)``.

    Raises
    ------
    LengthMismatch
        If the two coefficient vectors differ in length.
    """
    a = np.asarray(approximation, dtype=float)
    d = np.asarray(detail, dtype=float)
    if a.ndim != 1 or d.ndim != 1 or a.size != d.size:
        raise LengthMismatch(
            f"approximation length {a.size} != detail length {d.size}"
        )
    out = np.empty(2 * a.size)
    out[0::2] = (a + d) / SQRT2
    out[1::2] = (a - d) / SQRT2
    return out


@dataclass(frozen=True, eq=False)
class WaveletDecomposition:
    """Multilevel Haar decomposition of a length-N signal.

    ``approximation`` is the coarsest low-pass vector (length N / 2**levels);
    ``details`` holds one high-pass vector per level ordered finest first,
    so ``details[0]`` has length N/2 and ``details[levels-1]`` matches the
    approximation length. Coefficient counts always sum back to N.
    """

    levels: int
    approximation: np.ndarray
    details: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "approximation", np.asarray(self.approximation, dtype=float)
        )
        object.__setattr__(
            self, "details", tuple(np.asarray(d, dtype=float) for d in self.details)
        )
        if self.levels < 1:
            raise LevelOutOfRange(f"levels must be >= 1, got {self.levels}")
        if len(self.details) != self.levels:
            raise LengthMismatch(
                f"expected {self.levels} detail vectors, got {len(self.details)}"
            )
        n = self.signal_length
        for j, det in enumerate(self.details, start=1):
            if det.size * (1 << j) != n:
                raise LengthMismatch(
                    f"detail level {j} has length {det.size}, expected {n >> j}"
                )

    @property
    def signal_length(self) -> int:
        return self.approximation.size << self.levels

    @property
    def coefficient_count(self) -> int:
        return self.approximation.size + sum(d.size for d in self.details)


def haar_forward(values, levels: int) -> WaveletDecomposition:
    """Decompose a signal over ``levels`` dyadic stages.

    Applies :func:`haar_forward_level` repeatedly to the running
    approximation, collecting the detail vector produced at each stage.

    Raises
    ------
    NotDyadicallyDivisible
        If 2**levels does not divide the signal length.
    """
    x = _as_signal(values)
    if levels < 1:
        raise LevelOutOfRange(f"levels must be >= 1, got {levels}")
    if x.size % (1 << levels):
        raise NotDyadicallyDivisible(f"2**{levels} does not divide signal length {x.size}")
    details = []
    approx = x
    for _ in range(levels):
        approx, det = haar_forward_level(approx)
        details.append(det)
    return WaveletDecomposition(levels, approx, tuple(details))


def haar_inverse(decomposition: WaveletDecomposition) -> np.ndarray:
    """Rebuild the signal from a decomposition, coarsest level first.

    An untouched decomposition round-trips to the original signal within
    float tolerance; malformed coefficient shapes raise
    :class:`LengthMismatch`.
    """
    x = decomposition.approximation
    for detail in reversed(decomposition.details):
        x = haar_inverse_level(x, detail)
    return x
