"""Dyadic multilevel Haar discrete wavelet transform.

Both filters carry the 1/sqrt(2) scale factor, so the transform is
orthonormal: signal energy equals coefficient energy at every depth and
the inverse rebuilds the input exactly (up to float rounding). Lengths
that 2**levels does not divide are rejected rather than padded, because
padding would silently distort boundary windows. No other module of the
package imports this one: it is the oracle the closed-form reconstruction
is tested against, and lends that code nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    LengthMismatch,
    LevelOutOfRange,
    NonFiniteValues,
    NotDyadicallyDivisible,
    WrongShape,
)

SQRT2 = float(np.sqrt(2.0))


def _is_int(value) -> bool:
    """True for a Python or numpy integer; a bool or ``np.bool_`` is no int."""
    return type(value) is int or isinstance(value, np.integer)


def _check_levels(levels) -> None:
    if not (_is_int(levels) and levels >= 1):
        raise LevelOutOfRange(f"levels must be an int >= 1, got {levels!r}")


def _as_signal(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise WrongShape("signal must be a non-empty 1-D sequence of reals")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValues("signal values must be finite")
    return arr


def max_levels(length: int) -> int:
    """Largest k >= 0 such that 2**k divides ``length``, an int >= 1.

    >>> max_levels(288)
    5
    """
    if not (_is_int(length) and length >= 1):
        raise WrongShape(f"length must be an int >= 1, got {length!r}")
    n = int(length)  # a numpy int has no bit_length
    return (n & -n).bit_length() - 1  # count of trailing zero bits


@dataclass(frozen=True, eq=False)
class WaveletDecomposition:
    """Multilevel Haar decomposition of a length-N signal.

    ``approximation`` is the coarsest low-pass vector (length N / 2**levels);
    ``details`` holds one high-pass vector per level ordered finest first,
    so ``details[0]`` has length N/2 and ``details[levels-1]`` matches the
    approximation length. Every vector is 1-D, so coefficient counts always
    sum back to N; any other shapes raise :class:`LengthMismatch`, and an
    empty approximation (N = 0) raises :class:`WrongShape`.
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
        _check_levels(self.levels)
        if not self.approximation.size:  # as haar_forward refuses an empty signal
            raise WrongShape("approximation must be non-empty")
        m, shapes = self.approximation.size, [d.shape for d in self.details]
        fits = [(m << (self.levels - j),) for j in range(1, len(shapes) + 1)]
        if self.approximation.ndim != 1 or len(shapes) != self.levels or shapes != fits:
            raise LengthMismatch(
                f"approximation of shape {self.approximation.shape} and details of"
                f" shapes {shapes} are no {self.levels}-level decomposition"
            )


def haar_forward(values, levels: int) -> WaveletDecomposition:
    """Decompose a signal over ``levels`` dyadic stages.

    Each stage splits the running approximation ``x`` into pairs
    ``(x[2i], x[2i+1])``: ``(x[2i] + x[2i+1]) / sqrt(2)`` (low-pass) is the
    next approximation and ``(x[2i] - x[2i+1]) / sqrt(2)`` (high-pass) is
    the stage's detail vector, both half the length of ``x``.

    Raises
    ------
    LevelOutOfRange
        If ``levels`` is no int >= 1.
    NotDyadicallyDivisible
        If 2**levels does not divide the signal length.
    NonFiniteValues
        If the signal is not finite, or a coefficient overflows (no warning is
        printed for the overflow).
    """
    approx = _as_signal(values)
    _check_levels(levels)
    if max_levels(approx.size) < levels:
        raise NotDyadicallyDivisible(f"2**{levels} does not divide signal length {approx.size}")
    details = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for _ in range(levels):
            even, odd = approx[0::2], approx[1::2]
            approx = (even + odd) / SQRT2
            details.append((even - odd) / SQRT2)
    if not all(np.isfinite(v).all() for v in (approx, *details)):
        raise NonFiniteValues(f"a coefficient of the {levels}-level transform overflows")
    return WaveletDecomposition(levels, approx, tuple(details))


def haar_inverse(decomposition: WaveletDecomposition) -> np.ndarray:
    """Rebuild the signal from a decomposition, undoing the stages of
    :func:`haar_forward` coarsest first.

    An untouched decomposition round-trips to the original signal within
    float tolerance. A rebuilt value that is not finite, from a coefficient
    that is not or from an overflow, raises ``NonFiniteValues`` with no warning.
    """
    x = decomposition.approximation
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for detail in reversed(decomposition.details):
            out = np.empty(2 * x.size)
            out[0::2] = (x + detail) / SQRT2
            out[1::2] = (x - detail) / SQRT2
            x = out
    if not np.isfinite(x).all():
        raise NonFiniteValues("the rebuilt signal is not finite")
    return x
