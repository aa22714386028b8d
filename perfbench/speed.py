"""The host's speed, sampled between the measured pieces of a pass.

On a shared host, other tenants slow the measured core by up to about 2x:
a slice of a few hundred microseconds runs either at full speed or about
1.5x slower, and the share of slow slices changes over spells of seconds
to minutes. A run of 30 s can fall wholly inside a slow spell, so neither
the fastest nor the median time of a piece is steady from run to run.

The benchmark therefore runs a fixed reference kernel between the pieces
it times. The kernel does the same kind of work as the library (small
numpy arrays, Python loops over floats, number formatting) and calls no
flowrecon code, so a change to the library cannot change its time. The
mean kernel time of a pass gives that pass's speed, ``REF_MS / mean``, and
the pass's wall time is multiplied by it. A day's time is multiplied by
the speed around that day instead, from the kernel runs after the
``DAY_WINDOW`` days on each side of it, because the speed changes within a
pass. The times then read as times on a core where the kernel takes
``REF_MS``, which is about its time on an idle core of the host the
benchmark was tuned on (an Intel Xeon at 2.1 GHz).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_MS = 0.46
# A timed piece is followed by one kernel run per this much of its time (at least one).
REF_EVERY_S = 0.005
# Days on each side of a day whose kernel runs give that day's speed.
DAY_WINDOW = 8
_SIGNAL = np.random.default_rng(0).random(288) * 100.0


def _kernel() -> float:
    acc = 0.0
    for level in range(1, 6):
        width = 1 << level
        windows = _SIGNAL.reshape(-1, width).sum(axis=1)
        stairs = np.repeat(windows / width, width)
        diff = _SIGNAL - stairs
        acc += float(np.dot(diff, diff)) + float(np.corrcoef(_SIGNAL, stairs)[0, 1])
        acc += sum(round(v, 3) for v in windows.tolist())
        acc += len(",".join(f"{v:.4f}" for v in windows.tolist()))
    return acc


def sample(piece_s: float, into: list) -> None:
    """Time the kernel after a piece that took ``piece_s``; append each time (s) to ``into``."""
    for _ in range(max(1, int(piece_s / REF_EVERY_S))):
        t0 = time.perf_counter()
        _kernel()
        into.append(time.perf_counter() - t0)


def factor(ref_s: list[float]) -> float:
    """The speed of a pass whose kernel times are ``ref_s``: 1 at reference speed, below 1 when slowed.

    A kernel run is slowed by the share of its slices that run slow, so the
    mean, not the median, follows the slowdown of the pieces around it. The
    slowest 1% (interrupts) is left out.
    """
    kept = sorted(ref_s)[: max(1, len(ref_s) * 99 // 100)]
    return REF_MS / (statistics.fmean(kept) * 1e3)


def day_factors(after_day_s: list[float]) -> list[float]:
    """Each day's speed, from ``after_day_s``, the mean kernel time after each day of a pass."""
    speeds = []
    for i in range(len(after_day_s)):
        around = after_day_s[max(0, i - DAY_WINDOW) : i + DAY_WINDOW + 1]
        speeds.append(REF_MS / (statistics.fmean(around) * 1e3))
    return speeds
