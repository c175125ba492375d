"""Host speed, sampled between the timed operations.

On a host shared with other tenants the CPU speed this benchmark sees drifts
by 10-30% over seconds and minutes, and every time it measures drifts with
it.  A fixed kernel of the two kinds of work latticejost does, exact
rational arithmetic and a small LAPACK eigensolve, is timed after every
SAMPLE_EVERY_S of an operation, right after it.  Times are reported scaled
to a host on which the kernel takes REFERENCE_S: raw time x REFERENCE_S /
(mean kernel time).  On a 2-vCPU VM, over 8 s windows, this cut the drift
of interpreted work (analyze, the scan) from 12-17% to 7-10%.  The
oracle's LAPACK bisection drifts by 3% unscaled and by 7-10% scaled,
whatever mix of kernel parts was tried (a tridiagonal bisection among
them), so its time is kept as measured.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# a round value: the kernel takes 0.8 to 1.6 ms on a 2-vCPU x86-64 VM
# (Python 3.11, numpy 2.4) as the host's load changes
REFERENCE_S = 1.0e-3
SAMPLE_EVERY_S = 0.1
_MATRIX = np.array([[((7 * i + 13 * j) % 17) / 17.0 - 0.5 for j in range(60)]
                    for i in range(60)])


def kernel() -> None:
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i)
    np.linalg.eigvals(_MATRIX)


def sample() -> float:
    """The kernel's time now: the median of three runs, so that one
    interruption does not count."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


def samples_after(seconds: float) -> list[float]:
    """Samples for an operation that took `seconds`, taken right after it:
    one per SAMPLE_EVERY_S, at least one."""
    return [sample() for _ in range(max(1, round(seconds / SAMPLE_EVERY_S)))]


def scaled(seconds: float, bisection_s: float) -> float:
    """An operation's time at the reference host speed, taken right after it:
    its `bisection_s` seconds in the oracle's bisection as measured, the
    rest scaled by samples of the host's speed now."""
    rest = seconds - bisection_s
    return rest * scale(samples_after(rest)) + bisection_s


def scale(kernel_times: list[float]) -> float:
    """The factor that takes this run's times to the reference host speed."""
    return REFERENCE_S * len(kernel_times) / sum(kernel_times)
