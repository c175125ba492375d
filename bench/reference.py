"""Independent correctness reference for the benchmark.

Nothing here calls latticejost.  The bound-state count comes from discrete
Sturm oscillation theory in exact rational arithmetic, and the bound-state
energies from scipy's bisection on the truncated operator, restricted to the
two out-of-band intervals.

The operator is (H u)_n = -u_{n+1} - u_{n-1} + (2 + V_n) u_n on n >= 1 with
u_0 = 0 and band [0, 4].  Conjugating by (-1)^n maps H_V to 4 - H_{-V}, so
the states above the band of V are the states below the band of -V.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

ORACLE_SIZE = 800
BAND_MARGIN = 1e-6


def count_below_band(values: Sequence[float]) -> int:
    """Exact number of eigenvalues of H_V below 0.

    Counts the negative pivots D_k = 2 + V_k - 1/D_{k-1} of the LDL^T
    factorization of H at lambda = 0.  A zero pivot is taken as +0, so the
    pivot after it is -inf.  Past the support the pivots follow
    D -> 2 - 1/D, whose fixed point 1 is neutral: exactly one more negative
    pivot follows when 0 <= D_b < 1, none otherwise.  Floats are dyadic
    rationals, so the count is exact.
    """
    count = 0
    inv = Fraction(0)  # 1 / D_{k-1}, with D_0 = +inf
    zero_pivot = False  # D_{k-1} = 0 forces D_k = -inf
    pivot = None  # last finite pivot; None after a -inf pivot or for b = 0
    for v in values:
        if zero_pivot:
            count += 1
            zero_pivot, inv, pivot = False, Fraction(0), None
            continue
        pivot = 2 + Fraction(v) - inv
        if pivot == 0:
            zero_pivot = True
            continue
        count += pivot < 0
        inv = 1 / pivot
    if zero_pivot or (pivot is not None and 0 < pivot < 1):
        count += 1
    return count


def reference_count(values: Sequence[float]) -> int:
    """Exact bound-state count N: states below the band plus states above it."""
    return count_below_band(values) + count_below_band([-v for v in values])


def alternating_values(b: int, amplitude: float = 2.0) -> tuple[float, ...]:
    """V_n = (-1)^n * amplitude on 1..b; N = b in closed form for amplitude >= 2."""
    return tuple((-1.0) ** n * amplitude for n in range(1, b + 1))


def reference_energies(
    values: Sequence[float], size: int = ORACLE_SIZE, margin: float = BAND_MARGIN
) -> list[float]:
    """Out-of-band eigenvalues of the size x size truncation, ascending.

    Only the intervals below -margin and above 4 + margin are requested
    (bisection with select='v'); Gershgorin bounds close both intervals.
    """
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    diag = np.full(size, 2.0)
    diag[: len(values)] += np.asarray(values, dtype=float)
    off = np.full(size - 1, -1.0)
    lo = min(0.0, float(diag.min()) - 2.0) - 1.0
    hi = max(4.0, float(diag.max()) + 2.0) + 1.0
    out: list[float] = []
    for rng in ((lo, -margin), (4.0 + margin, hi)):
        eigs = eigh_tridiagonal(
            diag, off, eigvals_only=True, select="v", select_range=rng,
            lapack_driver="stebz",
        )
        out.extend(float(x) for x in eigs)
    return sorted(out)


def resolves_every_state(values: Sequence[float]) -> bool:
    """Whether every bound state has an out-of-band eigenvalue in the
    truncation: none lies within the band margin, or too close to the band
    for ORACLE_SIZE sites to hold it."""
    return reference_count(values) == len(reference_energies(values))
