"""Independent eigenvalue oracle: truncated tridiagonal section of the operator.

A hard Dirichlet wall at site M + 1 turns the half-line operator into a
symmetric tridiagonal M x M matrix with diagonal 2 + V_n and off-diagonal
-1.  Its eigenvalues outside the band [0, 4] approximate the bound-state
energies with error decaying like |alpha|^(2M), giving a root-free
cross-check of the polynomial pipeline.

Only those out-of-band eigenvalues are computed: Sturm-sequence bisection
(Barth, Martin & Wilkinson, Numer. Math. 9, 1967; LAPACK stebz) is run on
the two intervals below -margin and above 4 + margin, closed by Gershgorin
bounds, so the cost follows the number of bound states, not M.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .core import Potential

__all__ = ["truncated_eigenvalues", "oracle_bound_states", "match_energies"]


def truncated_eigenvalues(V: Potential, M: int) -> np.ndarray:
    """All M eigenvalues of the truncated operator, ascending.

    Computed by bisection on Sturm sequences (LAPACK stebz), which has
    guaranteed convergence for symmetric tridiagonal matrices.
    """
    diag, off = _truncation(V, M)
    return eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="stebz")


def _truncation(V: Potential, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the M x M truncated operator."""
    if M <= V.b:
        raise ValueError(f"truncation size {M} must exceed the support {V.b}")
    diag = np.full(M, 2.0)
    diag[: V.b] += np.asarray(V.values)
    return diag, np.full(M - 1, -1.0)


def oracle_bound_states(V: Potential, M: int = 800, margin: float = 1e-6) -> list[float]:
    """Eigenvalues clear of the continuous band: lambda < -margin or > 4 + margin.

    Bisects only the two out-of-band intervals (lo, -margin] and
    (4 + margin, hi], with lo and hi outside the Gershgorin bounds of the
    spectrum; the strict filter then drops an eigenvalue equal to -margin.
    Ascending, and equal to the out-of-band part of truncated_eigenvalues.
    """
    if margin <= 0:
        raise ValueError("margin must be positive")
    diag, off = _truncation(V, M)
    # every eigenvalue lies within 2 of a diagonal entry (Gershgorin)
    lo = min(float(diag.min()) - 2.0, -margin) - 1.0
    hi = max(float(diag.max()) + 2.0, 4.0 + margin) + 1.0
    out: list[float] = []
    for interval in ((lo, -margin), (4.0 + margin, hi)):
        eigs = eigh_tridiagonal(
            diag, off, eigvals_only=True, select="v", select_range=interval,
            lapack_driver="stebz",
        )
        out.extend(float(x) for x in eigs if x < -margin or x > 4.0 + margin)
    return out


def match_energies(
    root_energies: list[float], oracle_energies: list[float]
) -> list[tuple[float, float, float]]:
    """Nearest pairing of root-derived and oracle energies.

    Pairs are taken closest first over all root/oracle combinations, so an
    energy without a partner on the other side stays unpaired instead of
    taking another's partner.  Returns (root lambda, oracle lambda,
    |difference|) rows, one per root in ascending order, then the unmatched
    oracle energies; an unmatched entry pairs with nan.
    """
    roots = sorted(root_energies)
    dist = np.abs(np.subtract.outer(np.asarray(roots, dtype=float),
                                    np.asarray(oracle_energies, dtype=float)))
    pairs = min(len(roots), len(oracle_energies))
    partner: dict[int, int] = {}
    taken: set[int] = set()
    for flat in np.argsort(dist, axis=None, kind="stable"):
        if len(partner) == pairs:
            break
        i, j = divmod(int(flat), len(oracle_energies))
        if i not in partner and j not in taken:
            partner[i] = j
            taken.add(j)
    nan = float("nan")
    rows: list[tuple[float, float, float]] = []
    for i, lam in enumerate(roots):
        if i in partner:
            other = oracle_energies[partner[i]]
            rows.append((lam, other, abs(other - lam)))
        else:
            rows.append((lam, nan, nan))
    for j, other in enumerate(oracle_energies):
        if j not in taken:
            rows.append((nan, other, nan))
    return rows
