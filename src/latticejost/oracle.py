"""Independent eigenvalue oracle: truncated tridiagonal section of the operator.

A hard Dirichlet wall at site M + 1 turns the half-line operator into a
symmetric tridiagonal M x M matrix with diagonal 2 + V_n and off-diagonal
-1.  Its eigenvalues outside the band [0, 4] approximate the bound-state
energies with error decaying like |alpha|^(2M), giving a root-free
cross-check of the polynomial pipeline.

The matrix is a compression of the half-line operator, so it has no more
eigenvalues below 0, or above 4, than the operator has bound states there:
at most N <= b in all.  oracle_bound_states uses that bound to pick the
cheaper of two LAPACK kernels.  Sturm-sequence bisection (Barth, Martin &
Wilkinson, Numer. Math. 9, 1967; stebz) on the two intervals below -margin
and above 4 + margin spends O(M) per step on each eigenvalue it finds, with
one step per bit of the result: O(b M bits) in all.  One root-free QR pass
over the whole spectrum (the Pal-Walker-Kahan variant; sterf) costs O(M^2)
whatever b is.  So the cost is about min(b M bits, M^2).

scipy is imported inside truncated_eigenvalues and oracle_bound_states,
its only users, so that importing latticejost and the analyze, sweep and
design paths never load it.
"""

from __future__ import annotations

import numpy as np

from .core import Potential

__all__ = ["truncated_eigenvalues", "oracle_bound_states", "match_energies"]

# One sterf pass over all M eigenvalues costs about as much as bisecting
# M / _QR_CROSSOVER of them, at any M: measured on a 2-core x86-64 box
# (scipy 1.17), the two kernels tie at 21, 42 and 62 states for M = 400,
# 800 and 1200 (about 14 ms at M = 800).
_QR_CROSSOVER = 20


def truncated_eigenvalues(V: Potential, M: int) -> np.ndarray:
    """All M eigenvalues of the truncated operator, ascending.

    Computed by bisection on Sturm sequences (LAPACK stebz), which has
    guaranteed convergence for symmetric tridiagonal matrices.
    """
    from scipy.linalg import eigh_tridiagonal

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

    While 20 b <= M (_QR_CROSSOVER), bisects only the two out-of-band
    intervals (lo, -margin] and (4 + margin, hi], lo and hi outside the
    Gershgorin bounds, at a cost that grows with the eigenvalues found, at
    most b; above that, one QR pass (sterf) over all M eigenvalues costs
    less.  The strict filter drops an eigenvalue equal to -margin.  A margin
    that is not positive and finite raises ValueError.
    Ascending, and equal to the out-of-band part of truncated_eigenvalues.
    """
    from scipy.linalg import eigh_tridiagonal

    if not 0 < margin < np.inf:
        raise ValueError(f"margin must be positive and finite, got {margin}")
    diag, off = _truncation(V, M)
    if V.b * _QR_CROSSOVER > M:
        eigs = eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="sterf")
    else:
        # every eigenvalue lies within 2 of a diagonal entry (Gershgorin)
        lo = min(float(diag.min()) - 2.0, -margin) - 1.0
        hi = max(float(diag.max()) + 2.0, 4.0 + margin) + 1.0
        eigs = np.concatenate([
            eigh_tridiagonal(
                diag, off, eigvals_only=True, select="v", select_range=interval,
                lapack_driver="stebz",
            )
            for interval in ((lo, -margin), (4.0 + margin, hi))
        ])
    return eigs[(eigs < -margin) | (eigs > 4.0 + margin)].tolist()


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
