"""Constructive potential families and the small-support inverse problems.

Covers: the alternating family with full bound-state count, shrinking a
potential until the small-coefficient no-bound-state certificate applies,
amplifying a sign pattern until the unit-circle dominance certificate forces
N = b, epsilon-extension of the support at fixed bound-state count, and the
closed-form / Newton inverse problems for supports 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import NumericConfig, Potential, validate_potential
from .errors import (
    InconsistentRootsError,
    NoConvergenceError,
    SingularJacobianError,
)
from .jost import jost_coefficients, jost_eval, rouche_margin
from .spectrum import classify_zeros, find_zeros

__all__ = [
    "InverseB2Result",
    "InverseB3Result",
    "alternating_potential",
    "shrink_to_no_bound",
    "amplify_to_full_bound",
    "extend_with_epsilon",
    "choose_epsilon",
    "inverse_b2",
    "verify_b3",
    "inverse_b3",
]


def alternating_potential(b: int, amplitude: float = 2.0) -> Potential:
    """V_n = (-1)^n * amplitude on 1..b; realizes N = b for amplitude >= 2."""
    if b < 1:
        raise ValueError("b must be at least 1")
    if amplitude == 0:
        raise ValueError("amplitude must be nonzero")
    return Potential(tuple((-1.0) ** n * amplitude for n in range(1, b + 1)))


def shrink_to_no_bound(V: Potential) -> tuple[float, Potential]:
    """Halve a scale t from 1 until every coefficient beyond 1 is below 1/(2b).

    The returned scaled potential carries the no-bound-state certificate
    (and stays in the class since t V_b != 0).  Termination is guaranteed:
    every coefficient has positive degree in the potential values.
    """
    b = V.b
    if b < 1:
        raise ValueError("b must be at least 1")
    t = 1.0
    bound = 1.0 / (2 * b)
    while True:
        scaled = V.scaled(t)
        coeffs = jost_coefficients(scaled).coeffs
        if max(abs(c) for c in coeffs[1:]) < bound:
            return t, scaled
        t /= 2.0


def amplify_to_full_bound(signs: Sequence[int]) -> tuple[float, Potential]:
    """Double a common amplitude until the unit-circle certificate fires.

    Input is a +-1 pattern of length b; the result |V_j| = A has N = b,
    certified by a positive margin |prod V_j| - sum |G_j|.
    """
    if not signs:
        raise ValueError("sign pattern must be nonempty")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("sign pattern entries must be +1 or -1")
    A = 2.0
    while True:
        pot = Potential(tuple(float(s) * A for s in signs))
        if rouche_margin(pot) > 0:
            return A, pot
        A *= 2.0


def extend_with_epsilon(V: Potential, b: int, epsilon: float) -> Potential:
    """Pad the support from k to b with a constant nonzero tail epsilon."""
    if epsilon == 0:
        raise ValueError("epsilon must be nonzero (the extended V_b would vanish)")
    if b <= V.b:
        raise ValueError(f"target support {b} must exceed the current {V.b}")
    return Potential(V.values + (float(epsilon),) * (b - V.b))


def _classified_n(V: Potential, cfg: NumericConfig) -> tuple[int, float, float]:
    p = jost_coefficients(V)
    ledger = classify_zeros(find_zeros(p, cfg), cfg, V.b)
    return ledger.N, abs(jost_eval(p, 1.0)), abs(jost_eval(p, -1.0))


def choose_epsilon(
    V: Potential, b: int, cfg: NumericConfig, start: float = 0.1
) -> tuple[float, Potential]:
    """Halve the tail value until the extension keeps the bound-state count.

    Also requires |f0(+-1)| to stay above tau_edge so that no zero sits on
    the band edge (the genericity the continuity argument needs).
    """
    target_n = _classified_n(V, cfg)[0]
    eps = start
    while eps > 1e-15:
        ext = extend_with_epsilon(V, b, eps)
        n, f_plus, f_minus = _classified_n(ext, cfg)
        if n == target_n and min(f_plus, f_minus) > cfg.tau_edge:
            return eps, ext
        eps /= 2.0
    raise NoConvergenceError(
        f"no epsilon above the precision floor preserves N = {target_n}"
    )


# ---------------------------------------------------------------------------
# inverse problem, support 2


@dataclass(frozen=True)
class InverseB2Result:
    V1: float
    V2: float
    consistency_residual: float


def _check_conjugate_closed(roots: Sequence[complex]) -> None:
    nonreal = [z for z in roots if z.imag != 0]
    for z in nonreal:
        if not any(abs(w - z.conjugate()) < 1e-10 * max(1.0, abs(z)) for w in nonreal):
            raise InconsistentRootsError(f"nonreal root {z} lacks a conjugate partner")


def inverse_b2(roots: Sequence[complex]) -> InverseB2Result:
    """Recover (V1, V2) from the three zeros of a support-2 Jost polynomial.

    V2 is pinned by the product of roots, V1 by their reciprocal sum; the
    remaining coefficient equation is used as a realizability residual.
    The reported consistency residual is e1*e3 - e2 + 1 in the elementary
    symmetric functions of the roots, which vanishes identically on root
    triples of real support-2 potentials.
    """
    if len(roots) != 3:
        raise ValueError("exactly three roots are required")
    a1, a2, a3 = (complex(z) for z in roots)
    if a1 == 0 or a2 == 0 or a3 == 0:
        raise InconsistentRootsError("z = 0 is never a Jost zero")
    _check_conjugate_closed([a1, a2, a3])

    v2c = -1.0 / (a1 * a2 * a3)
    v1c = -(1.0 / a1 + 1.0 / a2 + 1.0 / a3) - v2c
    if max(abs(v1c.imag), abs(v2c.imag)) > 1e-8 * max(1.0, abs(v1c), abs(v2c)):
        raise InconsistentRootsError("recovered potential values are not real")
    V1, V2 = v1c.real, v2c.real
    middle = abs(V1 * V2 - (1.0 / (a1 * a2) + 1.0 / (a1 * a3) + 1.0 / (a2 * a3)))
    if middle > 1e-8:
        raise InconsistentRootsError(
            f"middle coefficient equation violated by {middle:.3e}"
        )
    e1 = a1 + a2 + a3
    e2 = a1 * a2 + a1 * a3 + a2 * a3
    e3 = a1 * a2 * a3
    residual = abs(e1 * e3 - e2 + 1.0)
    return InverseB2Result(V1=V1, V2=V2, consistency_residual=residual)


# ---------------------------------------------------------------------------
# inverse problem, support 3


def _b3_equation_sides(
    V: Sequence[float], roots: Sequence[complex]
) -> list[tuple[complex, complex]]:
    """(lhs, rhs) per coefficient-matching line for a support-3 potential.

    rhs_k is +- the k-th elementary symmetric function of the reciprocal
    roots; lhs_k is the corresponding polynomial in (V1, V2, V3).
    """
    v1, v2, v3 = V
    w = [1.0 / complex(z) for z in roots]
    e = [complex(0)] * 6
    e[0] = 1.0
    for k in range(1, 6):
        e[k] = sum(np.prod(c) for c in combinations(w, k))
    lhs = [
        v1 + v2 + v3,
        v1 * v2 + (v1 + v2) * v3,
        v2 + v3 * (1.0 + v1 * v2),
        (v1 + v2) * v3,
        v3,
    ]
    rhs = [-e[1], e[2], -e[3], e[4], -e[5]]
    return list(zip(lhs, rhs))


def verify_b3(V: Potential, roots: Sequence[complex]) -> list[float]:
    """Absolute residuals of the five coefficient-matching equations."""
    if V.b != 3:
        raise ValueError("verify_b3 needs a support-3 potential")
    if len(roots) != 5:
        raise ValueError("exactly five roots are required")
    if any(z == 0 for z in roots):
        raise InconsistentRootsError("z = 0 is never a Jost zero")
    _check_conjugate_closed(list(map(complex, roots)))
    return [abs(l - r) for l, r in _b3_equation_sides(V.values, roots)]


@dataclass(frozen=True)
class InverseB3Result:
    V1: float
    V2: float
    V3: float
    alpha5: float
    residuals: tuple[float, float, float, float, float]


def inverse_b3(
    alphas: Sequence[complex],
    guess: Sequence[float],
    max_iter: int = 100,
    tol: float = 1e-12,
) -> InverseB3Result:
    """Solve for (V1, V2, V3, alpha5) given four of the five zeros.

    Damped Newton on four of the coefficient-matching equations (the third
    line is held out and reported as the consistency residual).  The guess
    supplies (V1, V2, V3, alpha5).
    """
    if len(alphas) != 4:
        raise ValueError("exactly four known roots are required")
    fixed = [complex(z) for z in alphas]
    if any(z == 0 for z in fixed):
        raise InconsistentRootsError("z = 0 is never a Jost zero")
    _check_conjugate_closed(fixed)
    x = np.asarray(guess, dtype=float)
    if x.shape != (4,):
        raise ValueError("guess must supply (V1, V2, V3, alpha5)")

    def residual_vec(x: np.ndarray) -> np.ndarray:
        sides = _b3_equation_sides(x[:3], fixed + [complex(x[3])])
        # hold out the middle (third) line as the consistency check
        rows = [sides[0], sides[1], sides[3], sides[4]]
        return np.array([(l - r).real for l, r in rows])

    fx = residual_vec(x)
    for _ in range(max_iter):
        norm = np.linalg.norm(fx)
        if norm < tol:
            break
        jac = np.empty((4, 4))
        for j in range(4):
            h = 1e-7 * max(1.0, abs(x[j]))
            xp = x.copy()
            xp[j] += h
            xm = x.copy()
            xm[j] -= h
            jac[:, j] = (residual_vec(xp) - residual_vec(xm)) / (2.0 * h)
        try:
            if np.linalg.cond(jac) > 1e14:
                raise SingularJacobianError("Jacobian is numerically singular")
            dx = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(str(exc)) from exc
        # backtracking damping
        t = 1.0
        improved = False
        for _ in range(25):
            cand = x + t * dx
            fc = residual_vec(cand)
            if np.linalg.norm(fc) < norm:
                x, fx = cand, fc
                improved = True
                break
            t /= 2.0
        if not improved:
            break
    else:
        raise NoConvergenceError("Newton iteration cap reached")
    if np.linalg.norm(fx) >= max(tol, 1e-9):
        raise NoConvergenceError(
            f"Newton stalled at residual norm {np.linalg.norm(fx):.3e}"
        )

    V = validate_potential(x[:3])
    all_roots = fixed + [complex(x[3])]
    residuals = tuple(verify_b3(V, all_roots))
    return InverseB3Result(
        V1=x[0], V2=x[1], V3=x[2], alpha5=float(x[3]), residuals=residuals
    )
