"""Constructive potential families and the small-support inverse problems.

Covers: the alternating family with full bound-state count, shrinking a
potential until the small-coefficient no-bound-state certificate applies,
amplifying a sign pattern until the unit-circle dominance certificate forces
N = b, epsilon-extension of the support at fixed bound-state count, and the
closed-form inverse problems for supports 2 and 3.

The constructions return each potential with its polynomial, whose N is
the pivots' count (:func:`_bound_state_count`): no root is found, so no
precision applies, and ``analyze`` raises wherever its ledger differs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .core import Potential
from .errors import FloatOverflowError, InconsistentRootsError, NoConvergenceError
from .jost import JostPolynomial, _band_edges, _rouche_margin, _small_coefficients, jost_coefficients
from .spectrum import _bound_state_count

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


def shrink_to_no_bound(V: Potential) -> tuple[float, Potential, JostPolynomial]:
    """Halve a scale t from 1 until every coefficient beyond 1 is below 1/(2b).

    The returned scaled potential carries the no-bound-state certificate
    (and stays in the class since t V_b != 0); its polynomial, built by the
    search, comes back with it.  Termination is guaranteed:
    every coefficient has positive degree in the potential values, unless
    t V_b underflows to 0 first, which raises FloatOverflowError.
    """
    if V.b < 1:
        raise ValueError("b must be at least 1")
    t = 1.0
    while True:
        if t * V.values[-1] == 0:
            raise FloatOverflowError(
                f"scale t = {t!r} underflows t*V_b to 0 before the "
                "small-coefficient certificate applies"
            )
        scaled = V.scaled(t)
        p = jost_coefficients(scaled)
        if _small_coefficients(p):
            return t, scaled, p
        t /= 2.0


def amplify_to_full_bound(signs: Sequence[int]) -> tuple[float, Potential, JostPolynomial]:
    """Double a common amplitude until the unit-circle certificate fires.

    Input is a +-1 pattern of length b; the result |V_j| = A has N = b,
    certified by a positive margin |prod V_j| - sum |G_j|, and comes back
    with its polynomial.
    """
    if not signs:
        raise ValueError("sign pattern must be nonempty")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("sign pattern entries must be +1 or -1")
    A = 2.0
    while True:
        pot = Potential(tuple(float(s) * A for s in signs))
        p = jost_coefficients(pot)
        if _rouche_margin(p) > 0:
            return A, pot, p
        A *= 2.0


def extend_with_epsilon(V: Potential, b: int, epsilon: float) -> Potential:
    """Pad the support from k to b with a constant nonzero tail epsilon."""
    if epsilon == 0:
        raise ValueError("epsilon must be nonzero (the extended V_b would vanish)")
    if b <= V.b:
        raise ValueError(f"target support {b} must exceed the current {V.b}")
    return Potential(V.values + (float(epsilon),) * (b - V.b))


def choose_epsilon(
    V: Potential, b: int, start: float = 0.1
) -> tuple[float, Potential, JostPolynomial]:
    """Halve the tail value until the extension keeps the bound-state count.

    N is the pivots' count (:func:`_bound_state_count`), for V and for each
    extension, so no root is found.  Also requires f0(+-1) != 0 exactly, so
    that no zero sits on the band edge (the genericity the continuity
    argument needs), decided on the exact ints (:func:`_band_edges`).
    Returns the chosen epsilon with the extension and its polynomial.
    """
    target_n = sum(_bound_state_count(jost_coefficients(V)))
    eps = start
    while eps > 1e-15:
        extension = extend_with_epsilon(V, b, eps)
        p = jost_coefficients(extension)
        if all(_band_edges(p)) and sum(_bound_state_count(p)) == target_n:
            return eps, extension, p
        eps /= 2.0
    raise NoConvergenceError(
        f"no epsilon above the precision floor preserves N = {target_n}"
    )


# ---------------------------------------------------------------------------
# inverse problems, supports 2 and 3


def _elementary_symmetric(xs: Sequence[complex]) -> list[complex]:
    """[e_0, e_1, ..., e_n] of xs, the coefficients of prod (1 + x t)."""
    e = [complex(1)] + [complex(0)] * len(xs)
    for n, x in enumerate(xs, 1):
        for k in range(n, 0, -1):
            e[k] += x * e[k - 1]
    return e


@dataclass(frozen=True)
class InverseB2Result:
    V1: float
    V2: float
    consistency_residual: float


def _check_root_set(roots: Sequence[complex]) -> None:
    """Reject a root set with a zero, a non-finite or an unpaired nonreal root."""
    for z in roots:
        if z == 0:
            raise InconsistentRootsError("z = 0 is never a Jost zero")
        if not cmath.isfinite(z):
            raise InconsistentRootsError(f"root {z} is not finite")
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
    alphas = [complex(z) for z in roots]
    _check_root_set(alphas)

    w = _elementary_symmetric([1.0 / z for z in alphas])
    v2c = -w[3]
    v1c = -w[1] - v2c
    if max(abs(v1c.imag), abs(v2c.imag)) > 1e-8 * max(1.0, abs(v1c), abs(v2c)):
        raise InconsistentRootsError("recovered potential values are not real")
    V1, V2 = v1c.real, v2c.real
    middle = abs(V1 * V2 - w[2])
    if not middle <= 1e-8:  # NaN too, as when a reciprocal root overflows
        raise InconsistentRootsError(
            f"middle coefficient equation violated by {middle:.3e}"
        )
    e = _elementary_symmetric(alphas)
    residual = abs(e[1] * e[3] - e[2] + 1.0)
    return InverseB2Result(V1=V1, V2=V2, consistency_residual=residual)


def _b3_equation_sides(
    V: Sequence[float], roots: Sequence[complex]
) -> list[tuple[complex, complex]]:
    """(lhs, rhs) per coefficient-matching line for a support-3 potential.

    rhs_k is +- the k-th elementary symmetric function of the reciprocal
    roots; lhs_k is the corresponding polynomial in (V1, V2, V3).
    """
    v1, v2, v3 = V
    e = _elementary_symmetric([1.0 / complex(z) for z in roots])
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
    _check_root_set(list(map(complex, roots)))
    return [abs(l - r) for l, r in _b3_equation_sides(V.values, roots)]


@dataclass(frozen=True)
class InverseB3Result:
    V1: float
    V2: float
    V3: float
    alpha5: float
    residuals: tuple[float, float, float, float, float]


def inverse_b3(alphas: Sequence[complex]) -> InverseB3Result:
    """Solve for (V1, V2, V3, alpha5) given four of the five zeros, in closed form.

    In w = 1/alpha, let e'_k be the elementary symmetric functions of the
    four known w; those of all five are e_k = e'_k + w5 e'_(k-1).
    Coefficient lines 1, 4 and 5 eliminate the potential and leave

        e'_4 (1 - e'_4) w5^2 + (e'_1 e'_4 - e'_3) w5 - e'_4 = 0.

    Each root w5 then gives V3 = -w5 e'_4 (line 5), S = V1 + V2 = -e_1 - V3
    (line 1), P = e_2 - S V3 (line 2), V2 = -e_3 - V3 (1 + P) (line 3) and
    V1 = S - V2.  The five line residuals (as in :func:`verify_b3`) choose
    between the two roots; line 2, P = V1 V2, is the one the construction
    does not enforce.  InconsistentRootsError is raised when neither root
    meets all five lines to 1e-8 (no support-3 potential has these zeros)
    or when the chosen V3 underflows to 0.
    """
    if len(alphas) != 4:
        raise ValueError("exactly four known roots are required")
    known = [complex(z) for z in alphas]
    _check_root_set(known)

    ep = [c.real for c in _elementary_symmetric([1.0 / z for z in known])]
    a, b, c = ep[4] * (1.0 - ep[4]), ep[1] * ep[4] - ep[3], -ep[4]
    s = cmath.sqrt(b * b - 4.0 * a * c)
    q = -0.5 * (b + math.copysign(1.0, b) * s)  # b and s never cancel
    roots_w5 = ([c / q] if q else []) + ([q / a] if a else [])

    best_worst, best = math.inf, None
    for w5 in (r.real for r in roots_w5 if r.real):  # w5 = 0 puts alpha5 at infinity
        e1, e2, e3 = (ep[k] + w5 * ep[k - 1] for k in (1, 2, 3))
        V3 = -w5 * ep[4]
        S = -e1 - V3
        P = e2 - S * V3
        V2 = -e3 - V3 * (1.0 + P)
        values = (S - V2, V2, V3)
        roots = known + [complex(1.0 / w5)]
        residuals = [abs(l - r) for l, r in _b3_equation_sides(values, roots)]
        worst = math.inf if any(map(math.isnan, residuals)) else max(residuals)
        if worst < best_worst:
            best_worst, best = worst, (values, w5, residuals)
    if not best_worst <= 1e-8:
        raise InconsistentRootsError(
            "no support-3 potential has these zeros: the best candidate "
            f"violates a coefficient line by {best_worst:.3e}"
        )
    (V1, V2, V3), w5, residuals = best
    if V3 == 0:
        raise InconsistentRootsError(f"V3 = -w5 e'_4 underflows to 0 (e'_4 = {ep[4]!r})")
    return InverseB3Result(
        V1=V1, V2=V2, V3=V3, alpha5=1.0 / w5, residuals=tuple(residuals)
    )
