"""Root finding and spectral classification of the Jost polynomial.

Roots are found from the potential itself: the eigenvalues of one
(2b - 1)-square linearization of the quadratic eigenproblem behind f0, each
polished by Newton steps on the Jost recursion in the chart (z inside the
unit circle, 1/z outside) where that recursion is stable.  A step below
1e-9 of the chart variable is taken without evaluating the recursion again,
so an eigenvalue seed costs one evaluation.  The roots with |z| >= 1 are
merged into multiplicity clusters by a sweep over their real parts; those
inside are bound states, real and simple, and stay apart.  All are binned by
the interval scheme: bound states in (-1,0) and (0,1), real resonances
beyond +-1, exceptional zeros at +-1, and complex pairs outside the unit
circle.

In extended precision :func:`find_zeros` refines the roots from the exact
coefficients by Aberth steps in the fixed-point kernel :func:`_horner_fixed`:
exact Python ints scaled by 2^F with F = ceil(dps log2 10) + 40 bits for a
dps-digit refinement (more for roots tinier than 2^-40, a leading
coefficient below 1/2 or any coefficient above 1).  Only a seed that
repeats another is sheared, and each correction is judged against its
root's modulus, so the double roots reach the stop in two exact passes.
The Aberth repulsion sums alone are formed in double, from double-double
differences and, for pairs closer than those resolve, from the exact ints
(:func:`_repulsion`): the correction takes them times the Newton ratio, so
their error enters it at second order, and the stop test stays exact.
The norming constants are the Jost solution's norm, one O(b) recursion in
double arithmetic in either precision.  The exact f0(+-1) on the ints gives
the edge zeros, and every ledger's bound states are checked against the
pivots' count at alpha = 1, one scalar loop for V and one for -V.

The large-support scan counts the bound states by the operator's pivots and
narrows brackets on that count, so it needs no coefficients: coincident
brackets share one set of cuts, and a bracket that holds one state and no
pole of the last pivot closes in on secant windows of that pivot.  One
40-digit polish, :func:`_polish_fixed`, refines the real roots in (-1, 1)
for both the extended scan and the extended bound-state energies: Newton
steps on the Jost recursion in the same exact fixed-point ints
(:func:`_g0_fixed`), the simplified ones with a slope from that recursion
run in floats (:func:`_g0_slope`).  A root stops on a small step or on the
error bound that two steps' contraction gives, which the second exact pass
from a double root meets.  The extended scan returns each polished int at
scale 2^F as the exact Fraction z / 2^F.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import NumericConfig, Potential, z_to_lambda
from .errors import (
    CountMismatchError,
    FloatOverflowError,
    NoConvergenceError,
    UnitCircleViolationError,
)
from .jost import JostPolynomial, _band_edges, _sign_at

__all__ = [
    "ClassifiedZero",
    "ZeroLedger",
    "BoundState",
    "find_zeros",
    "classify_zeros",
    "norming_constants",
    "bound_state_scan",
]

BOUND_NEG = "BoundNeg"
BOUND_POS = "BoundPos"
RES_LEFT = "ResonanceLeft"
RES_RIGHT = "ResonanceRight"
EDGE_MINUS = "EdgeMinus"
EDGE_PLUS = "EdgePlus"
COMPLEX_PAIR = "ComplexPair"


# ---------------------------------------------------------------------------
# root finding


def _cluster(roots: list[complex], tol: float) -> list[tuple[complex, int]]:
    """Merge roots closer than tol, transitively; each group's centroid and size.

    |z - w| >= |Re(z - w)|, so only roots within tol in real part can merge:
    a sweep over the roots sorted by real part compares each with those
    still inside that window.  Groups come in order of their first root and
    keep their roots in input order, so the centroids do not depend on the
    sweep.
    """
    n = len(roots)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    order = sorted(range(n), key=lambda i: roots[i].real)
    lo = 0
    for k, i in enumerate(order):
        while roots[i].real - roots[order[lo]].real > tol:
            lo += 1
        for j in order[lo:k]:
            if abs(roots[i] - roots[j]) < tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(roots[i])
    return [(sum(members) / len(members), len(members)) for members in groups.values()]


def _fixed_bits(roots: Sequence[complex], dps: int) -> int:
    """Fraction bits F that resolve every root to dps digits.

    F = ceil(dps log2 10) + 40 resolves every root of modulus 2^-40 or more
    to dps digits; a smaller root adds the bits it lacks.
    """
    F = math.ceil(dps * math.log2(10)) + 40
    return F + max([0] + [-(math.frexp(abs(z))[1] + 40) for z in roots])


def _fixed_scales(
    ints: Sequence[int], shift: int, roots: Sequence[complex], dps: int
) -> tuple[int, int]:
    """Fraction bits (F, C) of the roots and of the coefficients ints / 2^shift of p.

    F is :func:`_fixed_bits`.  The coefficients carry C - F more bits when
    the leading one is below 1/2, which lifts it to at least 1/2: with the
    constant term 1 of f0, p then keeps dps digits relative to its size
    inside and outside the unit circle alike.  The lift is the bit length
    of the leading coefficient's denominator minus its numerator's, in
    lowest terms: shift + 1 minus the leading int's bit length.

    The largest coefficient sets C as well, by the bits it has above 1.
    Near |z| = 1 the terms of p can be as large as that coefficient and
    cancel to p's far smaller value; the alternating potential of amplitude
    20 at b = 40 has coefficients near 20^40 that do.  Without those bits
    the cancellation eats the dps digits, and the Aberth steps never reach
    their stop.  As every coefficient is a double, they add at most about
    1024 bits.
    """
    F = _fixed_bits(roots, dps)
    lift = max(0, shift + 1 - ints[-1].bit_length())
    return F, F + lift + max(0, max(c.bit_length() for c in ints) - shift)


def _fixed(c: float, F: int) -> int:
    """round(c * 2^F) for a float c."""
    n, d = c.as_integer_ratio()  # d is a power of two
    return ((n << (F + 1) >> d.bit_length() - 1) + 1) >> 1


def _split(x: int, F: int) -> tuple[float, float]:
    """x / 2^F as a double-double hi + lo: hi holds x's top 53 bits, lo the rest rounded."""
    e = x.bit_length() - 53
    if e <= 0:
        return x / (1 << F), 0.0
    h = x >> e
    return math.ldexp(h, e - F), (x - (h << e)) / (1 << F)


def _fixed_div(ar: int, ai: int, br: int, bi: int, F: int) -> tuple[int, int]:
    """(a / b) * 2^F for complex a, b != 0 given as ints at one common scale."""
    n2 = br * br + bi * bi
    return ((ar * br + ai * bi) << F) // n2, ((ai * br - ar * bi) << F) // n2


def _horner_fixed(desc: Sequence[int], zr: int, zi: int, F: int) -> tuple[int, int, int, int]:
    """p(z) and p'(z) in one Horner pass over fixed-point complex ints.

    z is scaled by 2^F; desc holds the coefficients highest degree first,
    all at one scale 2^C, which is also the scale of the results.  Each
    product is truncated back to scale 2^C, so a step errs by at most one
    unit 2^-C.  Returns (Re p, Im p, Re p', Im p').
    """
    pr, pi, dr, di = desc[0], 0, 0, 0
    for c in desc[1:]:
        dr, di, pr, pi = (
            ((dr * zr - di * zi) >> F) + pr,
            ((dr * zi + di * zr) >> F) + pi,
            ((pr * zr - pi * zi) >> F) + c,
            (pr * zi + pi * zr) >> F,
        )
    return pr, pi, dr, di


def _repulsion(roots: Sequence[tuple[int, int]], F: int) -> list[tuple[int, int]]:
    """sum_j 1/(z_k - z_j) over j != k for each root z_k, as ints at scale 2^F.

    The roots are fixed-point complex ints at scale 2^F, and the sums are
    formed in complex double.  Each root splits once into a double-double
    hi + lo (:func:`_split`), whose parts hold it to about 2^-104 of its
    modulus, and each difference is (hi_k - hi_j) + (lo_k - lo_j).  That
    errs by a few units of 2^-53 relative to itself unless z_j lies within
    2^-48 |z_k| of z_k, where the parts' error would show, as for roots that
    double precision does not resolve: those pairs take the difference of
    the exact ints, rounded once.  Each sum is rounded to scale 2^F once.
    Equal iterates raise NoConvergenceError, and a sum beyond double range
    FloatOverflowError.
    """
    flat: list[float] = []
    for zr, zi in roots:
        (hr, lr), (hi, li) = _split(zr, F), _split(zi, F)
        flat += hr, hi, lr, li
    hi, lo = np.array(flat).view(complex).reshape(-1, 2).T
    d = (hi[:, None] - hi) + (lo[:, None] - lo)
    np.fill_diagonal(d, np.inf)  # 1 / inf = 0: no self term
    near = np.abs(d) <= (2.0**-48 * np.abs(hi))[:, None]
    if near.any():
        one = 1 << F
        for k, j in zip(*np.nonzero(near)):
            er, ei = roots[k][0] - roots[j][0], roots[k][1] - roots[j][1]
            if not (er or ei):
                raise NoConvergenceError("two Aberth iterates have met")
            d[k, j] = complex(er / one, ei / one)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = (1.0 / d).sum(axis=1)
    if not np.isfinite(s).all():
        raise FloatOverflowError("an Aberth repulsion sum leaves double range")
    return [(_fixed(c.real, F), _fixed(c.imag, F)) for c in s.tolist()]


def _aberth(
    ints: Sequence[int], shift: int, seeds: list[complex], dps: int = 50, maxit: int = 120
):
    """Simultaneous Aberth-Ehrlich refinement to about dps digits.

    The arithmetic is fixed point: exact Python ints scaled by 2^F, with
    F = ceil(dps log2 10) + 40 unless a seed is tinier than 2^-40, and f0
    evaluated by :func:`_horner_fixed` from its exact coefficients
    ints / 2^shift, rounded to scale 2^C (see :func:`_fixed_scales`).  Each
    pass updates every root from the previous pass's roots; it stops once
    every correction is below 10^-(dps-8) of its root's modulus, and raises
    NoConvergenceError if maxit passes do not get there.  Seeds accurate to
    double precision then take two passes: the cubic convergence reaches
    the stop in the first, and the second confirms it.  A seed that exactly
    repeats m earlier ones is sheared by m 10^-14 max(1, |z|) in both parts,
    so that the iterates start apart; no other seed moves.  A repeat stands
    either for roots closer than double precision resolves, which 10^-14 of
    their modulus parts, or for roots that the double polish merged and
    that lie elsewhere: Aberth steps widen a cluster by about a constant
    factor a pass, so a shear below 10^-14 would cost those passes.  The
    roots come back as correctly rounded complex values.

    The correction is N / (1 - N S), with the Newton ratio N = p / p' and
    S = sum_j 1 / (z_k - z_j).  Only S is formed in double, by
    :func:`_repulsion` (Bini, Numer. Algorithms 13, 1996): N is about 1e-16
    of |z| from double seeds, so S's relative error of a few 2^-53 moves the
    correction by N^2 S times that error, at second order in N.  p, p', N,
    1 - N S, the correction and the stop test stay in exact ints, so each
    pass still measures how far its roots moved, and double-accurate seeds
    take the same two passes.
    """
    F, C = _fixed_scales(ints, shift, seeds, dps)
    up = C + 1 - shift  # round(c 2^(C - shift)): floor at one more bit, then halve
    desc = [((c << up if up >= 0 else c >> -up) + 1) >> 1 for c in reversed(ints)]
    roots, seen = [], {}
    for z in seeds:
        seen[z] = m = seen.get(z, -1) + 1  # earlier seeds equal to z
        shear = _fixed(m * 1e-14 * max(1.0, _mag(z)), F)
        roots.append((_fixed(z.real, F) + shear, _fixed(z.imag, F) + shear))
    one = 1 << F
    tol_scale = 10 ** (2 * (dps - 8))  # |corr| < 10^-(dps-8) |z|, squared
    for _ in range(maxit):
        converged = True
        new = []
        for (zkr, zki), (sr, si) in zip(roots, _repulsion(roots, F)):
            pr, pi, dr, di = _horner_fixed(desc, zkr, zki, F)
            if dr == 0 and di == 0:
                new.append((zkr, zki))
                continue
            rr, ri = _fixed_div(pr, pi, dr, di, F)
            # denom = 1 - ratio * ssum
            er = one - ((rr * sr - ri * si) >> F)
            ei = -((rr * si + ri * sr) >> F)
            cr, ci = (rr, ri) if er == 0 and ei == 0 else _fixed_div(rr, ri, er, ei, F)
            zr, zi = zkr - cr, zki - ci
            converged &= (cr * cr + ci * ci) * tol_scale < zr * zr + zi * zi
            new.append((zr, zi))
        roots = new
        if converged:
            break
    else:
        raise NoConvergenceError(f"the Aberth refinement has not converged in {maxit} passes")
    return [complex(zr / one, zi / one) for zr, zi in roots]


def _linearization(values: Sequence[float]) -> np.ndarray:
    """The (2b - 1)-square matrix whose eigenvalues are the zeros of f0.

    With K = tridiag(1, -V, 1) and M = I - e_b e_b^T, f0(z) = 0 exactly when
    (z^2 M - z K + I) x = 0 for some x != 0 (x_n = f_n, the Jost solution;
    Tisseur & Meerbergen, SIAM Review 43, 2001).  The unknowns are
    x_1..x_(b-1) and u = z x, and the rows read z x_n = u_n and
    z u_n = (K u)_n - x_n for n < b.  Row b says x_b = (K u)_b, so x_b drops
    out, and z u_b = ((K u)_(b-1) - x_(b-1) - u_b) / V_b is the last row.
    Only that row divides, by the leading coefficient V_b of f0, which keeps
    the zeros far outside the unit circle that a tiny V_b brings.
    """
    b = len(values)
    A = np.zeros((2 * b - 1, 2 * b - 1))
    n = np.arange(b - 1)
    u = n + b - 1  # the column of u_(n+1)
    A[n, u] = 1.0
    A[u, n] = -1.0
    A[u, u] = -np.asarray(values[:-1])
    A[u[1:], u[:-1]] = 1.0
    A[u, u + 1] = 1.0
    A[-1] = A[-2] if b > 1 else 0.0
    A[-1, -1] -= 1.0
    A[-1] /= values[-1]
    return A


def _mag(z: complex) -> float:
    """|z| as a float, inf where abs() would raise OverflowError."""
    return math.hypot(z.real, z.imag)


def _inside(z: complex) -> bool:
    """Whether |z| <= 1, the chart test of :func:`_jost_residual`."""
    return z.real * z.real + z.imag * z.imag <= 1.0


def _jost_residual(values: Sequence[float], z: complex) -> tuple[complex, complex]:
    """f0(z) / max(1, |z|)^(2b - 1) and its slope in the chart variable.

    z is taken in the chart where the Jost recursion is stable.  For
    |z| <= 1 the chart variable is s = z and k_n = f_n / z^n runs down from
    k_b = k_(b+1) = 1 by k_(n-1) - k_n = z V_n k_n + z^2 (k_n - k_(n+1)), so
    k_0 = f0(z).  Outside it is s = t = 1/z and the Dirichlet solution
    scaled by t^(n-1), phi_0 = 0, phi_1 = 1, runs up by the same step in t;
    t^(2b-1) f0(1/t) = V_b phi_b + t (phi_b - phi_(b-1)) (Teschl, Jacobi
    Operators and Completely Integrable Nonlinear Lattices, AMS 2000).  Both
    steps carry the first differences, not the values, and divide by
    nothing, so z = 0 is a valid point.
    """
    inside = _inside(z)
    if inside:
        s, vals, k, d = z, values[::-1], 1.0, 0.0
    else:
        s, vals, k, d = 1.0 / z, values, 1.0, 1.0
    s2, s_2, dk, dd = s * s, 2.0 * s, 0.0, 0.0
    for v in vals[:-1]:
        sv = s * v
        dd = v * k + sv * dk + s_2 * d + s2 * dd
        d = sv * k + s2 * d
        k += d
        dk += dd
    v = vals[-1]
    w, dw = v * k + s * d, v * dk + d + s * dd
    return (k + s * w, dk + w + s * dw) if inside else (w, dw)


def _jost_newton(values: Sequence[float], z: complex, steps: int = 12) -> tuple[complex, bool]:
    """Newton on :func:`_jost_residual` from z, in the chart of each iterate.

    A step below 1e-9 of the chart variable is the last: a simple root's
    quadratic convergence leaves an error below rounding after it, so it is
    taken, if it leaves z finite, without evaluating the residual again, and
    the root has converged.  Any larger step is kept only if it leaves z
    finite and lowers |residual|; the residual is continuous across
    |z| = 1, so a root may change chart.  The polish also stops at its first
    rejected step.  So a root seeded to better than 1e-9 costs one residual
    evaluation.  Returns the root and whether it has converged: whether its
    last Newton correction is below 1e-6 of the chart variable, which a
    double root's noise-limited polish also meets.
    """
    F, dF = _jost_residual(values, z)
    for _ in range(steps):
        if not (F and dF):
            break
        inside = _inside(z)
        s = z if inside else 1.0 / z
        step = F / dF
        cand = s - step
        if not inside:
            if not cand:
                break
            cand = 1.0 / cand
        if not cmath.isfinite(cand):
            break
        if _mag(step) <= 1e-9 * _mag(s):
            return cand, True
        Fc, dFc = _jost_residual(values, cand)
        if not _mag(Fc) < _mag(F):
            break
        z, F, dF = cand, Fc, dFc
    s = z if _inside(z) else 1.0 / z
    return z, not F or (dF != 0 and _mag(F / dF) <= 1e-6 * _mag(s))


def _jost_aberth(
    values: Sequence[float], roots: Sequence[complex], maxit: int = 100
) -> list[complex]:
    """Aberth-Ehrlich steps on the Jost recursion in double, from roots.

    Each root z moves by N / (1 - N S), with N = f0 / f0' from
    :func:`_jost_residual` (z G / ((2b - 1) G - t G') in the outside chart,
    where f0(z) = z^(2b-1) G(1/z)) and S the sum of 1 / (z - z_j) over the
    other roots, the latest of each.  The S term keeps the roots apart, so
    they reach every zero from any distinct start.  A root stops once its
    step is below 4e-16 of it; a step that divides by zero leaves it as is.
    """
    z, n = list(roots), len(roots)
    live = list(range(n))
    for _ in range(maxit):
        if not live:
            break
        for k in list(live):
            zk = z[k]
            F, dF = _jost_residual(values, zk)
            try:
                N = F / dF if _inside(zk) else zk * F / (n * F - dF / zk)
                c = N / (1.0 - N * sum(1.0 / (zk - zj) for j, zj in enumerate(z) if j != k))
            except ZeroDivisionError:
                live.remove(k)
                continue
            z[k] = zk - c
            if _mag(c) <= 4e-16 * _mag(z[k]):
                live.remove(k)
    return z


def _hull_seeds(ints: Sequence[int]) -> list[complex]:
    """Starting points for :func:`_jost_aberth` from the Newton polygon of f0.

    Each edge of the upper convex hull of (j, log2 |c_j|) from j to k puts
    k - j points on the circle of radius (|c_j| / |c_k|)^(1 / (k - j)), the
    moduli of the roots that edge stands for (Bini, Numer. Algorithms 13,
    1996).  Only the exact coefficients' sizes enter, so the seeds hold
    however far apart the roots are.  A radius beyond double range raises
    OverflowError.
    """
    hull: list[tuple[int, float]] = []
    for k, lk in [(j, math.log2(abs(c))) for j, c in enumerate(ints) if c]:
        # drop the last vertex while it lies on or below the chord to (k, lk)
        while len(hull) > 1 and (hull[-1][0] - hull[-2][0]) * (lk - hull[-2][1]) >= (
            hull[-1][1] - hull[-2][1]
        ) * (k - hull[-2][0]):
            hull.pop()
        hull.append((k, lk))
    seeds = []
    for (j, lj), (k, lk) in zip(hull, hull[1:]):
        r = 2.0 ** ((lj - lk) / (k - j))
        seeds += [
            r * cmath.exp(1j * (2 * math.pi * (m / (k - j) + j / len(ints)) + 0.7))
            for m in range(k - j)
        ]
    return seeds


def _polish(
    values: Sequence[float], seeds: Sequence[complex], tau_real: float
) -> tuple[list[complex], bool]:
    """Newton-polished roots from conjugate-closed seeds, and whether all converged.

    A seed with |Im| below tau_real is taken as real and polished in real
    arithmetic.  Of a nonreal pair only the member with Im > 0 is polished;
    the other is its exact conjugate, as complex *, / and abs are
    conjugate-symmetric in floating point.
    """
    polished: list[complex] = []
    converged = True
    for seed in seeds:
        if abs(seed.imag) < tau_real:
            z, ok = _jost_newton(values, seed.real)
            polished.append(complex(z.real))
        elif seed.imag > 0.0:
            z, ok = _jost_newton(values, seed)
            polished += [complex(z.real)] * 2 if abs(z.imag) < tau_real else [z.conjugate(), z]
        else:
            continue
        converged &= ok
    return polished, converged


def _beyond_edge(p: JostPolynomial, x: float) -> complex:
    """The next double outward from the edge x = +-1.0, for a root that rounds to x.

    f0(x) != 0, so the root is off x by under half an ulp.  The exact signs
    of f0 at x and at its neighbours in double (:func:`_sign_at`) bracket
    it: a change between x and the outer one alone is a resonance, returned
    as that neighbour so that its class holds.  Any other pattern, as a
    bound state closer to the edge than double resolves, raises
    FloatOverflowError.
    """
    inner, outer = math.nextafter(x, 0.0), math.nextafter(x, 2.0 * x)
    s_in, s_x, s_out = (_sign_at(p, t) for t in (inner, x, outer))
    if s_in == s_x != s_out:
        return complex(outer)
    raise FloatOverflowError(
        f"a zero lies closer to the band edge {x:+.0f} than double resolves, and f0 != 0 there"
    )


def _coincide(roots: Sequence[complex]) -> bool:
    """Whether two real roots inside the unit disk are equal or adjacent doubles."""
    disk = sorted(z.real for z in roots if not z.imag and abs(z.real) < 1.0)
    return any(y <= math.nextafter(x, 1.0) for x, y in zip(disk, disk[1:]))


def find_zeros(p: JostPolynomial, cfg: NumericConfig) -> list[tuple[complex, int]]:
    """All roots of the Jost polynomial, clustered by multiplicity.

    Returns (root, multiplicity) pairs; multiplicities sum to the degree.
    Only roots with |z| >= 1 closer than cfg.tau_cluster merge
    (:func:`_cluster`).  One with |z| < 1 is an eigenvalue of the
    self-adjoint Dirichlet Jacobi operator, real and simple (Teschl 2000),
    so it keeps multiplicity 1; two on equal or adjacent doubles stay two
    entries, which :func:`norming_constants` reports as a multiple zero.
    The roots come from the potential, never from the rounded coefficients:
    they are the eigenvalues of :func:`_linearization`, built from p.values,
    each polished by :func:`_jost_newton` on the Jost recursion
    (:func:`_polish`).  LAPACK's real nonsymmetric solver
    returns each nonreal pair as exact conjugates (x, +-y).

    The eigensolver loses the roots that lie far below the matrix's scale,
    which a potential spanning many orders of magnitude brings.  When a
    polish does not converge or merges two bound states (:func:`_coincide`),
    all roots start again from the Newton polygon of the exact coefficients
    (:func:`_hull_seeds`), move by Aberth steps on the Jost recursion
    (:func:`_jost_aberth`) and are polished once more; if a polish still
    does not converge, NoConvergenceError.  Extended precision then refines
    all roots by :func:`_aberth` on the exact coefficients p.ints; standard
    precision stays in double throughout.

    In both precisions, where the exact f0(+-1) (:func:`_band_edges`) is 0,
    the real root nearest +-1 becomes +-1.0 and stays out of the clusters;
    it is simple, as the Wronskian f0(z) f1(1/z) - f1(z) f0(1/z) = 1/z - z
    has a simple zero at +-1.  Any other root at +-1.0 goes to
    :func:`_beyond_edge`.

    A leading coefficient V_b so small that the matrix's last row leaves
    double range, or a root beyond double range, raises FloatOverflowError
    in either precision; an eigensolver or an :func:`_aberth` refinement
    that does not converge raises NoConvergenceError.
    """
    if p.b == 0:
        return []
    values = p.values
    lead = values[-1]
    if not all(math.isfinite(v / lead) for v in (1.0, *values[-2:])):
        raise FloatOverflowError(
            f"leading Jost coefficient {lead!r} puts the linearization "
            "beyond double precision"
        )
    try:
        raw = np.sort(np.linalg.eigvals(_linearization(values)))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"the eigensolver failed: {exc}") from exc
    tau_real = cfg.tau_real
    polished, converged = _polish(values, list(map(complex, raw)), tau_real)
    if not converged or _coincide(polished):
        try:
            roots = _jost_aberth(values, _hull_seeds(p.ints))
        except OverflowError as exc:
            raise FloatOverflowError(
                "a root of the Jost polynomial leaves double range"
            ) from exc
        seeds = [complex(z.real) if abs(z.imag) <= 1e-8 * _mag(z) else z for z in roots]
        polished, converged = _polish(values, seeds, tau_real)
        if not converged:
            raise NoConvergenceError("the roots of the Jost polynomial have not converged")

    if cfg.is_extended:
        polished = [complex(z) for z in _aberth(p.ints, p.shift, polished)]
        polished = [complex(z.real) if abs(z.imag) < tau_real else z for z in polished]

    out = []
    for x, f in zip((1.0, -1.0), _band_edges(p)):
        if not f:
            real = [z for z in polished if not z.imag]
            polished.remove(min(real, key=lambda z: abs(z.real - x)))
            out.append((complex(x), 1))
    disk, outer = [], []
    for z in polished:
        (disk if _mag(z) < 1.0 else outer).append(z)
    # the disk's zeros are simple and never merged
    for z, m in [(z, 1) for z in disk] + _cluster(outer, cfg.tau_cluster):
        if abs(z.imag) < tau_real:
            z = complex(z.real)
        if z in (1.0, -1.0):
            z = _beyond_edge(p, z.real)
        out.append((z, m))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True, slots=True)
class ClassifiedZero:
    z: complex
    multiplicity: int
    kind: str


@dataclass(frozen=True, slots=True)
class ZeroLedger:
    """All zeros with interval classes, ordering integers, and counts."""

    zeros: tuple[ClassifiedZero, ...]
    b: int
    Z_left: int
    Z_m10: int
    Z_01: int
    Z_right: int
    Z_c: int
    mu_minus: int
    mu_plus: int

    @property
    def p(self) -> int:
        return self.Z_left

    @property
    def q(self) -> int:
        return self.Z_left + self.Z_m10

    @property
    def r(self) -> int:
        return self.q + self.Z_01

    @property
    def s(self) -> int:
        return self.r + self.Z_right

    @property
    def N(self) -> int:
        return self.Z_m10 + self.Z_01

    def real_roots_expanded(self) -> list[float]:
        """Real zeros in ascending order, one entry per multiplicity."""
        vals = []
        for cz in self.zeros:
            if cz.kind != COMPLEX_PAIR:
                vals.extend([cz.z.real] * cz.multiplicity)
        vals.sort()
        return vals

    def bound_state_roots(self) -> list[tuple[int, float]]:
        """(k, alpha) with k the 1-based position in the real ordering."""
        reals = self.real_roots_expanded()
        return [(k, a) for k, a in enumerate(reals, start=1) if self.p < k <= self.r]


def classify_zeros(
    roots: Sequence[tuple[complex, int]], cfg: NumericConfig, b: int
) -> ZeroLedger:
    """Bin clustered roots by the interval scheme and build the ledger.

    A real root is an edge zero when it equals +-1.0, as :func:`find_zeros`
    puts only the zeros of an exact f0(+-1) = 0 there.  Raises
    CountMismatchError when multiplicities miss the degree 2b - 1 and
    UnitCircleViolationError when a nonreal root sits inside the unit circle
    (both indicate numerical failure, not a spectral event).
    """
    total = sum(m for _, m in roots)
    expected = max(2 * b - 1, 0)
    if total != expected:
        raise CountMismatchError(
            f"root multiplicities sum to {total}, expected {expected}"
        )

    # a nonreal root is "inside" only when |z| is clearly below 1: in extended
    # precision 1 - tau_real rounds to 1.0, and resonances crowd the circle
    inside = 1.0 - max(cfg.tau_real, 4 * 2.0**-53)
    classified: list[ClassifiedZero] = []
    counts = {RES_LEFT: 0, BOUND_NEG: 0, BOUND_POS: 0, RES_RIGHT: 0}
    mu_minus = mu_plus = 0
    complex_total = 0
    for z, m in roots:
        if abs(z.imag) >= cfg.tau_real:
            if abs(z) <= inside:
                raise UnitCircleViolationError(
                    f"nonreal root {z} inside the unit circle"
                )
            classified.append(ClassifiedZero(z, m, COMPLEX_PAIR))
            complex_total += m
            continue
        x = z.real
        if x == -1.0:
            classified.append(ClassifiedZero(complex(x), m, EDGE_MINUS))
            mu_minus += m
        elif x == 1.0:
            classified.append(ClassifiedZero(complex(x), m, EDGE_PLUS))
            mu_plus += m
        elif x < -1.0:
            classified.append(ClassifiedZero(complex(x), m, RES_LEFT))
            counts[RES_LEFT] += m
        elif x < 0.0:
            classified.append(ClassifiedZero(complex(x), m, BOUND_NEG))
            counts[BOUND_NEG] += m
        elif x < 1.0:
            classified.append(ClassifiedZero(complex(x), m, BOUND_POS))
            counts[BOUND_POS] += m
        else:
            classified.append(ClassifiedZero(complex(x), m, RES_RIGHT))
            counts[RES_RIGHT] += m
    if complex_total % 2 != 0:
        raise CountMismatchError("nonreal roots are not conjugate-paired")

    real = [cz for cz in classified if cz.kind != COMPLEX_PAIR]
    real.sort(key=lambda cz: cz.z.real)
    cplx = [cz for cz in classified if cz.kind == COMPLEX_PAIR]
    cplx.sort(key=lambda cz: (cz.z.real, cz.z.imag))

    return ZeroLedger(
        zeros=tuple(real + cplx),
        b=b,
        Z_left=counts[RES_LEFT] + mu_minus,
        Z_m10=counts[BOUND_NEG],
        Z_01=counts[BOUND_POS],
        Z_right=counts[RES_RIGHT] + mu_plus,
        Z_c=complex_total // 2,
        mu_minus=mu_minus,
        mu_plus=mu_plus,
    )


# ---------------------------------------------------------------------------
# norming constants


@dataclass(frozen=True, slots=True)
class BoundState:
    k: int
    alpha: float
    lam: float
    c2: float


def _norm_c2(values: Sequence[float], alpha: float) -> float:
    """c^2 = 1 / sum_{n>=1} f_n(alpha)^2 for a bound state alpha in (-1, 1).

    The sum runs down the backward recursion, which grows the decaying Jost
    solution and so is stable, on g_n = f_n / alpha^b from g_b = 1,
    g_(b+1) = alpha; the sites past b add alpha^2 / (1 - alpha^2).  g is
    divided by a power of two whenever it passes 2^256, and the sum, that
    power and alpha^(2b) meet only as exact ints in one final rounding, so
    neither the deep states' growth nor alpha^(2b) leaves double range on
    its own.  Raises OverflowError when c^2 itself does.
    """
    b = len(values)
    s = alpha + 1.0 / alpha
    g_next, g_cur = alpha, 1.0
    total = alpha * alpha / ((1.0 - alpha) * (1.0 + alpha))
    shift = 0  # the true g are the stored ones times 2^shift
    for v in values[:0:-1]:  # V_b .. V_2 take g_(n+1), g_n to g_(n-1)
        total += g_cur * g_cur
        g_next, g_cur = g_cur, (s + v) * g_cur - g_next
        if abs(g_cur) > 2.0**256:
            d = math.frexp(g_cur)[1]
            g_next, g_cur = math.ldexp(g_next, -d), math.ldexp(g_cur, -d)
            total = math.ldexp(total, -2 * d)
            shift += d
    total += g_cur * g_cur
    if not math.isfinite(total):
        raise OverflowError("the Jost solution leaves double range")
    tn, td = total.as_integer_ratio()
    an, ad = alpha.as_integer_ratio()
    c2 = td * ad ** (2 * b) / ((tn * an ** (2 * b)) << (2 * shift))
    if c2 < sys.float_info.min:
        raise OverflowError("c^2 underflows")
    return c2


def norming_constants(
    ledger: ZeroLedger, p: JostPolynomial, cfg: NumericConfig | None = None
) -> list[BoundState]:
    """Marchenko norming constants c^2 = 1 / sum_{n>=1} f_n(alpha)^2.

    The norm of the Jost solution at each bound-state zero alpha (Teschl,
    Jacobi Operators and Completely Integrable Nonlinear Lattices, AMS
    2000), in O(b) double arithmetic by :func:`_norm_c2`; it needs no other
    root and is positive by construction.  Both precisions run it at the
    ledger's alpha, which an extended-precision config has from the
    40-digit Aberth refinement of :func:`find_zeros`.  lambda is
    -(1 - alpha)^2 / alpha, free of the cancellation near alpha = 1: by
    :func:`z_to_lambda` in double, and in an extended config at alpha
    polished to 40 digits by the extended scan's Newton
    (:func:`_polish_fixed`), rounded once from its ints.

    A bound state of multiplicity above 1 (two zeros on equal or adjacent
    doubles) raises FloatOverflowError naming that precision.
    Then Z_01 and Z_m10 must equal the pivots' count
    (:func:`_bound_state_count`), or CountMismatchError.  A ledger and a p
    of different supports raise ValueError.
    A c^2 outside double range raises FloatOverflowError naming that
    precision; a polish that fails raises NoConvergenceError.
    """
    if p.b != ledger.b:
        raise ValueError(f"the ledger has support {ledger.b}, but p has support {p.b}")
    ext = cfg is not None and cfg.is_extended
    precision = "40-digit" if ext else "double"
    roots = ledger.bound_state_roots()
    alphas = [alpha for _, alpha in roots]
    for (k, alpha), nxt in zip(roots, alphas[1:]):  # ascending: close ones are neighbours
        if nxt <= math.nextafter(alpha, 1.0):
            raise FloatOverflowError(
                f"bound state k={k} at alpha={alpha!r} is a multiple zero: "
                f"its norming constant leaves {precision} precision"
            )
    n_pos, n_neg = _bound_state_count(p)
    if (n_pos, n_neg) != (ledger.Z_01, ledger.Z_m10):
        raise CountMismatchError(
            f"the ledger holds {ledger.Z_01} bound states in (0, 1) and "
            f"{ledger.Z_m10} in (-1, 0), but the pivots count {n_pos} and {n_neg}"
        )
    if ext:
        polished, F = _polish_fixed(p.values, alphas)
        lams = [-((a - (1 << F)) ** 2) / (a << F) for a in polished]
    else:
        lams = [z_to_lambda(a) for a in alphas]
    out = []
    for (k, alpha), lam in zip(roots, lams):
        try:
            c2 = _norm_c2(p.values, alpha)
        except OverflowError as exc:
            raise FloatOverflowError(
                f"norming constant of bound state k={k} at alpha={alpha!r} "
                f"leaves {precision} precision"
            ) from exc
        out.append(BoundState(k=k, alpha=alpha, lam=lam, c2=c2))
    return out


# ---------------------------------------------------------------------------
# large-b bound-state scan


_CUTS = 512  # points per multisection pass, shared by the live brackets
# the first pass cuts each side's (lo, 1) at lo^f for these f, lo and 1 included
_FIRST_CUTS = 1.0 - np.arange(_CUTS // 2 + 2) / (_CUTS // 2 + 1)
_MP_DPS = 40
_MP_STOP = 10**38  # Newton stops once |dz| * _MP_STOP <= |z|
_MP_SIMPLIFIED_STEPS = 4
_MP_NEWTON_STEPS = 5


def _edge_pivots(values: Sequence[float], sign: float) -> tuple[int, float]:
    """:func:`_sturm_counts` at x = 1 for one sign, in scalar floats.

    The count of negative pivots d_n = sign V_n + 2 - 1/d_(n-1), the last
    one less 1, and that last d_b - 1: the same IEEE operations in the same
    order as the numpy rows, 1/+-0 = +-inf included, so both agree bit for
    bit, without numpy's per-call cost on two points.
    """
    count, inv, last = 0, 0.0, len(values) - 1
    for n, v in enumerate(values):
        d = sign * v + 2.0
        if n == last:
            d -= 1.0
        d -= inv
        count += d < 0
        inv = 1.0 / d if d else math.copysign(math.inf, d)
    return count, d


def _bound_state_count(p: JostPolynomial) -> tuple[int, int]:
    """The bound states of p's potential in (0, 1) and in (-1, 0), with no root found.

    The pivots of V and of -V count them at alpha = 1 (:func:`_edge_pivots`).
    Where the exact f0(+-1) (:func:`_band_edges`) is 0, a zero sits on that
    edge and sets the side's last pivot to 0, so that pivot counts no state
    even if rounding puts it below.
    """
    if not p.b:
        return 0, 0
    counts = []
    for sign, edge in zip((1.0, -1.0), _band_edges(p)):
        count, last = _edge_pivots(p.values, sign)
        counts.append(count - (last < 0 and not edge))
    return tuple(counts)


def _sturm_counts(values: np.ndarray, x: np.ndarray, sign: np.ndarray):
    """States of sign * V with alpha in (0, x) at each x in (0, 1], and d_b - x.

    The states below lambda(x) = 2 - x - 1/x are the negative pivots of
    H - lambda(x) on sites 1..b, d_n = x + 1/x + V_n - 1/d_(n-1) from
    d_0 = inf (a zero pivot makes the next one -inf), plus one when
    0 <= d_b < x, as past the support the pivots then fall through one
    negative value (Teschl, Jacobi Operators and Completely Integrable
    Nonlinear Lattices, AMS 2000).  So site b adds one state exactly when
    d_b - x = 1/x + V_b - 1/d_(b-1) < 0, the last row here.  The states of
    V above the band are those of -V below it at alpha -> -alpha, so sign
    (+1 or -1, broadcast against x) serves V and -V in one pass.  The
    results have the shape of x.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = sign * values.reshape(-1, *[1] * np.ndim(x)) + (x + 1.0 / x)
        d[-1] -= x
        inv = np.empty_like(d[0])
        for n in range(1, len(values)):
            np.divide(1.0, d[n - 1], out=inv)
            np.subtract(d[n], inv, out=d[n])
    return (d < 0).sum(axis=0), d[-1]


def _g0_fixed(vals: Sequence[int], z: int, F: int, slope: bool):
    """g_0 = f_0 / z^b at a fixed-point z != 0, with g_0' when slope is set.

    Exact ints scaled by 2^F run the backward recursion of :func:`_norm_c2`
    to n = 0: g_b = 1, g_(b+1) = z, g_(n-1) = (z + 1/z + V_n) g_n - g_(n+1),
    and g_(n-1)' = (z + 1/z + V_n) g_n' + (1 - 1/z^2) g_n - g_(n+1)'.  vals
    holds V_1..V_b at the same scale.  Once |g| passes 2^256 the state is
    divided by a power of two taken from |g| alone, as g' can exceed g by
    far (by 1/z^2 for a deep state) and a shift taken from it would wipe
    out g's bits.  Returns (g_0, g_0' or None, k): the true values are the
    returned ones times 2^k.
    """
    one, cap = 1 << F, F + 256
    zi = (one << F) // z
    s, ds = z + zi, one - ((zi * zi) >> F)
    g_next, g, d_next, d, k = z, one, one, 0, 0
    for v in reversed(vals):
        w = s + v
        if slope:
            d_next, d = d, ((w * d + ds * g) >> F) - d_next
        g_next, g = g, ((w * g) >> F) - g_next
        if g.bit_length() > cap:
            e = g.bit_length() - F
            g_next, g, d_next, d, k = g_next >> e, g >> e, d_next >> e, d >> e, k + e
    return g, d if slope else None, k


def _g0_slope(values: Sequence[float], z: float) -> tuple[float, int]:
    """g_0'(z) by the recursion of :func:`_g0_fixed` in floats: (d, k), g_0' = d 2^k.

    The state is rescaled by the power of two of |g| once |g| passes 2^256,
    as there.  d is inf or nan where a float leaves double range, as 1/z^2
    does for a deep state.
    """
    zi = 1.0 / z
    s, ds = z + zi, 1.0 - zi * zi
    g_next, g, d_next, d, k = z, 1.0, 1.0, 0.0, 0
    for v in reversed(values):
        w = s + v
        d_next, d = d, w * d + ds * g - d_next
        g_next, g = g, w * g - g_next
        if abs(g) > 2.0**256:
            e = math.frexp(g)[1]
            g_next, g = math.ldexp(g_next, -e), math.ldexp(g, -e)
            d_next, d, k = math.ldexp(d_next, -e), math.ldexp(d, -e), k + e
    return d, k


def _newton_fixed(vals: Sequence[int], z: int, F: int, slope: tuple[float, int]) -> int | None:
    """One root of g_0 polished from the fixed-point z; see :func:`_polish_fixed`.

    slope is g_0'(z) = d 2^k from :func:`_g0_slope`, as (d, k).  A step dz
    ends the polish when |dz| or, with q = |dz / dz_1| <= 1/2 its
    contraction from the step dz_1 before, |dz| q / (1 - q) is at most
    |z| / _MP_STOP.  Returns None when neither is met within the step caps.
    """
    one = 1 << F
    d, k0 = slope
    simple = _MP_SIMPLIFIED_STEPS if d and math.isfinite(d) else 0
    if simple:  # the float slope as an int mantissa at scale 2^F, times 2^k0
        d, e = math.frexp(d)
        d, k0 = _fixed(d, F), k0 + e
    last = 0  # |dz| of the step before
    for i in range(simple + _MP_NEWTON_STEPS):
        g, dg, k = _g0_fixed(vals, z, F, i >= simple)
        if i >= simple:
            d, k0 = dg, k
        if not d:
            return None
        e = F + k - k0  # g's rescaling can differ from the slope's
        dz = (g << e) // d if e >= 0 else g // (d << -e)
        z -= dz
        if not 0 < abs(z) < one:
            return None
        # with q = step / last <= 1/2, step q / (1 - q) bounds the error left
        step = abs(dz)
        if step * _MP_STOP <= abs(z) or (
            2 * step <= last and step * step * _MP_STOP <= abs(z) * (last - step)
        ):
            return z
        last = step
    return None


def _polish_fixed(values: Sequence[float], roots: Sequence[float]) -> tuple[list[int], int]:
    """Newton polish of float roots of f0 in (-1, 1) at _MP_DPS digits.

    Newton runs on g_0 = f_0 / z^b (:func:`_g0_fixed`) in exact ints scaled
    by 2^F, where F is :func:`_fixed_bits` of the roots and each V_n is
    rounded to that scale.  The slope g_0' is taken once, at the float root,
    from the same recursion run in floats (:func:`_g0_slope`); up to
    _MP_SIMPLIFIED_STEPS simplified steps z -= g_0(z) / slope follow, each
    one exact pass for g_0.  A root not converged by then, or whose float
    slope is 0 or leaves double range (a deep state, where 1/z^2
    overflows), goes on with up to _MP_NEWTON_STEPS full steps, which take
    the exact slope in the pass for g_0.  A root has converged once a step
    dz has |dz| * _MP_STOP <= |z|, or once the bound |dz| q / (1 - q) on the
    error left does, with q = |dz| / |dz_1| <= 1/2 the contraction from the
    step dz_1 before it.  The float slope errs by about 1e-16, so from a
    double root the second step shows q near 1e-16 and stops: two exact
    passes per root.  Returns the polished roots as ascending ints at scale
    2^F, and F.  Raises NoConvergenceError when a root has not converged,
    when its iterate leaves (-1, 1) or hits 0, or when two polished roots
    meet, as the two states of [1e40, 1e40], which coincide in double, do.
    """
    F = _fixed_bits(roots, _MP_DPS)
    vals = [_fixed(v, F) for v in values]
    polished = [_newton_fixed(vals, _fixed(r, F), F, _g0_slope(values, r)) for r in roots]
    if None not in polished:
        polished.sort()
        ends = [-1 << F, *polished, 1 << F]
        if all((z1 - z0) * _MP_STOP > 2 * abs(z1) for z0, z1 in zip(ends, ends[1:])):
            return polished, F
    raise NoConvergenceError(
        "a 40-digit polished bound state has not converged, leaves (-1, 1) "
        "or meets another"
    )


def _newton_step(values: Sequence[float], roots: list[float]) -> list[float]:
    """One Newton step on :func:`_jost_residual` from each ascending root in (-1, 1).

    The pivots carry x + 1/x to one absolute ulp, and its slope 1 - 1/x^2
    vanishes at +-1, so a counted root near the edge is off by many ulps;
    the Jost recursion's inside chart has no such loss.  A step that is not
    finite, leaves (-1, 1) or passes a neighbour is skipped.
    """
    out = []
    for x, hi in zip(roots, [*roots[1:], 1.0]):
        f, df = _jost_residual(values, x)
        step = x - f / df if df else x
        out.append(step if (out[-1] if out else -1.0) < step < hi else x)
    return out


def bound_state_scan(V: Potential, cfg: NumericConfig) -> list:
    """The real zeros of f0 in (-1, 1): counted, then located.

    :func:`_sturm_counts` needs no coefficients and stays well conditioned
    at any support length.  Its counts at alpha = 1 give the states of V in
    (0, 1) and in (-1, 0), so N is counted, not found.  The N brackets are
    then narrowed together, and the count stays the only arbiter: a pass
    spreads about _CUTS points over the distinct live brackets, at least 3
    each, and keeps the piece where the count first reaches k, for the k-th
    state of its side, so every state is isolated by construction.  States
    whose brackets coincide share one set of cuts.  The first pass cuts one
    bracket per side, from Gershgorin's bound 1/|alpha| < 2 + max |V_n| to
    alpha = 1, whose count gives N, at geometric cuts; so no later bracket
    spans more than a factor of 16, and a deep state such as alpha = 1e-100
    comes out to relative precision.

    The last pivot d_b - x falls through 0 at the state and has a pole
    wherever the count of the first b - 1 pivots changes.  So a bracket
    with counts k - 1 and k at its ends, d_b - x >= 0 at lo and < 0 at hi,
    holds the one state and no pole.  There its two outermost cuts move to
    xs -+ delta, with xs the secant point of d_b - x, and a third, when it
    has more than 3, to xs, so a window that holds the state leaves a
    bracket delta wide.  Regula falsi errs by about K P, with
    P = (xs - lo)(hi - xs), so delta is 2 P times the last pass's observed
    error over its P, |xs - xs_last| / P_last, and at least one ulp (only
    the ulp on a bracket's first secant pass).  While that model holds the
    bracket shrinks quadratically; when it does not, the cuts that stay
    shrink it by at least half.  A bracket stops within 2 ulps or when a
    pass no longer shrinks it; one secant step on the last pivot places the
    root inside it.  As the count is that of double arithmetic, a state
    within a few ulps of +-1 can fall outside: [1, 5e-324] has one state,
    within 1e-323 of -1, and the scan finds none.

    Standard mode then takes one Newton step per root (:func:`_newton_step`).
    Extended mode polishes each root at 40 digits in fixed-point ints
    (:func:`_polish_fixed`, which raises NoConvergenceError when that
    fails).  Returns the roots in ascending order: floats, or in extended
    mode the exact dyadic Fractions of the polished fixed-point ints.
    """
    if V.b == 0:
        return []
    values = np.asarray(V.values, dtype=float)
    x = (0.5 / (2.0 + np.abs(values).max())) ** _FIRST_CUTS
    x = np.broadcast_to(x, (2, len(x)))
    pts = np.stack([x, *_sturm_counts(values, x, np.array([[1.0], [-1.0]]))], axis=-1)
    n_pos, n_neg = pts[:, -1, 1].astype(int)
    side = np.repeat([0, 1], [n_pos, n_neg])
    k = np.concatenate([np.arange(1, n_pos + 1), np.arange(1, n_neg + 1)])
    sign, top = np.where(side, -1.0, 1.0), k == 1
    # each state's bracket: the rows (x, count, d_b - x) at lo and at hi
    j = (pts[side, 1:, 1] >= k[:, None]).argmax(axis=1)
    br = pts[side[:, None], j[:, None] + [0, 1]]
    last = np.full((len(k), 2), np.nan)  # the last pass's xs and P
    live, shared = np.arange(len(k)), True
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while len(live):
            cur, kl = br[live], k[live]
            # first: the first state of each distinct bracket (a bracket's
            # states are consecutive in live); row: each state's bracket
            if shared:
                new = top[live]
                new[0] = True
                new[1:] |= cur[1:, 0, 0] != cur[:-1, 0, 0]
                first, uniq, row = live[new], cur[new], np.cumsum(new) - 1
                shared = not new.all()  # brackets split but never merge
            else:
                first, uniq, row = live, cur, np.arange(len(live))
            m = max(3, _CUTS // len(first))
            pts = np.empty((len(first), m + 2, 3))
            pts[:, 0], pts[:, -1] = uniq[:, 0], uniq[:, 1]
            ax, cx = uniq[:, 0, :1], uniq[:, 1, :1]
            cuts = pts[:, 1:-1, 0]
            cuts[:] = ax + (cx - ax) * (np.arange(1, m + 1) / (m + 1))
            r = np.flatnonzero(
                (uniq[:, 1, 1] - uniq[:, 0, 1] == 1) & (uniq[:, 0, 2] >= 0) & (uniq[:, 1, 2] < 0)
            )
            if len(r):
                s = uniq[r]
                a, c, ea = s[:, 0, 0], s[:, 1, 0], s[:, 0, 2]
                xs = a + ea / (ea - s[:, 1, 2]) * (c - a)
                P, g = (xs - a) * (c - xs), first[r]
                delta = np.fmax(2.0 * P * np.abs(xs - last[g, 0]) / last[g, 1], np.spacing(xs))
                last[g, 0], last[g, 1] = xs, P
                win = cuts[r]
                win[:, 0], win[:, -1] = np.fmax(xs - delta, a), np.fmin(xs + delta, c)
                if m > 3:
                    win[:, 1] = xs
                win.sort(axis=1)
                cuts[r] = win
            pts[:, 1:-1, 1], pts[:, 1:-1, 2] = _sturm_counts(values, cuts, sign[first, None])
            j = (pts[row, 1:, 1] >= kl[:, None]).argmax(axis=1)
            br[live] = nb = pts[row[:, None], j[:, None] + [0, 1]]
            lo, hi = nb[:, 0, 0], nb[:, 1, 0]
            shrunk = (lo > cur[:, 0, 0]) | (hi < cur[:, 1, 0])
            live = live[shrunk & (hi - lo > 2 * np.spacing(hi))]
        (lo, _, e_lo), (hi, _, e_hi) = br.transpose(1, 2, 0)
        t = e_lo / (e_lo - e_hi)
    t = np.where((e_lo >= 0) & (e_hi < 0) & (t <= 1), t, 0.5)
    roots = np.sort(sign * (lo + t * (hi - lo)))
    if not cfg.is_extended:
        return _newton_step(V.values, roots.tolist())
    polished, F = _polish_fixed(V.values, roots.tolist())
    return [Fraction(z, 1 << F) for z in polished]
