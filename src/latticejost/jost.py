"""Jost polynomial construction and evaluation.

The Jost solution of the lattice equation equals z^n beyond the potential
support; marching the three-term recursion down to the boundary site yields
the Jost function f0(z), a polynomial of degree 2b - 1 with constant term 1
and leading coefficient V_b.

Two evaluation routes are provided on purpose:

* coefficient (Horner) evaluation, exact in structure but subject to
  catastrophic cancellation for large b where coefficients span many
  orders of magnitude;
* direct recursion evaluation at a point, which stays well conditioned
  on and inside the unit circle and is the workhorse for large-b scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import Potential
from .errors import FloatOverflowError, ZeroArgumentError

__all__ = [
    "JostPolynomial",
    "FGDecomposition",
    "jost_coefficients",
    "jost_eval",
    "jost_solution",
    "jost_eval_recursive",
    "fg_decompose",
    "rouche_margin",
]


def _exact(v: float):
    # floats are exactly representable as rationals; prefer int when possible
    if float(v).is_integer():
        return int(v)
    return Fraction(v)


def _coefficient_recursion(values: Sequence) -> list:
    """Exact shift-and-add recursion for the coefficients of f0.

    Works over any commutative ring (ints, Fractions, floats, mpf).  The
    auxiliary polynomial g_n = z^(b-n) f_n keeps every intermediate free of
    negative powers: g_{n-1} = -z^2 g_{n+1} + (z^2 + V_n z + 1) g_n with
    g_{b+1} = g_b = z^b, and finally f0 = g_0 / z^b.
    """
    b = len(values)
    if b == 0:
        return [1]
    size = 3 * b + 3
    zero = values[0] - values[0]
    one = zero + 1
    g_next = [zero] * size
    g_next[b] = one
    g_cur = list(g_next)
    for n in range(b, 0, -1):
        vn = values[n - 1]
        g_prev = [zero] * size
        for j in range(size - 2):
            c = g_cur[j]
            if c != zero:
                g_prev[j] = g_prev[j] + c
                g_prev[j + 1] = g_prev[j + 1] + vn * c
                g_prev[j + 2] = g_prev[j + 2] + c
        for j in range(size - 2):
            c = g_next[j]
            if c != zero:
                g_prev[j + 2] = g_prev[j + 2] - c
        g_next, g_cur = g_cur, g_prev
    return g_cur[b : b + 2 * b]


@dataclass(frozen=True)
class JostPolynomial:
    """Coefficient vector of f0(z); index j holds the coefficient of z^j.

    ``exact`` carries the same coefficients as exact rationals (the
    recursion is integer-combinatorial in the potential values), used by
    the extended-precision root path.
    """

    coeffs: tuple[float, ...]
    b: int
    exact: tuple = ()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def jost_coefficients(V: Potential) -> JostPolynomial:
    """Coefficients of the Jost function for a compactly supported potential.

    Computed exactly in rational arithmetic (float inputs are dyadic
    rationals), then rounded once to float.  For b = 0 this is the constant
    polynomial 1.
    """
    exact = tuple(_coefficient_recursion([_exact(v) for v in V.values]))
    try:
        coeffs = tuple(float(c) for c in exact)
    except OverflowError as exc:
        bits = max(int(abs(c)).bit_length() for c in exact)
        raise FloatOverflowError(
            f"Jost coefficients reach 2^{bits}, beyond double precision"
        ) from exc
    return JostPolynomial(coeffs=coeffs, b=V.b, exact=exact)


def jost_eval(p: JostPolynomial | Sequence[float], z: complex) -> complex:
    """Horner evaluation of the coefficient vector at z."""
    coeffs = p.coeffs if isinstance(p, JostPolynomial) else p
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def jost_eval_derivative(p: JostPolynomial | Sequence[float], z: complex) -> complex:
    """Horner evaluation of d f0 / dz at z."""
    coeffs = p.coeffs if isinstance(p, JostPolynomial) else p
    acc = 0.0 + 0.0j
    for j in range(len(coeffs) - 1, 0, -1):
        acc = acc * z + j * coeffs[j]
    return acc


def jost_solution(V: Potential, z: complex) -> list[complex]:
    """Values f_0(z), f_1(z), ..., f_b(z) of the Jost solution.

    f_n = z^n for n >= b; the lower values follow from the backward
    recursion f_{n-1} = -f_{n+1} + (z + 1/z + V_n) f_n.
    """
    if z == 0:
        raise ZeroArgumentError("the Jost recursion needs z != 0")
    b = V.b
    out = [complex(0)] * (b + 1)
    f_next = z ** (b + 1)
    f_cur = z**b
    out[b] = f_cur
    zi = 1.0 / z
    for n in range(b, 0, -1):
        f_prev = -f_next + (z + zi + V.values[n - 1]) * f_cur
        f_next, f_cur = f_cur, f_prev
        out[n - 1] = f_cur
    return out


def jost_eval_recursive(values: Sequence, z):
    """f0(z) by direct recursion; generic over float, complex, and mpf.

    Well conditioned for |z| <= 1 even when the coefficient vector is not;
    this is what large-b sign scans must use.
    """
    b = len(values)
    if b == 0:
        return z / z  # one, in the arithmetic of z
    s = z + 1 / z
    f_next = z ** (b + 1)
    f_cur = z**b
    for n in range(b, 0, -1):
        f_next, f_cur = f_cur, (s + values[n - 1]) * f_cur - f_next
    return f_cur


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """x**n for an integer n >= 1 by repeated squaring.

    numpy raises a float array to an integer power through the general pow
    of every element, which costs far more than these few multiplications
    on a scan grid of thousands of points.
    """
    out = None
    while True:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if not n:
            return out
        x = x * x


def jost_eval_recursive_grid(values: Sequence[float], zs: np.ndarray) -> np.ndarray:
    """Vectorized recursion evaluation of f0 on an array of nonzero points."""
    b = len(values)
    zs = np.asarray(zs, dtype=float)
    if b == 0:
        return np.ones_like(zs)
    s = zs + 1.0 / zs
    f_cur = _power(zs, b)
    f_next = f_cur * zs
    for n in range(b, 0, -1):
        f_next, f_cur = f_cur, (s + values[n - 1]) * f_cur - f_next
    return f_cur


def jost_eval_recursive_pair(values: Sequence, z):
    """(f0(z), f0'(z)) by differentiating the recursion; generic arithmetic."""
    b = len(values)
    one = z / z
    if b == 0:
        return one, 0 * z
    zi = 1 / z
    s = z + zi
    ds = one - zi * zi
    f_next = z ** (b + 1)
    d_next = (b + 1) * z**b
    f_cur = z**b
    d_cur = b * z ** (b - 1)
    for n in range(b, 0, -1):
        w = s + values[n - 1]
        f_prev = -f_next + w * f_cur
        d_prev = -d_next + w * d_cur + ds * f_cur
        f_next, f_cur = f_cur, f_prev
        d_next, d_cur = d_cur, d_prev
    return f_cur, d_cur


@dataclass(frozen=True)
class FGDecomposition:
    """Split f0 = F + G with F the unique top-degree monomial (prod V_j) z^b."""

    F_coefficient: float
    G: tuple[float, ...]
    b: int

    def reconstruct(self) -> tuple[float, ...]:
        out = list(self.G)
        out[self.b] += self.F_coefficient
        return tuple(out)


def fg_decompose(V: Potential, p: JostPolynomial) -> FGDecomposition:
    """Peel the product monomial off the z^b slot of the Jost polynomial."""
    prod = 1.0
    for v in V.values:
        prod *= v
    g = list(p.coeffs)
    g[V.b] -= prod
    return FGDecomposition(F_coefficient=prod, G=tuple(g), b=V.b)


def rouche_margin(V: Potential) -> float:
    """|prod V_j| minus the coefficient-sum bound on |G| over the unit circle.

    min |F| on |z| = 1 is exactly |prod V_j| while sum |G_j| dominates
    max |G|, so a positive margin certifies that f0 has exactly b zeros
    inside the unit circle, i.e. N = b.
    """
    p = jost_coefficients(V)
    fg = fg_decompose(V, p)
    return abs(fg.F_coefficient) - sum(abs(g) for g in fg.G)
