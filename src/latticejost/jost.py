"""Jost polynomial construction and evaluation.

The Jost solution of the lattice equation equals z^n beyond the potential
support; marching the three-term recursion down to the boundary site yields
the Jost function f0(z), a polynomial of degree 2b - 1 with constant term 1
and leading coefficient V_b.

Two evaluation routes are provided on purpose:

* coefficient (Horner) evaluation, :func:`jost_eval`, exact in structure
  but subject to catastrophic cancellation for large b where coefficients
  span many orders of magnitude;
* the Jost solution itself, :func:`jost_solution`, by the backward
  recursion, which stays well conditioned on and inside the unit circle at
  any support length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Potential
from .errors import FloatOverflowError, ZeroArgumentError

__all__ = [
    "JostPolynomial",
    "FGDecomposition",
    "jost_coefficients",
    "jost_eval",
    "jost_solution",
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
    the extended-precision root path; ``values`` is the potential V_1..V_b
    they were built from, which the norming constants' recursion needs.
    """

    coeffs: tuple[float, ...]
    b: int
    exact: tuple = ()
    values: tuple[float, ...] = ()

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
    return JostPolynomial(coeffs=coeffs, b=V.b, exact=exact, values=V.values)


def _mirrored(p: JostPolynomial) -> JostPolynomial:
    """The polynomial of -V from V's: f0^{-V}(z) = f0^V(-z), so c_j -> (-1)^j c_j.

    The floats are rounded from the negated exact values, so they equal
    jost_coefficients(V.negated()) bit for bit (an exact zero stays 0.0).
    """

    def flip(cs):
        return tuple(-c if j % 2 else c for j, c in enumerate(cs))

    exact = flip(p.exact)
    coeffs = tuple(float(c) for c in exact) if exact else flip(p.coeffs)
    values = tuple(-v for v in p.values)
    return JostPolynomial(coeffs=coeffs, b=p.b, exact=exact, values=values)


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


def _rouche_margin(V: Potential, p: JostPolynomial) -> float:
    """:func:`rouche_margin` of V from its already built polynomial p."""
    fg = fg_decompose(V, p)
    return abs(fg.F_coefficient) - sum(abs(g) for g in fg.G)


def rouche_margin(V: Potential) -> float:
    """|prod V_j| minus the coefficient-sum bound on |G| over the unit circle.

    min |F| on |z| = 1 is exactly |prod V_j| while sum |G_j| dominates
    max |G|, so a positive margin certifies that f0 has exactly b zeros
    inside the unit circle, i.e. N = b.  For b = 0 it is 1.
    """
    return _rouche_margin(V, jost_coefficients(V))
