"""Jost polynomial construction and evaluation.

The Jost solution of the lattice equation equals z^n beyond the potential
support; marching the three-term recursion down to the boundary site yields
the Jost function f0(z), a polynomial of degree 2b - 1 with constant term 1
and leading coefficient V_b.  Its coefficients are integer polynomials in
V_1..V_b, and every float is dyadic, so :func:`jost_coefficients` builds them
exactly on Python ints over one power of two and rounds each once to float.

Two evaluation routes are provided on purpose:

* coefficient (Horner) evaluation, :func:`jost_eval`, exact in structure
  but subject to catastrophic cancellation for large b where coefficients
  span many orders of magnitude;
* the Jost solution itself, :func:`jost_solution`, by the backward
  recursion, which stays well conditioned on and inside the unit circle at
  any support length.

The coefficient certificates read the one built polynomial: the exact
f0(+-1) and signs of f0 (:func:`_band_edges`, :func:`_sign_at`), the
small-coefficient test for N = 0 (:func:`_small_coefficients`), the
Rouche margin for N = b, |prod V_j| against the coefficients of
G = f0 - (prod V_j) z^b (:func:`_rouche_margin`), and the identity
f0^{-V}(z) = f0^V(-z) of the sign-flip law, certified together with the
ints themselves by the recursion run at fixed points modulo a prime
(:func:`_sign_flip_certificate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .core import Potential
from .errors import FloatOverflowError, ZeroArgumentError

__all__ = [
    "JostPolynomial",
    "jost_coefficients",
    "jost_eval",
    "jost_solution",
    "rouche_margin",
]


def _dyadic(xs: Sequence[float]) -> tuple[list[int], int]:
    """Ints m and one shift E >= 0 with x = m / 2^E for every float x (all dyadic)."""
    ratios = [x.as_integer_ratio() for x in xs]
    E = max((d.bit_length() - 1 for _, d in ratios), default=0)
    return [n << (E + 1 - d.bit_length()) for n, d in ratios], E


def _int_coefficients(values: Sequence[float]) -> tuple[list[int], int]:
    """Exact coefficients of f0 as ints c_j and a shift: f0 = sum c_j z^j / 2^shift.

    With V_n = m_n / S for S = 2^E, the auxiliary polynomials
    h_n = S^(b-n) z^(b-n) f_n are integral and obey the shift-and-add step
    h_(n-1) = -S^2 z^2 h_(n+1) + (S z^2 + m_n z + S) h_n from h_b = z^b.
    h_(b+1) = z^b / S is not integral, so the loop carries u = S h_(n+1),
    which starts at z^b: the first step uses S z^b for S^2 h_(b+1).
    Finally f0 = h_0 / (S z)^b, so the shift is E b.  Lists hold the
    coefficients of z^b, z^(b+1), ...
    """
    ms, E = _dyadic(values)
    h, u = [1], [1]
    for m in reversed(ms):
        h, u = [
            ((c + c2 - s) << E) + m * c1
            for c, c1, c2, s in zip([*h, 0, 0], [0, *h, 0], [0, 0, *h], [0, 0, *u, 0, 0])
        ], [c << E for c in h]
    return h[: max(1, 2 * len(ms))], E * len(ms)


@dataclass(frozen=True)
class JostPolynomial:
    """Coefficient vector of f0(z); index j holds the coefficient of z^j.

    ``ints`` and ``shift`` carry the same coefficients exactly, as
    ``ints[j] / 2^shift`` (the recursion is integer-combinatorial in the
    dyadic potential values); the extended-precision root path works on
    them.  ``exact`` views them as ints when every V_n is an integer and as
    Fractions otherwise.  ``values`` is the potential V_1..V_b they were
    built from, which the root finder and the norming constants' recursion
    need.  Every field is required, as the root finder, the edge values and
    the count read all of them: build one by :func:`jost_coefficients`.
    """

    coeffs: tuple[float, ...]
    b: int
    ints: tuple[int, ...]
    shift: int
    values: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def exact(self) -> tuple:
        if self.shift == 0:
            return self.ints
        return tuple(Fraction(c, 1 << self.shift) for c in self.ints)


def _polynomial(ints: Sequence[int], shift: int, values: tuple[float, ...]) -> JostPolynomial:
    """Round the exact coefficients once to float; int true division rounds correctly."""
    scale = 1 << shift
    try:
        coeffs = tuple(c / scale for c in ints)
    except OverflowError as exc:
        bits = max((abs(c) >> shift).bit_length() for c in ints)
        raise FloatOverflowError(
            f"Jost coefficients reach 2^{bits}, beyond double precision"
        ) from exc
    return JostPolynomial(
        coeffs=coeffs, b=len(values), ints=tuple(ints), shift=shift, values=values
    )


def jost_coefficients(V: Potential) -> JostPolynomial:
    """Coefficients of the Jost function for a compactly supported potential.

    Computed exactly in integer arithmetic (float inputs are dyadic
    rationals), then rounded once to float.  For b = 0 this is the constant
    polynomial 1.
    """
    return _polynomial(*_int_coefficients(V.values), V.values)


def jost_eval(p: JostPolynomial | Sequence[float], z: complex) -> complex:
    """Horner evaluation of the coefficient vector at z."""
    coeffs = p.coeffs if isinstance(p, JostPolynomial) else p
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def jost_solution(V: Potential, z: complex) -> list[complex]:
    """Values f_0(z), f_1(z), ..., f_b(z) of the Jost solution.

    f_n = z^n for n >= b; the lower values follow from the backward
    recursion f_{n-1} = -f_{n+1} + (z + 1/z + V_n) f_n.  A power z^n beyond
    double range, as 2^1100, raises FloatOverflowError.
    """
    if z == 0:
        raise ZeroArgumentError("the Jost recursion needs z != 0")
    b = V.b
    out = [complex(0)] * (b + 1)
    try:
        f_next = z ** (b + 1)
        f_cur = z**b
        out[b] = f_cur
        zi = 1.0 / z
        for n in range(b, 0, -1):
            f_prev = -f_next + (z + zi + V.values[n - 1]) * f_cur
            f_next, f_cur = f_cur, f_prev
            out[n - 1] = f_cur
    except OverflowError as exc:
        raise FloatOverflowError(f"the Jost solution at z = {z!r} leaves double range") from exc
    return out


def _band_edges(p: JostPolynomial) -> tuple[int, int]:
    """2^p.shift f0(1) and 2^p.shift f0(-1): the exact (alternating) sum of p.ints.

    Float Horner on the rounded coefficients loses these values at large b.
    """
    return sum(p.ints), sum(c if j % 2 == 0 else -c for j, c in enumerate(p.ints))


def _sign_at(p: JostPolynomial, x: float) -> int:
    """The sign of f0(x) at a float x, exact: Horner on p.ints, homogeneous in x = n / d."""
    n, d = x.as_integer_ratio()
    acc, scale = 0, 1
    for c in reversed(p.ints):
        acc, scale = acc * n + c * scale, scale * d
    return (acc > 0) - (acc < 0)


def _small_coefficients(p: JostPolynomial) -> bool:
    """Whether every coefficient beyond the constant term is below 1/(2b), b >= 1.

    Then |f0| >= 1/(2b) throughout (-1, 1), which forces N = 0.
    """
    return max(abs(c) for c in p.coeffs[1:]) < 1.0 / (2 * p.b)


_Q = (1 << 61) - 1  # a Mersenne prime, the certificate's modulus
_POINTS = (3, 5)  # fixed, so that a verdict never varies between runs


def _sign_flip_certificate(p: JostPolynomial) -> bool:
    """Whether p is V's Jost polynomial and f0^{-V}(z) = f0^V(-z), checked mod q.

    The identity is the sign-flip law: equal polynomials have negated zero
    multisets.  At each fixed z the step of :func:`_int_coefficients` runs
    on one value mod q, for V and for -V, from h_b = 1 and h_(b+1) = 1/S
    (z^b divided out), so it ends at S^b f0(z) = 2^shift f0(z) when
    shift = E b, which is required too.  V's value must be P(z) and -V's
    P(-z), for P = sum p.ints[j] z^j, from one Horner pass over each of P's
    even and odd parts.  The pointwise run is a route independent of the
    coefficient kernel, so in O(b) steps and with no second build this
    certifies p.ints as well as the law: a wrong polynomial agrees with the
    right one at a random point with probability at most 2b/q (Schwartz
    1980; Zippel 1979).
    """
    ms, E = _dyadic(p.values)
    if E * len(ms) != p.shift or len(p.ints) != max(1, 2 * len(ms)):
        return False
    S = pow(2, E, _Q)
    for z in _POINTS:
        zz = z * z
        a, w = S * (1 + zz) % _Q, S * S * zz % _Q
        h_pos = h_neg = 1
        next_pos = next_neg = pow(2, -E % 61, _Q)  # 1/S, as 2^61 = 1 mod q
        for m in reversed(ms):
            mz = m * z
            h_pos, next_pos = ((a + mz) * h_pos - w * next_pos) % _Q, h_pos
            h_neg, next_neg = ((a - mz) * h_neg - w * next_neg) % _Q, h_neg
        even = odd = 0
        for c in reversed(p.ints[::2]):
            even = even * zz + c
        for c in reversed(p.ints[1::2]):
            odd = odd * zz + c
        if (h_pos - even - z * odd) % _Q or (h_neg - even + z * odd) % _Q:
            return False
    return True


def _rouche_margin(p: JostPolynomial) -> float:
    """:func:`rouche_margin` from an already built polynomial p and its values."""
    prod = math.prod(p.values)
    g = list(p.coeffs)
    g[p.b] -= prod
    return abs(prod) - sum(map(abs, g))


def rouche_margin(V: Potential) -> float:
    """|prod V_j| minus the coefficient-sum bound on |G| over the unit circle.

    f0 = F + G with F = (prod V_j) z^b, the one monomial of top degree in
    the potential values.  min |F| on |z| = 1 is exactly |prod V_j| while
    sum |G_j| dominates max |G|, so a positive margin certifies that f0 has
    exactly b zeros inside the unit circle, i.e. N = b.  For b = 0 it is 1.
    """
    return _rouche_margin(jost_coefficients(V))
