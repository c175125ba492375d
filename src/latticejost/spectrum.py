"""Root finding and spectral classification of the Jost polynomial.

Roots are located by balanced companion-matrix eigenvalues, polished by
Newton steps, merged into multiplicity clusters, and then binned by the
interval scheme: bound states in (-1,0) and (0,1), real resonances beyond
+-1, exceptional zeros at +-1, and complex pairs outside the unit circle.

In extended precision the roots are refined from the exact coefficients
(Aberth in :func:`find_zeros`, Newton in the norming constants) by one
fixed-point kernel, :func:`_horner_fixed`: exact Python ints scaled by 2^F
with F = ceil(dps log2 10) + 40 bits for a dps-digit refinement (more for
roots tinier than 2^-40 or a leading coefficient below 1/2).  Only the
norming constants' products and quotients, whose magnitudes span too wide a
range for fixed point, are formed in mpmath.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import NumericConfig, Potential
from .errors import (
    CountMismatchError,
    DegenerateDegreeError,
    FloatOverflowError,
    NotABoundStateError,
    UnitCircleViolationError,
)
from .jost import (
    JostPolynomial,
    jost_eval,
    jost_eval_derivative,
    jost_eval_recursive,
    jost_eval_recursive_grid,
    jost_eval_recursive_pair,
)

__all__ = [
    "ClassifiedZero",
    "ZeroLedger",
    "BoundState",
    "SignRecord",
    "find_zeros",
    "classify_zeros",
    "norming_constants",
    "sign_diagnostics",
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


def _newton_polish(coeffs: Sequence[float], z: complex, steps: int = 12) -> complex:
    """Horner-Newton refinement; a step is kept only if |f| does not grow."""
    fz = abs(jost_eval(coeffs, z))
    for _ in range(steps):
        dp = jost_eval_derivative(coeffs, z)
        if dp == 0:
            break
        step = jost_eval(coeffs, z) / dp
        cand = z - step
        fc = abs(jost_eval(coeffs, cand))
        if fc >= fz:
            break
        z, fz = cand, fc
        if abs(step) < 1e-16 * max(1.0, abs(z)):
            break
    return z


def _cluster(roots: list[complex], tol: float) -> list[tuple[complex, int]]:
    """Greedy union-find merge of roots closer than tol; centroid + count."""
    n = len(roots)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) < tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(roots[i])
    out = []
    for members in groups.values():
        centroid = sum(members) / len(members)
        out.append((centroid, len(members)))
    return out


def _fixed_scales(coeffs: Sequence, roots: Sequence[complex], dps: int) -> tuple[int, int]:
    """Fraction bits (F, C) of the roots and of the coefficients of p.

    F = ceil(dps log2 10) + 40 resolves every root of modulus 2^-40 or more
    to dps digits; a smaller root adds the bits it lacks.  The coefficients
    carry C - F more bits when the leading one is below 1/2, which lifts it
    to at least 1/2: with the constant term 1 of f0, p then keeps dps digits
    relative to its size inside and outside the unit circle alike.
    """
    F = math.ceil(dps * math.log2(10)) + 40
    F += max([0] + [-(math.frexp(abs(z))[1] + 40) for z in roots])
    n, d = coeffs[-1].as_integer_ratio()
    return F, F + max(0, d.bit_length() - abs(n).bit_length())


def _fixed(c, F: int) -> int:
    """round(c * 2^F) for an exact int, Fraction or float c."""
    n, d = c.as_integer_ratio()
    return ((n << (F + 1)) // d + 1) >> 1


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


def _aberth(coeffs_exact: Sequence, seeds: list[complex], dps: int = 50, maxit: int = 120):
    """Simultaneous Aberth-Ehrlich refinement to about dps digits.

    The arithmetic is fixed point: exact Python ints scaled by 2^F, with
    F = ceil(dps log2 10) + 40 unless a seed is tinier than 2^-40, and f0
    evaluated by :func:`_horner_fixed` from the exactly rounded coefficients
    (see :func:`_fixed_scales`).  Each pass updates every root from the
    previous pass's roots; it stops once every correction is below
    10^-(dps-8) in absolute value.  The roots come back as correctly
    rounded complex values.  A seed beyond double range (an overflowed
    companion eigenvalue) raises FloatOverflowError.
    """
    if not all(cmath.isfinite(z) for z in seeds):
        raise FloatOverflowError("a root of the Jost polynomial leaves double range")
    F, C = _fixed_scales(coeffs_exact, seeds, dps)
    desc = [_fixed(c, C) for c in reversed(coeffs_exact)]
    # tiny deterministic shear so that coincident double seeds separate
    roots = []
    for k, z in enumerate(seeds):
        shear = _fixed(Fraction(k + 1, 10**14), F)
        roots.append((_fixed(z.real, F) + shear, _fixed(z.imag, F) + shear))
    n = len(roots)
    one = 1 << F
    tol_scale = 10 ** (2 * (dps - 8))  # |corr| < 10^-(dps-8), squared
    for _ in range(maxit):
        # sum_j 1/(z_k - z_j), one reciprocal per pair of roots
        sr, si = [0] * n, [0] * n
        for k, (zkr, zki) in enumerate(roots):
            for j in range(k + 1, n):
                er, ei = zkr - roots[j][0], zki - roots[j][1]
                q = (1 << 3 * F) // (er * er + ei * ei)  # 2^F / |e|^2
                ir, ii = (er * q) >> F, -((ei * q) >> F)
                sr[k] += ir
                si[k] += ii
                sr[j] -= ir
                si[j] -= ii
        maxcorr2 = 0
        new = []
        for k, (zkr, zki) in enumerate(roots):
            pr, pi, dr, di = _horner_fixed(desc, zkr, zki, F)
            if dr == 0 and di == 0:
                new.append((zkr, zki))
                continue
            rr, ri = _fixed_div(pr, pi, dr, di, F)
            # denom = 1 - ratio * ssum
            er = one - ((rr * sr[k] - ri * si[k]) >> F)
            ei = -((rr * si[k] + ri * sr[k]) >> F)
            cr, ci = (rr, ri) if er == 0 and ei == 0 else _fixed_div(rr, ri, er, ei, F)
            maxcorr2 = max(maxcorr2, cr * cr + ci * ci)
            new.append((zkr - cr, zki - ci))
        roots = new
        if maxcorr2 * tol_scale < one * one:
            break
    return [complex(zr / one, zi / one) for zr, zi in roots]


def find_zeros(p: JostPolynomial, cfg: NumericConfig) -> list[tuple[complex, int]]:
    """All roots of the Jost polynomial, clustered by multiplicity.

    Returns (root, multiplicity) pairs; multiplicities sum to the degree.
    Real-coefficient conjugate symmetry is enforced explicitly after the
    Newton polish.
    """
    degree = p.degree
    if degree == 0:
        return []
    if p.coeffs[-1] == 0.0:
        raise DegenerateDegreeError("leading Jost coefficient is zero")

    raw = np.polynomial.polynomial.polyroots(np.asarray(p.coeffs, dtype=float))
    polished: list[complex] = []
    handled = np.zeros(len(raw), dtype=bool)
    for i, z in enumerate(raw):
        if handled[i]:
            continue
        handled[i] = True
        z = complex(z)
        if abs(z.imag) < cfg.tau_real:
            zr = _newton_polish(p.coeffs, complex(z.real))
            if abs(zr.imag) < cfg.tau_real:
                zr = complex(zr.real)
            polished.append(zr)
            continue
        # polish one member of the conjugate pair, mirror the other
        mate = None
        for j in range(i + 1, len(raw)):
            if not handled[j] and abs(complex(raw[j]) - z.conjugate()) < 1e-8 * max(1.0, abs(z)):
                mate = j
                break
        zr = _newton_polish(p.coeffs, z)
        if abs(zr.imag) < cfg.tau_real:
            zr = complex(zr.real)
            polished.append(zr)
            if mate is not None:
                handled[mate] = True
                polished.append(zr)
            continue
        polished.append(zr)
        if mate is not None:
            handled[mate] = True
            polished.append(zr.conjugate())

    if cfg.is_extended:
        exact = p.exact if p.exact else p.coeffs
        polished = [complex(z) for z in _aberth(exact, polished)]
        polished = [
            complex(z.real) if abs(z.imag) < cfg.tau_real else z for z in polished
        ]

    clusters = _cluster(polished, cfg.tau_cluster)
    out = []
    for z, m in clusters:
        if abs(z.imag) < cfg.tau_real:
            z = complex(z.real)
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

    def all_roots_expanded(self) -> list[complex]:
        """Real zeros ascending, then complex zeros; multiplicity-expanded."""
        out: list[complex] = [complex(v) for v in self.real_roots_expanded()]
        cplx = [cz for cz in self.zeros if cz.kind == COMPLEX_PAIR]
        cplx.sort(key=lambda cz: (cz.z.real, cz.z.imag))
        for cz in cplx:
            out.extend([cz.z] * cz.multiplicity)
        return out

    def bound_state_roots(self) -> list[tuple[int, float]]:
        """(k, alpha) with k the 1-based position in the real ordering."""
        reals = self.real_roots_expanded()
        return [(k, a) for k, a in enumerate(reals, start=1) if self.p < k <= self.r]


def classify_zeros(
    roots: Sequence[tuple[complex, int]], cfg: NumericConfig, b: int
) -> ZeroLedger:
    """Bin clustered roots by the interval scheme and build the ledger.

    Raises CountMismatchError when multiplicities miss the degree 2b - 1 and
    UnitCircleViolationError when a nonreal root sits inside the unit circle
    (both indicate numerical failure, not a spectral event).
    """
    total = sum(m for _, m in roots)
    expected = max(2 * b - 1, 0)
    if total != expected:
        raise CountMismatchError(
            f"root multiplicities sum to {total}, expected {expected}"
        )

    classified: list[ClassifiedZero] = []
    counts = {RES_LEFT: 0, BOUND_NEG: 0, BOUND_POS: 0, RES_RIGHT: 0}
    mu_minus = mu_plus = 0
    complex_total = 0
    for z, m in roots:
        if abs(z.imag) >= cfg.tau_real:
            if abs(z) <= 1.0 - cfg.tau_real:
                raise UnitCircleViolationError(
                    f"nonreal root {z} inside the unit circle"
                )
            classified.append(ClassifiedZero(z, m, COMPLEX_PAIR))
            complex_total += m
            continue
        x = z.real
        if abs(x + 1.0) <= cfg.tau_edge:
            classified.append(ClassifiedZero(complex(-1.0), m, EDGE_MINUS))
            mu_minus += m
        elif abs(x - 1.0) <= cfg.tau_edge:
            classified.append(ClassifiedZero(complex(1.0), m, EDGE_PLUS))
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
    c2_product: float
    c2_residue: float


def _norming_constants_mp(
    ledger: ZeroLedger, p: JostPolynomial, dps: int = 40
) -> list[BoundState]:
    """Multiprecision variant of :func:`norming_constants`.

    A bound state alpha can have a resonance near its reciprocal 1/alpha,
    which makes the factor (1 - alpha * r) — and equally f0(1/alpha) —
    cancel catastrophically in double arithmetic.  Every root is therefore
    re-polished from the exact coefficients by Newton steps (times its
    multiplicity) in the fixed-point kernel of :func:`_aberth`, roots scaled
    by 2^F with F = ceil(dps log2 10) + 40 (see :func:`_fixed_scales`),
    which also evaluates f0(1/alpha) and f0'(alpha).  The products,
    alpha^(2b) and the residue quotient are formed in mpmath at dps digits:
    their magnitudes span too wide a range for fixed point.  Each
    fixed-point value enters mpmath exactly as mpf((man, -F)), rounded to
    dps digits.
    """
    from mpmath import mp, mpc, mpf

    exact = p.exact if p.exact else p.coeffs
    F, C = _fixed_scales(exact, [cz.z for cz in ledger.zeros], dps)
    desc = [_fixed(c, C) for c in reversed(exact)]
    step_scale = 10 ** (2 * (dps - 5))  # |step| < 10^-(dps-5), squared
    one = 1 << F

    def polish(z: complex, mult: int) -> tuple[int, int]:
        wr, wi = _fixed(z.real, F), _fixed(z.imag, F)
        for _ in range(10):
            pr, pi, dr, di = _horner_fixed(desc, wr, wi, F)
            if dr == 0 and di == 0:
                break
            sr, si = _fixed_div(mult * pr, mult * pi, dr, di, F)
            wr, wi = wr - sr, wi - si
            if (sr * sr + si * si) * step_scale < one * one:
                break
        return wr, wi

    reals_fx: list[int] = []
    cplx_fx: list[tuple[int, int]] = []
    for cz in ledger.zeros:
        wr, wi = polish(cz.z, cz.multiplicity)
        if cz.kind == COMPLEX_PAIR:
            cplx_fx.extend([(wr, wi)] * cz.multiplicity)
        else:
            reals_fx.extend([wr] * cz.multiplicity)
    reals_fx.sort()

    with mp.workdps(dps):
        reals = [mpf((r, -F)) for r in reals_fx]
        cplx = [mpc(mpf((r, -F)), mpf((i, -F))) for r, i in cplx_fx]
        out = []
        for k, _ in ledger.bound_state_roots():
            alpha = reals[k - 1]
            num = mpc(1)
            for a in reals + cplx:
                num *= 1 - alpha * a
            den = mpc(1)
            for j, a in enumerate(reals):
                if j != k - 1:
                    den *= alpha - a
            for a in cplx:
                den *= alpha - a
            c2_product = (num / den).real / alpha ** (2 * ledger.b)
            inv_alpha, _ = _fixed_div(one, 0, reals_fx[k - 1], 0, F)
            f_inv = _horner_fixed(desc, inv_alpha, 0, F)[0]
            df_alpha = _horner_fixed(desc, reals_fx[k - 1], 0, F)[2]
            c2_residue = mpf((f_inv, -C)) / (alpha * mpf((df_alpha, -C)))
            out.append(
                BoundState(
                    k=k,
                    alpha=float(alpha),
                    lam=float(2 - alpha - 1 / alpha),
                    c2_product=float(c2_product),
                    c2_residue=float(c2_residue),
                )
            )
        return out


def norming_constants(
    ledger: ZeroLedger, p: JostPolynomial, cfg: NumericConfig | None = None
) -> list[BoundState]:
    """Marchenko norming constants via two independent formulas.

    Product route: c^2 = alpha^(-2b) prod_s (1 - alpha alpha_s) /
    prod_{j != k} (alpha - alpha_j) over the multiplicity-expanded root
    list.  Residue route: c^2 = f0(1/alpha) / (alpha f0'(alpha)).

    With an extended-precision config both formulas are evaluated in
    multiprecision, which survives the near-reciprocal bound-state /
    resonance configuration that defeats double arithmetic: the roots are
    re-polished and f0(1/alpha), f0'(alpha) evaluated in the fixed-point
    kernel (F = 173 bits for 40 digits), the products and quotients formed
    in mpmath at 40 digits (see :func:`_norming_constants_mp`).
    """
    if cfg is not None and cfg.is_extended:
        return _norming_constants_mp(ledger, p)
    all_roots = ledger.all_roots_expanded()
    reals = ledger.real_roots_expanded()
    out = []
    for k, alpha in ledger.bound_state_roots():
        num = 1.0 + 0.0j
        for a in all_roots:
            num *= 1.0 - alpha * a
        den = 1.0 + 0.0j
        skipped = False
        for a in all_roots:
            # skip exactly one instance of the bound-state root itself
            if not skipped and a.imag == 0.0 and a.real == reals[k - 1]:
                skipped = True
                continue
            den *= alpha - a
        try:
            c2_product = (num / den).real / alpha ** (2 * ledger.b)
            c2_residue = (
                jost_eval(p, 1.0 / alpha) / (alpha * jost_eval_derivative(p, alpha))
            ).real
        except ZeroDivisionError as exc:
            raise FloatOverflowError(
                f"norming constant of bound state k={k} at alpha={alpha!r} "
                f"leaves double precision"
            ) from exc
        lam = 2.0 - alpha - 1.0 / alpha
        out.append(BoundState(k=k, alpha=alpha, lam=lam, c2_product=c2_product,
                              c2_residue=c2_residue))
    return out


def norming_constant_at(
    ledger: ZeroLedger,
    p: JostPolynomial,
    alpha: float,
    cfg: NumericConfig | None = None,
) -> BoundState:
    """Norming constant for one requested zero; must be a bound state."""
    for bs in norming_constants(ledger, p, cfg):
        if abs(bs.alpha - alpha) < 1e-12 * max(1.0, abs(alpha)):
            return bs
    raise NotABoundStateError(f"{alpha} is not a bound-state zero of this ledger")


# ---------------------------------------------------------------------------
# sign diagnostics


@dataclass(frozen=True, slots=True)
class SignRecord:
    k: int
    alpha: float
    sign_p_minus: int
    sign_p_plus: int
    sign_denominator: int
    parity: int
    denominator_matches_parity: bool
    product_matches_parity: bool


def sign_diagnostics(ledger: ZeroLedger) -> list[SignRecord]:
    """Per-bound-state signs of the resonance products and the derivative sign.

    Checks the alternation law: sgn prod_{j != k} (alpha_k - alpha_j) equals
    (-1)^(k-1), and the matching alternation of the one-sided resonance
    product P- (for alpha in (-1,0)) or P+ (for alpha in (0,1)).
    """
    reals = ledger.real_roots_expanded()
    all_roots = ledger.all_roots_expanded()
    p_, r_, s_ = ledger.p, ledger.r, ledger.s
    out = []
    for k, alpha in ledger.bound_state_roots():
        pm = 1.0
        for j in range(p_):
            pm *= 1.0 - reals[j] * alpha
        pp = 1.0
        for j in range(r_, s_):
            pp *= 1.0 - reals[j] * alpha
        den = 1.0 + 0.0j
        skipped = False
        for a in all_roots:
            if not skipped and a.imag == 0.0 and a.real == reals[k - 1]:
                skipped = True
                continue
            den *= alpha - a
        parity = 1 if (k - 1) % 2 == 0 else -1
        s_pm = 1 if pm > 0 else -1
        s_pp = 1 if pp > 0 else -1
        s_den = 1 if den.real > 0 else -1
        relevant = s_pm if alpha < 0 else s_pp
        out.append(
            SignRecord(
                k=k,
                alpha=alpha,
                sign_p_minus=s_pm,
                sign_p_plus=s_pp,
                sign_denominator=s_den,
                parity=parity,
                denominator_matches_parity=(s_den == parity),
                product_matches_parity=(relevant == parity),
            )
        )
    return out


# ---------------------------------------------------------------------------
# large-b bound-state scan


_GEO_EDGE = np.concatenate([1.0 - np.logspace(-12, -0.3, 240), [1.0 - 1e-13]])
_XTOL = 1e-15
_RTOL = 4 * np.finfo(float).eps
_REFINE_MAXIT = 256  # bisection at least every fourth pass halves 2 to 1e-15 in 204
_MP_DPS = 40
_MP_STOP = 10.0**-38  # simplified Newton stops once |dz| <= _MP_STOP |z|
_MP_SIMPLIFIED_STEPS = 4
_MP_NEWTON_STEPS = 5


def _refine_brackets(values, a, c, fa, fc) -> np.ndarray:
    """Roots of f0 in the sign brackets [a, c], all refined at once.

    Safeguarded Illinois regula falsi: every pass evaluates f0 by the
    vectorized recursion at one new point per bracket and keeps the sign
    change.  Illinois halves the stored value of an end retained twice in a
    row.  The new point keeps half a tolerance from both ends, so an end
    that has converged pulls the other one in (as in Brent's method); a
    bracket that has not halved in three passes bisects.  A bracket is done,
    and no longer changes, once its width is below _XTOL + _RTOL |x|, the
    tolerance of scipy's brentq with xtol = _XTOL; its midpoint is returned.
    """
    kept = np.zeros(len(a), dtype=int)  # end retained last pass: -1 a, 1 c
    ref_width = c - a  # width when the bracket last halved
    stalled = np.zeros(len(a), dtype=int)  # passes since then
    for _ in range(_REFINE_MAXIT):
        width = c - a
        tol = _XTOL + 0.5 * _RTOL * np.abs(a + c)
        live = width >= tol
        if not live.any():
            break
        x = c - fc * width / (fc - fa)
        x = np.where((x >= a) & (x <= c) & (stalled < 3), x, 0.5 * (a + c))
        x = np.clip(x, a + 0.5 * tol, c - 0.5 * tol)
        fx = jost_eval_recursive_grid(values, x)
        move_a = live & (np.sign(fx) == np.sign(fa))
        move_c = live & ~move_a
        # Illinois: an end kept for a second pass has its value halved
        fa = np.where(move_a, fx, np.where(move_c & (kept == -1), 0.5 * fa, fa))
        fc = np.where(move_c, fx, np.where(move_a & (kept == 1), 0.5 * fc, fc))
        a = np.where(move_a, x, a)
        c = np.where(move_c, x, c)
        kept = np.where(move_a, 1, -1)
        width = c - a
        halved = width <= 0.5 * ref_width
        ref_width = np.where(halved, width, ref_width)
        stalled = np.where(halved, 0, stalled + 1)
    return 0.5 * (a + c)


def _polish_mp(values, roots, slopes) -> list:
    """Multiprecision polish of float roots of f0, at _MP_DPS digits.

    Simplified Newton: z -= f0(z) / f0'(r), with f0 evaluated in mp and the
    slope the float derivative at the float root r, until
    |dz| <= _MP_STOP |z|.  Each step needs f0 alone, and from a float root
    each gains about as many digits as the slope carries.  A root not
    converged within _MP_SIMPLIFIED_STEPS steps (or with a zero slope) goes
    on with _MP_NEWTON_STEPS full Newton steps on (f0, f0') in mp.
    """
    from mpmath import mp, mpf

    with mp.workdps(_MP_DPS):
        mpv = [mpf(v) for v in values]
        refined = []
        for r0, slope in zip(roots, slopes):
            z, d0 = mpf(r0), mpf(slope)
            for _ in range(_MP_SIMPLIFIED_STEPS if d0 else 0):
                dz = jost_eval_recursive(mpv, z) / d0
                z -= dz
                if abs(dz) <= _MP_STOP * abs(z):
                    break
            else:
                for _ in range(_MP_NEWTON_STEPS):
                    f, df = jost_eval_recursive_pair(mpv, z)
                    if df == 0:
                        break
                    z = z - f / df
            refined.append(z)
        return refined


def bound_state_scan(V: Potential, cfg: NumericConfig) -> list:
    """Locate the real zeros of f0 in (-1, 1) by recursion-evaluated sign scan.

    Works where coefficient-based root finding cannot: the recursion
    evaluation stays well conditioned for |z| < 1 at any support length.
    Bound-state zeros are simple, so every zero in (-1, 1) is a sign
    crossing; because the bound-state count can never exceed b, finding b
    crossings certifies N = b.

    The brackets of the grid pass are refined together to float accuracy
    (brentq's tolerance with xtol = 1e-15) by a safeguarded, vectorized
    Illinois regula falsi.  Extended mode then polishes each root at 40
    digits by simplified Newton steps (mp f0 over the float slope, until
    |dz| <= 1e-38 |z|), going on with full mp Newton steps for a root that
    has not converged within the step cap.  Returns the roots in ascending
    order (floats, or mpf in extended mode).
    """
    b = V.b
    if b == 0:
        return []
    values = list(V.values)
    for density in (64, 256, 1024, 4096):
        uni = np.linspace(-1.0 + 1e-12, 1.0 - 1e-12, density * b + 64)
        xs = np.unique(np.concatenate([uni, _GEO_EDGE, -_GEO_EDGE]))
        xs = xs[np.abs(xs) > 1e-13]
        vals = jost_eval_recursive_grid(values, xs)
        sgn = np.sign(vals)
        idx = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        if len(idx) >= b:
            break

    # disjoint ascending brackets, each root strictly inside its own
    roots = _refine_brackets(values, xs[idx], xs[idx + 1], vals[idx], vals[idx + 1])
    if cfg.is_extended:
        _, slopes = jost_eval_recursive_pair(values, roots)
        return _polish_mp(values, roots.tolist(), slopes.tolist())
    return roots.tolist()
