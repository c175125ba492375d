"""Checkers for the counting laws the theory guarantees.

Every non-optional verdict here is a theorem about the operator, so on a
correctly classified ledger it must come back true; a false verdict flags a
numerical defect in the pipeline, not a mathematical event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import NumericConfig, Potential
from .jost import JostPolynomial, jost_coefficients, rouche_margin
from .spectrum import ZeroLedger, classify_zeros, find_zeros

__all__ = [
    "LawVerdicts",
    "check_count_identity",
    "check_bound_state_bound",
    "check_resonance_inequalities",
    "check_small_coefficient_criterion",
    "check_sign_flip_symmetry",
    "evaluate_laws",
]


@dataclass(frozen=True, slots=True)
class LawVerdicts:
    count_identity: bool
    bound_state_bound: bool
    resonance_ineq_minus: bool
    eps_minus: int
    resonance_ineq_plus: bool
    eps_plus: int
    small_coeff_certificate: Optional[bool]
    rouche_certificate: Optional[bool]
    sign_flip_symmetry: bool

    @property
    def all_theorems_hold(self) -> bool:
        """Conjunction of the unconditional verdicts (optionals may be None)."""
        ok = (
            self.count_identity
            and self.bound_state_bound
            and self.resonance_ineq_minus
            and self.resonance_ineq_plus
            and self.sign_flip_symmetry
        )
        for opt in (self.small_coeff_certificate, self.rouche_certificate):
            if opt is not None:
                ok = ok and opt
        return ok


def check_count_identity(ledger: ZeroLedger, b: int) -> bool:
    """Multiplicity-weighted zero count must equal the degree 2b - 1."""
    if b == 0:
        return len(ledger.zeros) == 0
    total = ledger.Z_left + ledger.Z_m10 + ledger.Z_01 + ledger.Z_right + 2 * ledger.Z_c
    return total == 2 * b - 1


def check_bound_state_bound(ledger: ZeroLedger, b: int) -> bool:
    """The bound-state count is confined to 0..b."""
    return 0 <= ledger.N <= b


def check_resonance_inequalities(ledger: ZeroLedger) -> tuple[bool, int, bool, int]:
    """Resonance-vs-bound-state count inequalities on both sides.

    eps_minus = Z(-inf,-1] - Z(-1,0) + 1 must be >= 1 when Z(-1,0) = 0 and
    >= 0 otherwise; symmetrically for eps_plus on the positive side.
    """
    eps_minus = ledger.Z_left - ledger.Z_m10 + 1
    eps_plus = ledger.Z_right - ledger.Z_01 + 1
    ok_minus = eps_minus >= (1 if ledger.Z_m10 == 0 else 0)
    ok_plus = eps_plus >= (1 if ledger.Z_01 == 0 else 0)
    return ok_minus, eps_minus, ok_plus, eps_plus


def check_small_coefficient_criterion(
    p: JostPolynomial, ledger: ZeroLedger
) -> Optional[bool]:
    """No-bound-state certificate for uniformly small coefficients.

    When every coefficient beyond the constant term is below 1/(2b) in
    magnitude, |f0| >= 1/(2b) throughout (-1, 1), forcing N = 0.  Returns
    None when the hypothesis fails (criterion not applicable).
    """
    b = p.b
    if b == 0:
        return ledger.N == 0
    if max(abs(c) for c in p.coeffs[1:]) >= 1.0 / (2 * b):
        return None
    return ledger.N == 0


def _multiset_close(a: list[complex], b: list[complex], tol: float) -> bool:
    """Greedy nearest matching of two complex multisets within tol."""
    if len(a) != len(b):
        return False
    remaining = list(b)
    for x in a:
        best, best_d = None, tol
        for i, y in enumerate(remaining):
            d = abs(x - y)
            if d < best_d:
                best, best_d = i, d
        if best is None:
            return False
        remaining.pop(best)
    return True


def check_sign_flip_symmetry(V: Potential, cfg: NumericConfig) -> bool:
    """Negating the potential negates the zero multiset of f0.

    Follows from the coefficient parity f0^{-V}(z) = f0^V(-z).
    """
    if V.b == 0:
        return True
    roots_v = find_zeros(jost_coefficients(V), cfg)
    roots_m = find_zeros(jost_coefficients(V.negated()), cfg)
    a = [z for z, m in roots_v for _ in range(m)]
    c = [-z for z, m in roots_m for _ in range(m)]
    return _multiset_close(a, c, max(cfg.tau_cluster, 1e-10))


def evaluate_laws(
    V: Potential, p: JostPolynomial, ledger: ZeroLedger, cfg: NumericConfig
) -> LawVerdicts:
    """Run every checker and bundle the verdicts."""
    ok_minus, eps_minus, ok_plus, eps_plus = check_resonance_inequalities(ledger)
    margin = rouche_margin(V) if V.b >= 1 else 1.0
    rouche = (ledger.N == V.b) if margin > 0 else None
    return LawVerdicts(
        count_identity=check_count_identity(ledger, V.b),
        bound_state_bound=check_bound_state_bound(ledger, V.b),
        resonance_ineq_minus=ok_minus,
        eps_minus=eps_minus,
        resonance_ineq_plus=ok_plus,
        eps_plus=eps_plus,
        small_coeff_certificate=check_small_coefficient_criterion(p, ledger),
        rouche_certificate=rouche,
        sign_flip_symmetry=check_sign_flip_symmetry(V, cfg),
    )
