"""Spectral toolkit for the half-line discrete Schrödinger operator.

Builds the Jost polynomial of a compactly supported potential, classifies
its zeros into bound states and resonances, computes Marchenko norming
constants as inverse squared norms of the Jost solution, verifies the
counting laws, constructs potential families with prescribed bound-state
counts, and cross-checks everything against a truncated-matrix eigenvalue
oracle.
"""

from .core import (
    NumericConfig,
    Potential,
    SpectralPoint,
    lambda_to_z,
    load_potential,
    validate_potential,
    z_to_lambda,
)
from .jost import (
    JostPolynomial,
    jost_coefficients,
    jost_eval,
    jost_solution,
    rouche_margin,
)
from .laws import LawVerdicts, evaluate_laws
from .oracle import oracle_bound_states, truncated_eigenvalues
from .report import SpectralReport, analyze
from .spectrum import (
    BoundState,
    ClassifiedZero,
    ZeroLedger,
    bound_state_scan,
    classify_zeros,
    find_zeros,
    norming_constants,
)

__version__ = "0.1.0"

__all__ = [
    "NumericConfig",
    "Potential",
    "SpectralPoint",
    "lambda_to_z",
    "z_to_lambda",
    "validate_potential",
    "load_potential",
    "JostPolynomial",
    "jost_coefficients",
    "jost_eval",
    "jost_solution",
    "rouche_margin",
    "ClassifiedZero",
    "ZeroLedger",
    "BoundState",
    "find_zeros",
    "classify_zeros",
    "norming_constants",
    "bound_state_scan",
    "LawVerdicts",
    "evaluate_laws",
    "truncated_eigenvalues",
    "oracle_bound_states",
    "SpectralReport",
    "analyze",
]
