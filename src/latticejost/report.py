"""Full-pipeline report assembly and JSON serialization."""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass

from .core import NumericConfig, Potential
from .jost import JostPolynomial, jost_coefficients
from .laws import LawVerdicts, evaluate_laws
from .spectrum import (
    BoundState,
    ZeroLedger,
    classify_zeros,
    find_zeros,
    norming_constants,
)

__all__ = ["SpectralReport", "analyze"]


@dataclass(frozen=True, slots=True)
class SpectralReport:
    """Aggregate of potential, polynomial, ledger, bound states, and verdicts."""

    potential: tuple[float, ...]
    b: int
    jost_coefficients: tuple[float, ...]
    ledger: ZeroLedger
    bound_states: tuple[BoundState, ...]
    verdicts: LawVerdicts
    config: NumericConfig
    timing_ms: float

    def to_dict(self, include_timing: bool = True) -> dict:
        counts = {
            "N": self.ledger.N,
            "Z_left": self.ledger.Z_left,
            "Z_m10": self.ledger.Z_m10,
            "Z_01": self.ledger.Z_01,
            "Z_right": self.ledger.Z_right,
            "Z_c": self.ledger.Z_c,
            "mu_minus": self.ledger.mu_minus,
            "mu_plus": self.ledger.mu_plus,
            "p": self.ledger.p,
            "q": self.ledger.q,
            "r": self.ledger.r,
            "s": self.ledger.s,
        }
        doc = {
            "potential": list(self.potential),
            "b": self.b,
            "jost_coefficients": list(self.jost_coefficients),
            "zeros": [
                {
                    "re": cz.z.real,
                    "im": cz.z.imag,
                    "multiplicity": cz.multiplicity,
                    "class": cz.kind,
                }
                for cz in self.ledger.zeros
            ],
            "counts": counts,
            "bound_states": [
                {
                    "k": bs.k,
                    "alpha": bs.alpha,
                    "lambda": bs.lam,
                    "c2_product": bs.c2_product,
                    "c2_residue": bs.c2_residue,
                }
                for bs in self.bound_states
            ],
            "verdicts": dataclasses.asdict(self.verdicts),
            "config": {
                "tau_real": self.config.tau_real,
                "tau_cluster": self.config.tau_cluster,
                "tau_edge": self.config.tau_edge,
                "precision_mode": self.config.precision_mode,
            },
        }
        if include_timing:
            doc["timing_ms"] = self.timing_ms
        return doc

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing=include_timing), indent=2)


def analyze(V: Potential, cfg: NumericConfig | None = None) -> SpectralReport:
    """validate -> coefficients -> roots -> classify -> norming -> laws."""
    cfg = cfg or NumericConfig()
    t0 = time.perf_counter()
    p = jost_coefficients(V)
    roots = find_zeros(p, cfg)
    ledger = classify_zeros(roots, cfg, V.b)
    bound = tuple(norming_constants(ledger, p, cfg))
    verdicts = evaluate_laws(V, p, ledger, cfg)
    ms = (time.perf_counter() - t0) * 1e3
    return SpectralReport(
        potential=V.values,
        b=V.b,
        jost_coefficients=p.coeffs,
        ledger=ledger,
        bound_states=bound,
        verdicts=verdicts,
        config=cfg,
        timing_ms=ms,
    )
