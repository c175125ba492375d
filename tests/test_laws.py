import dataclasses
import math

import numpy as np
import pytest

from latticejost.core import NumericConfig, validate_potential
from latticejost.jost import jost_coefficients, rouche_margin
from latticejost.laws import (
    check_bound_state_bound,
    check_count_identity,
    check_resonance_inequalities,
    check_sign_flip_symmetry,
    check_small_coefficient_criterion,
    evaluate_laws,
)
from latticejost.report import analyze
from latticejost.spectrum import classify_zeros, find_zeros

CFG = NumericConfig()
EXT = NumericConfig.extended()


def pipeline(values):
    V = validate_potential(values)
    p = jost_coefficients(V)
    ledger = classify_zeros(find_zeros(p, CFG), CFG, V.b)
    return V, p, ledger


class TestIndividualChecks:
    def test_count_identity(self):
        _, _, ledger = pipeline([2.0, -1.0, 0.5])
        assert check_count_identity(ledger, 3)

    def test_count_identity_trivial(self):
        _, _, ledger = pipeline([])
        assert check_count_identity(ledger, 0)

    def test_bound_state_bound(self):
        _, _, ledger = pipeline([-2.0, 2.0])
        assert check_bound_state_bound(ledger, 2)

    def test_resonance_inequalities_values(self):
        # V = [2]: single bound state in (-1,0), no resonances
        _, _, ledger = pipeline([2.0])
        ok_minus, eps_minus, ok_plus, eps_plus = check_resonance_inequalities(ledger)
        assert (ok_minus, ok_plus) == (True, True)
        assert eps_minus == 0  # Z_left=0, Z_m10=1
        assert eps_plus == 1  # Z_right=0, Z_01=0

    def test_small_coefficient_not_applicable(self):
        _, p, ledger = pipeline([2.0])
        assert check_small_coefficient_criterion(p, ledger) is None

    def test_small_coefficient_applies(self):
        _, p, ledger = pipeline([0.01, 0.02])
        verdict = check_small_coefficient_criterion(p, ledger)
        assert verdict is True
        assert ledger.N == 0

    def test_sign_flip(self):
        V = validate_potential([1.3, -0.4, 2.2])
        assert check_sign_flip_symmetry(V, CFG)

    def test_sign_flip_trivial(self):
        assert check_sign_flip_symmetry(validate_potential([]), CFG)

    @pytest.mark.parametrize(
        "values", [[1.0, -1e-150], [-1.0, 1e-150], [5e-324, -1e-150]],
        ids=["1,-1e-150", "-1,1e-150", "5e-324,-1e-150"],
    )
    @pytest.mark.parametrize("cfg", [CFG, EXT], ids=["std", "ext"])
    def test_sign_flip_holds_on_far_zeros(self, cfg, values):
        # zeros near 1e75 and 5e49, whose polished values may differ from
        # -V's in the last bit; the verdict reads the exact ints instead
        assert analyze(validate_potential(values), cfg).verdicts.sign_flip_symmetry


class TestEvaluateLaws:
    def test_all_hold_on_example(self):
        V, p, ledger = pipeline([-math.sqrt(5), 4.0 / math.sqrt(5)])
        v = evaluate_laws(V, p, ledger, CFG)
        assert v.all_theorems_hold
        assert v.count_identity and v.bound_state_bound
        assert v.resonance_ineq_minus and v.resonance_ineq_plus
        assert v.sign_flip_symmetry

    def test_rouche_certificate_positive_margin(self):
        V, p, ledger = pipeline([10.0, -10.0])
        v = evaluate_laws(V, p, ledger, CFG)
        assert v.rouche_certificate is True
        assert ledger.N == 2

    def test_rouche_certificate_inconclusive(self):
        V, p, ledger = pipeline([0.1])
        v = evaluate_laws(V, p, ledger, CFG)
        assert v.rouche_certificate is None

    def test_epsilons_reported_even_when_vacuous(self):
        V, p, ledger = pipeline([0.01])
        v = evaluate_laws(V, p, ledger, CFG)
        assert isinstance(v.eps_minus, int)
        assert isinstance(v.eps_plus, int)

    def test_random_batch_all_theorems(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            b = int(rng.integers(1, 10))
            vals = rng.uniform(-3, 3, b)
            if abs(vals[-1]) < 1e-3:
                vals[-1] = 1.0
            V, p, ledger = pipeline(list(vals))
            v = evaluate_laws(V, p, ledger, CFG)
            assert v.all_theorems_hold, list(vals)


class TestOneAnalysisPerPotential:
    @pytest.mark.parametrize("cfg", [CFG, EXT], ids=["std", "ext"])
    def test_analyze_builds_each_polynomial_once(self, count_calls, cfg):
        built = count_calls(jost_coefficients)
        solved = count_calls(find_zeros)
        V = validate_potential([1.3, -0.4, 2.2, 0.7])
        assert analyze(V, cfg).verdicts.all_theorems_hold
        # the sign-flip verdict compares -V's exact ints with V's by parity,
        # so it builds no second polynomial and finds no second set of zeros
        assert [args[0] for args in built] == [V]
        assert len(solved) == 1

    @pytest.mark.parametrize("j", [1, 3])
    def test_sign_flip_verdict_is_not_vacuous(self, j):
        # one odd-index int negated breaks the parity with -V's build
        V, p, ledger = pipeline([1.3, -0.4, 2.2])
        ints = list(p.ints)
        ints[j] = -ints[j]
        v = evaluate_laws(V, dataclasses.replace(p, ints=tuple(ints)), ledger, CFG)
        assert v.sign_flip_symmetry is False
        assert v.all_theorems_hold is False

    def test_edge_snapped_zero_still_mirrors(self):
        # f0 = 1 - z vanishes at +1 exactly, so the ledger snaps V's zero to
        # the edge; the sign-flip verdict reads the exact coefficients, never
        # the snapped zero
        V = validate_potential([-1.0])
        for cfg in (CFG, EXT):
            report = analyze(V, cfg)
            assert report.ledger.mu_plus == 1
            assert report.verdicts.sign_flip_symmetry

    @pytest.mark.parametrize(
        "cfg, bs", [(CFG, (1, 4, 8, 12, 16)), (EXT, (4, 8, 12))], ids=["std", "ext"]
    )
    def test_shared_path_agrees_with_standalone_checkers(self, cfg, bs):
        rng = np.random.default_rng(11)
        for b in bs:
            for _ in range(6):
                V = validate_potential(list(rng.uniform(-3, 3, b)))
                p = jost_coefficients(V)
                ledger = classify_zeros(find_zeros(p, cfg), cfg, V.b)
                v = evaluate_laws(V, p, ledger, cfg)
                assert v.sign_flip_symmetry == check_sign_flip_symmetry(V, cfg)
                assert (v.rouche_certificate is not None) == (rouche_margin(V) > 0)
