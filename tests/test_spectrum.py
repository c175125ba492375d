import math

import numpy as np
import pytest

from latticejost.core import NumericConfig, validate_potential
from latticejost.errors import (
    CountMismatchError,
    FloatOverflowError,
    NotABoundStateError,
    UnitCircleViolationError,
)
from latticejost.jost import JostPolynomial, jost_coefficients
from latticejost.spectrum import (
    bound_state_scan,
    classify_zeros,
    find_zeros,
    norming_constant_at,
    norming_constants,
    sign_diagnostics,
)

CFG = NumericConfig()

SQRT5 = math.sqrt(5)
EX42_POTENTIAL = [-SQRT5, 4.0 / SQRT5]          # roots 1/2, -1/2, sqrt(5)
EX42_DOUBLE = [-2.5 + math.sqrt(3), -0.5 + 1.0 / math.sqrt(3)]  # double root at 2


def ledger_for(values, cfg=CFG):
    V = validate_potential(values)
    p = jost_coefficients(V)
    return classify_zeros(find_zeros(p, cfg), cfg, V.b), p


class TestFindZeros:
    def test_linear(self):
        p = JostPolynomial(coeffs=(1.0, 2.0), b=1)
        roots = find_zeros(p, CFG)
        assert roots == [(-0.5, 1)]

    def test_example_two_bound_states(self):
        p = jost_coefficients(validate_potential(EX42_POTENTIAL))
        roots = sorted(z.real for z, m in find_zeros(p, CFG))
        assert roots == pytest.approx([-0.5, 0.5, SQRT5], abs=1e-10)

    def test_example_double_resonance(self):
        p = jost_coefficients(validate_potential(EX42_DOUBLE))
        roots = find_zeros(p, CFG)
        by_mult = {m: z for z, m in roots}
        assert by_mult[2].real == pytest.approx(2.0, abs=1e-8)
        assert by_mult[1].real == pytest.approx(-1.5 - math.sqrt(3), abs=1e-8)

    def test_trivial_degree_zero(self):
        p = jost_coefficients(validate_potential([]))
        assert find_zeros(p, CFG) == []

    def test_extended_mode_refines(self):
        cfg = NumericConfig.extended()
        p = jost_coefficients(validate_potential(EX42_POTENTIAL))
        roots = sorted(z.real for z, m in find_zeros(p, cfg))
        assert roots == pytest.approx([-0.5, 0.5, SQRT5], abs=1e-14)


def _polyroots_reference(p, cfg):
    """Roots of p by mpmath's own polyroots at 60 digits, snapped as find_zeros
    snaps them; this route shares no code with the library's refinement."""
    from mpmath import mp, mpf

    with mp.workdps(60):
        desc = [mpf(c.numerator) / c.denominator for c in reversed(p.exact)]
        roots = [complex(r) for r in mp.polyroots(desc, maxsteps=200, extraprec=200)]
    return [complex(z.real) if abs(z.imag) < cfg.tau_real else z for z in roots]


_REFERENCE_RNG = np.random.default_rng(20)
REFERENCE_POTENTIALS = [
    *(
        pytest.param(list(_REFERENCE_RNG.uniform(-3, 3, b)), id=f"rand-b{b}")
        for b in (4, 8, 12, 20)
    ),
    pytest.param([2.0, 1e-10], id="tail-1e-10"),
    pytest.param([1.0, -2.0, 1e-12], id="tail-1e-12"),
    pytest.param(list(_REFERENCE_RNG.uniform(-300, 300, 8)), id="rand300-b8"),
    # roots above 1e30: the coefficients' fixed-point scale adapts
    pytest.param([2.0, 1e-60], id="tail-1e-60"),
    pytest.param([0.5, 1e-100], id="tail-1e-100"),
]


@pytest.mark.parametrize("values", REFERENCE_POTENTIALS)
def test_extended_roots_match_independent_reference(values):
    cfg = NumericConfig.extended()
    p = jost_coefficients(validate_potential(values))
    got = [z for z, m in find_zeros(p, cfg) for _ in range(m)]
    want = _polyroots_reference(p, cfg)
    assert len(got) == len(want) == 2 * len(values) - 1
    for z in got:
        i = min(range(len(want)), key=lambda i: abs(want[i] - z))
        assert abs(want[i] - z) <= 1e-15 * abs(want[i]), (z, want[i])
        want.pop(i)


def test_extended_root_far_inside_unit_circle():
    # f0 = 1 + 1e100 z; polyroots resolves roots only to an absolute 1e-60
    p = jost_coefficients(validate_potential([1e100]))
    assert find_zeros(p, NumericConfig.extended()) == [(complex(-1 / 1e100), 1)]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_extended_root_beyond_double_range_is_typed():
    # f0 = 1 + 5e-324 z: the companion eigenvalue -1/5e-324 overflows
    p = jost_coefficients(validate_potential([5e-324]))
    with pytest.raises(FloatOverflowError):
        find_zeros(p, NumericConfig.extended())


class TestClassify:
    def test_single_bound_state(self):
        ledger, _ = ledger_for([2.0])
        assert ledger.N == 1
        assert ledger.Z_m10 == 1
        assert (ledger.Z_left, ledger.Z_01, ledger.Z_right, ledger.Z_c) == (0, 0, 0, 0)

    def test_example_counts(self):
        ledger, _ = ledger_for(EX42_POTENTIAL)
        assert ledger.N == 2
        assert ledger.Z_right == 1
        assert (ledger.p, ledger.q, ledger.r, ledger.s) == (0, 1, 2, 3)

    def test_double_resonance_counts(self):
        ledger, _ = ledger_for(EX42_DOUBLE)
        assert ledger.N == 0
        assert ledger.Z_right == 2
        assert ledger.Z_left == 1

    def test_ordering_of_ledger_zeros(self):
        ledger, _ = ledger_for(EX42_POTENTIAL)
        reals = [cz.z.real for cz in ledger.zeros]
        assert reals == sorted(reals)

    def test_count_mismatch(self):
        with pytest.raises(CountMismatchError):
            classify_zeros([(complex(0.5), 1)], CFG, b=2)

    def test_unit_circle_violation(self):
        bad = [(complex(0.1, 0.2), 1), (complex(0.1, -0.2), 1), (complex(2.0), 1)]
        with pytest.raises(UnitCircleViolationError):
            classify_zeros(bad, CFG, b=2)

    def test_edge_zero_detection(self):
        # f0 = (1 - z)(1 + 2z) = 1 + z - 2z^2 has an exceptional zero at z = 1
        roots = [(complex(1.0), 1), (complex(-0.5), 1), (complex(3.0), 1)]
        ledger = classify_zeros(roots, CFG, b=2)
        assert ledger.mu_plus == 1
        assert ledger.Z_right == 2
        assert ledger.N == 1

    def test_odd_s(self):
        for values in ([2.0], EX42_POTENTIAL, EX42_DOUBLE, [0.3, 0.4, 1.1]):
            ledger, _ = ledger_for(values)
            assert ledger.s % 2 == 1


class TestNormingConstants:
    def test_hand_value_b1(self):
        ledger, p = ledger_for([2.0])
        (bs,) = norming_constants(ledger, p)
        assert bs.alpha == pytest.approx(-0.5, abs=1e-14)
        assert bs.lam == pytest.approx(4.5, abs=1e-13)
        assert bs.c2_product == pytest.approx(3.0, abs=1e-12)
        assert bs.c2_residue == pytest.approx(3.0, abs=1e-12)

    def test_trivial_empty(self):
        ledger, p = ledger_for([])
        assert norming_constants(ledger, p) == []

    def test_cross_formula_agreement(self):
        ledger, p = ledger_for(EX42_POTENTIAL)
        states = norming_constants(ledger, p)
        assert len(states) == 2
        for bs in states:
            assert bs.c2_product > 0
            assert bs.c2_residue > 0
            assert bs.c2_product == pytest.approx(bs.c2_residue, rel=1e-10)

    @pytest.mark.parametrize(
        "values",
        [EX42_POTENTIAL, list(np.random.default_rng(20).uniform(-3, 3, 20))],
        ids=["b2", "b20"],
    )
    def test_extended_cross_formula_agreement(self, values):
        cfg = NumericConfig.extended()
        ledger, p = ledger_for(values, cfg)
        states = norming_constants(ledger, p, cfg)
        assert len(states) == ledger.N > 0
        for bs in states:
            assert bs.c2_product > 0
            assert bs.c2_product == pytest.approx(bs.c2_residue, rel=1e-10)

    def test_not_a_bound_state(self):
        ledger, p = ledger_for(EX42_POTENTIAL)
        with pytest.raises(NotABoundStateError):
            norming_constant_at(ledger, p, SQRT5)


class TestSignDiagnostics:
    def test_single_root_all_positive(self):
        ledger, _ = ledger_for([2.0])
        (rec,) = sign_diagnostics(ledger)
        assert rec.k == 1
        assert rec.sign_p_minus == 1
        assert rec.sign_p_plus == 1
        assert rec.sign_denominator == 1

    def test_alternation_two_bound_states(self):
        ledger, _ = ledger_for(EX42_POTENTIAL)
        recs = sign_diagnostics(ledger)
        assert [r.k for r in recs] == [1, 2]
        for r in recs:
            assert r.denominator_matches_parity
            assert r.product_matches_parity

    def test_empty_products_with_left_resonances_absent(self):
        ledger, _ = ledger_for(EX42_POTENTIAL)
        for r in sign_diagnostics(ledger):
            assert r.sign_p_minus == 1  # p = 0, empty product

    def test_random_potentials_alternate(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = int(rng.integers(1, 8))
            v = rng.uniform(-3, 3, b)
            if v[-1] == 0:
                continue
            ledger, _ = ledger_for(list(v))
            for r in sign_diagnostics(ledger):
                assert r.denominator_matches_parity, list(v)
                assert r.product_matches_parity, list(v)


class TestBoundStateScan:
    def test_matches_classification_small_b(self):
        for values in ([2.0], EX42_POTENTIAL, [-2.0, 2.0, -2.0]):
            V = validate_potential(values)
            ledger, _ = ledger_for(values)
            roots = bound_state_scan(V, CFG)
            expected = sorted(a for _, a in ledger.bound_state_roots())
            assert roots == pytest.approx(expected, abs=1e-10)

    def test_trivial(self):
        assert bound_state_scan(validate_potential([]), CFG) == []

    def test_large_support_full_count(self):
        from latticejost.design import alternating_potential

        V = alternating_potential(60, 2.0)
        roots = bound_state_scan(V, CFG)
        assert len(roots) == 60

    def test_extended_polish(self):
        from latticejost.jost import jost_eval_recursive

        V = validate_potential(EX42_POTENTIAL)
        roots = bound_state_scan(V, NumericConfig.extended())
        assert [float(r) for r in roots] == pytest.approx([-0.5, 0.5], abs=1e-15)

    @pytest.mark.parametrize("b", [40, 110])
    def test_extended_roots_fully_polished(self, b):
        from mpmath import mp, mpf

        from latticejost.design import alternating_potential
        from latticejost.jost import jost_eval_recursive, jost_eval_recursive_pair

        V = alternating_potential(b, 2.0)
        roots = bound_state_scan(V, NumericConfig.extended())
        std = bound_state_scan(V, CFG)
        assert len(roots) == len(std) == b
        with mp.workdps(40):
            mpv = [mpf(v) for v in V.values]
            for z, z_std in zip(roots, std):
                assert float(z) == pytest.approx(z_std, abs=1e-14)
                f, df = jost_eval_recursive_pair(mpv, z)
                z1 = z - f / df
                # one more full Newton step moves the root by no more than the
                # 1e-38 stopping tolerance; both residuals then sit at the
                # 40-digit rounding floor, so they compare up to that floor
                assert abs(z1 - z) <= mpf(10) ** -38 * abs(z)
                floor = mpf(10) ** -38 * abs(z * df)
                assert abs(f) <= abs(jost_eval_recursive(mpv, z1)) + floor

    def test_extended_fallback_to_full_newton(self, monkeypatch):
        # a root that misses the simplified-Newton stopping rule within the
        # step cap goes on with full mp Newton steps and ends as converged
        import latticejost.spectrum as spectrum
        from latticejost.design import alternating_potential

        V = alternating_potential(12, 2.0)
        expected = bound_state_scan(V, NumericConfig.extended())
        monkeypatch.setattr(spectrum, "_MP_SIMPLIFIED_STEPS", 1)
        roots = bound_state_scan(V, NumericConfig.extended())
        assert all(abs(z - e) <= 1e-38 * abs(e) for z, e in zip(roots, expected))
        assert len(roots) == len(expected) == 12
