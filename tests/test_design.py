import math
import random
from fractions import Fraction

import pytest

from latticejost.core import NumericConfig, validate_potential
from latticejost.design import (
    alternating_potential,
    amplify_to_full_bound,
    choose_epsilon,
    extend_with_epsilon,
    inverse_b2,
    inverse_b3,
    shrink_to_no_bound,
    verify_b3,
)
from latticejost.errors import InconsistentRootsError
from latticejost.jost import _band_edges, jost_coefficients, rouche_margin
from latticejost.report import analyze
from latticejost.spectrum import _bound_state_count, classify_zeros, find_zeros

CFG = NumericConfig()


def classified_n(V):
    return classify_zeros(find_zeros(jost_coefficients(V), CFG), CFG, V.b).N


class TestAlternating:
    def test_signs(self):
        V = alternating_potential(4, 2.0)
        assert V.values == (-2.0, 2.0, -2.0, 2.0)

    def test_full_count_small_b(self):
        for b in range(1, 7):
            assert classified_n(alternating_potential(b, 2.0)) == b

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            alternating_potential(0)
        with pytest.raises(ValueError):
            alternating_potential(3, 0.0)


class TestShrink:
    def test_scales_to_certificate(self):
        t, scaled, p = shrink_to_no_bound(validate_potential([2.0, -3.0]))
        assert 0 < t <= 1.0
        assert p == jost_coefficients(scaled)  # the search's own build comes back
        coeffs = p.coeffs
        assert max(abs(c) for c in coeffs[1:]) < 1.0 / 4.0
        assert classified_n(scaled) == 0

    def test_already_small(self):
        t, scaled, _ = shrink_to_no_bound(validate_potential([0.01]))
        assert t == 1.0
        assert scaled.values == (0.01,)


class TestAmplify:
    def test_alternating_pattern(self):
        A, pot, p = amplify_to_full_bound([1, -1, 1])
        assert p == jost_coefficients(pot)
        assert rouche_margin(pot) > 0
        assert classified_n(pot) == 3

    def test_constant_pattern(self):
        A, pot, _ = amplify_to_full_bound([-1, -1])
        assert rouche_margin(pot) > 0
        assert classified_n(pot) == 2

    def test_rejects_bad_pattern(self):
        with pytest.raises(ValueError):
            amplify_to_full_bound([])
        with pytest.raises(ValueError):
            amplify_to_full_bound([1, 0])


class TestExtend:
    def test_pads_tail(self):
        ext = extend_with_epsilon(validate_potential([2.0]), 3, 1e-3)
        assert ext.values == (2.0, 1e-3, 1e-3)

    def test_rejects_zero_epsilon(self):
        with pytest.raises(ValueError):
            extend_with_epsilon(validate_potential([2.0]), 3, 0.0)

    def test_rejects_shrinking_target(self):
        with pytest.raises(ValueError):
            extend_with_epsilon(validate_potential([2.0, 1.0]), 2, 0.1)

    def test_choose_epsilon_preserves_count(self):
        V = validate_potential([2.0])
        n0 = classified_n(V)
        eps, extension, p = choose_epsilon(V, 4)
        assert eps > 0
        assert extension.values == (2.0, eps, eps, eps)
        assert p == jost_coefficients(extension)
        assert classified_n(extension) == n0

    def test_band_edge_values_are_exact_at_b110(self):
        # float Horner on the rounded coefficients gives |f0(-1)| = 0.1791 here
        ext = extend_with_epsilon(validate_potential([2, -2, 2, -2, 2]), 110, 0.1)
        p = jost_coefficients(ext)
        exact, shift = p.exact, p.shift
        f_plus, f_minus = _band_edges(p)
        assert Fraction(f_plus, 1 << shift) == sum(exact)
        assert Fraction(f_minus, 1 << shift) == sum(c if j % 2 == 0 else -c for j, c in enumerate(exact))
        assert f_minus / (1 << shift) == pytest.approx(0.19955432359417, rel=1e-12)


class TestCountedN:
    """The design tools' N is the pivots' count, which analyze's ledger meets."""

    @staticmethod
    def counted_n(pot, p):
        n = sum(_bound_state_count(p))
        assert n == analyze(pot, CFG).ledger.N, pot.values
        return n

    def test_shrink_panel(self):
        rng = random.Random(41)
        for _ in range(50):
            values = [rng.uniform(-3.0, 3.0) for _ in range(rng.randint(1, 8))]
            _, scaled, p = shrink_to_no_bound(validate_potential(values))
            assert self.counted_n(scaled, p) == 0

    def test_every_amplify_pattern(self):
        for b in range(1, 7):
            for mask in range(2**b):
                signs = [1 if mask >> j & 1 else -1 for j in range(b)]
                _, pot, p = amplify_to_full_bound(signs)
                assert self.counted_n(pot, p) == b

    def test_choose_epsilon_panel(self):
        rng = random.Random(43)
        cases = []
        for _ in range(40):
            k = rng.randint(1, 6)
            cases.append(([rng.uniform(-3.0, 3.0) for _ in range(k)], k + rng.randint(1, 12)))
        cases += [([2.0, -2.0, 2.0, -2.0, 2.0], 40), ([2.0, -2.0, 2.0, -2.0, 2.0], 110)]
        for values, b in cases:
            V = validate_potential(values)
            eps, extension, p = choose_epsilon(V, b)
            assert extension == extend_with_epsilon(V, b, eps)
            assert self.counted_n(extension, p) == analyze(V, CFG).ledger.N

    def test_no_root_is_found(self, count_calls):
        solved = count_calls(find_zeros)
        shrink_to_no_bound(validate_potential([2.0, -3.0]))
        amplify_to_full_bound([1, -1, 1])
        choose_epsilon(validate_potential([2.0, -2.0, 2.0]), 12)
        assert solved == []


class TestInverseB2:
    def test_round_trip(self):
        V = validate_potential([-math.sqrt(5), 4.0 / math.sqrt(5)])
        roots = [z.real for z, m in find_zeros(jost_coefficients(V), CFG)]
        res = inverse_b2(roots)
        assert res.V1 == pytest.approx(V.values[0], abs=1e-10)
        assert res.V2 == pytest.approx(V.values[1], abs=1e-10)
        assert res.consistency_residual < 1e-10

    def test_complex_pair_input(self):
        V = validate_potential([0.3, 0.4])
        roots = [z for z, m in find_zeros(jost_coefficients(V), CFG) for _ in range(m)]
        res = inverse_b2(roots)
        assert res.V1 == pytest.approx(0.3, abs=1e-8)
        assert res.V2 == pytest.approx(0.4, abs=1e-8)

    def test_unpaired_complex_rejected(self):
        with pytest.raises(InconsistentRootsError):
            inverse_b2([0.5, 1 + 1j, 2.0])

    def test_zero_root_rejected(self):
        with pytest.raises(InconsistentRootsError):
            inverse_b2([0.0, 0.5, 2.0])

    def test_arbitrary_triple_rejected(self):
        # a generic triple is not realizable by a support-2 potential
        with pytest.raises(InconsistentRootsError):
            inverse_b2([0.3, 0.6, 5.0])

    def test_overflowing_reciprocal_rejected(self):
        # 1 / 1e-310 overflows, and the recovered values would be NaN
        with pytest.raises(InconsistentRootsError):
            inverse_b2([1e-310, 1.0, 2.0])


class TestInverseB3:
    def test_round_trip(self):
        # 300 seeded random potentials and a fixed one; each real zero is
        # withheld in turn and recovered with the potential
        rng = random.Random(9)
        panel = [[1.5, -0.75, 2.25]] + [
            [rng.uniform(-3, 3) for _ in range(3)] for _ in range(300)
        ]
        for values in panel:
            roots = [
                z
                for z, m in find_zeros(jost_coefficients(validate_potential(values)), CFG)
                for _ in range(m)
            ]
            for i, alpha5 in enumerate(roots):
                if alpha5.imag != 0:
                    continue
                res = inverse_b3(roots[:i] + roots[i + 1 :])
                got = (res.V1, res.V2, res.V3)
                assert max(abs(g - v) for g, v in zip(got, values)) <= 1e-12, values
                assert abs(res.alpha5 - alpha5.real) <= 1e-12 * max(1.0, abs(alpha5)), values
                assert max(res.residuals) < 1e-10

    def test_verify_b3_residuals_vanish(self):
        V = validate_potential([1.5, -0.75, 2.25])
        roots = [z for z, m in find_zeros(jost_coefficients(V), CFG) for _ in range(m)]
        assert max(verify_b3(V, roots)) < 1e-9

    def test_arbitrary_quadruple_rejected(self):
        # no support-3 potential has these four zeros
        with pytest.raises(InconsistentRootsError):
            inverse_b3([0.3, -0.6, 2.0, -5.0])

    def test_unpaired_complex_rejected(self):
        with pytest.raises(InconsistentRootsError):
            inverse_b3([0.5, 1 + 1j, 2.0, 3.0])

    def test_underflowing_quadratic_rejected(self):
        # the product of the four reciprocals underflows to 0, which would
        # put the fifth zero at infinity
        with pytest.raises(InconsistentRootsError):
            inverse_b3([1e82, -1e82, 2e82, 3e82])

    def test_underflowing_v3_rejected(self):
        # the residual gate passes, but V3 = -w5 e'_4 underflows to 0
        with pytest.raises(InconsistentRootsError, match="V3 .* underflows"):
            inverse_b3([1e80, -1e80, 2e80, 3e80])

    def test_wrong_root_count(self):
        with pytest.raises(ValueError):
            inverse_b3([0.5, -0.5, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, math.nan)])
def test_non_finite_root_rejected(bad):
    with pytest.raises(InconsistentRootsError, match="not finite"):
        inverse_b2([bad, 1.0, 2.0])
    with pytest.raises(InconsistentRootsError, match="not finite"):
        inverse_b3([bad, 1.0, 2.0, 3.0])
    with pytest.raises(InconsistentRootsError, match="not finite"):
        verify_b3(validate_potential([1.0, -1.0, 2.0]), [bad, 1.0, 2.0, 3.0, 4.0])
