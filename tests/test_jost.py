import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticejost.core import Potential, validate_potential
from latticejost.errors import FloatOverflowError, ZeroArgumentError
from latticejost.jost import (
    _int_coefficients,
    _sign_flip_certificate,
    jost_coefficients,
    jost_eval,
    jost_solution,
    rouche_margin,
)


def b3_reference_coeffs(v1, v2, v3):
    # degree-5 coefficient formulas for a support-3 potential
    return [
        1.0,
        v1 + v2 + v3,
        v1 * v2 + (v1 + v2) * v3,
        v2 + v3 * (1.0 + v1 * v2),
        v3 * (v1 + v2),
        v3,
    ]


potentials = st.lists(
    st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=10
).filter(lambda v: abs(v[-1]) > 1e-6)


class TestCoefficients:
    def test_trivial(self):
        assert jost_coefficients(validate_potential([])).coeffs == (1.0,)

    def test_b1(self):
        assert jost_coefficients(validate_potential([2.0])).coeffs == (1.0, 2.0)

    def test_b2(self):
        p = jost_coefficients(validate_potential([3.0, 5.0]))
        assert p.coeffs == (1.0, 8.0, 15.0, 5.0)

    def test_b3_matches_reference(self):
        v1, v2, v3 = 1.5, -0.75, 2.25
        p = jost_coefficients(validate_potential([v1, v2, v3]))
        assert np.allclose(p.coeffs, b3_reference_coeffs(v1, v2, v3), atol=1e-14)

    @given(potentials)
    @settings(max_examples=200, deadline=None)
    def test_structure(self, v):
        b = len(v)
        p = jost_coefficients(validate_potential(v))
        assert p.degree == 2 * b - 1
        assert p.coeffs[0] == 1.0
        assert p.coeffs[-1] == pytest.approx(v[-1], abs=1e-12)
        assert p.coeffs[1] == pytest.approx(sum(v), abs=1e-12)
        if b >= 2:
            assert p.coeffs[2 * b - 2] == pytest.approx(v[-1] * sum(v[:-1]), abs=1e-12)

    def test_degree_b_monomial_has_unit_product_coefficient(self):
        # coeff of z^b, as a polynomial in V, contains prod V_j with unit weight:
        # at V = t*(1,..,1) the leading t^b growth must be exactly t^b
        b = 4
        for t in (10.0, 100.0):
            p = jost_coefficients(Potential((t,) * b))
            assert p.coeffs[b] / t**b == pytest.approx(1.0, rel=1.0 / t)

    @given(potentials)
    @settings(max_examples=100, deadline=None)
    def test_sign_flip_parity(self, v):
        p = jost_coefficients(validate_potential(v))
        m = jost_coefficients(validate_potential([-x for x in v]))
        for j, (a, c) in enumerate(zip(p.coeffs, m.coeffs)):
            assert c == pytest.approx((-1.0) ** j * a, abs=1e-12)

    def test_exact_integer_coefficients(self):
        p = jost_coefficients(validate_potential([2.0, -2.0, 2.0]))
        assert all(isinstance(c, int) for c in p.exact)


def _parity_panel():
    rng = np.random.default_rng(23)
    bs = (1, 2, 3, 5, 8, 13, 21, 34, 60)
    panel = [pytest.param(list(rng.uniform(-3, 3, b)), id=f"random-b{b}") for b in bs]
    extremes = {
        "tiny-then-2": [1e-300, 2],
        "huge-tiny-3": [1e300, 1e-300, 3],
        "tenths": [0.1] * 30,
        "twos-then-1": [2.0] * 30 + [1.0],
        "zero-one": [0.0, 1.0],
        "one-zero-minus-one": [1.0, 0.0, -1.0],
    }
    return panel + [pytest.param(v, id=name) for name, v in extremes.items()]


@pytest.mark.parametrize("values", _parity_panel())
def test_mirrored_equals_negated_build(values):
    # the sign-flip certificate holds where -V's own build, the oracle here,
    # is V's exact ints with the odd ones negated; -V's floats are then V's
    # mirrored too
    V = validate_potential(values)
    p = jost_coefficients(V)
    assert _sign_flip_certificate(p)
    want = jost_coefficients(V.negated())
    assert want.shift == p.shift
    assert want.ints == tuple(-c if j % 2 else c for j, c in enumerate(p.ints))
    assert want.coeffs == tuple(-c if j % 2 else c for j, c in enumerate(p.coeffs))
    assert want.values == tuple(-v for v in p.values)


@pytest.mark.parametrize("b", [1, 7, 40])
def test_certificate_fails_on_any_corrupted_int(b):
    # one int off by +-1, at any index, even or odd, is seen at the fixed points
    p = jost_coefficients(validate_potential(list(np.random.default_rng(b).uniform(-3, 3, b))))
    assert _sign_flip_certificate(p)
    for j in range(len(p.ints)):
        for delta in (1, -1):
            ints = list(p.ints)
            ints[j] += delta
            assert not _sign_flip_certificate(dataclasses.replace(p, ints=tuple(ints))), (j, delta)
    for bad in (
        dataclasses.replace(p, shift=p.shift + b),  # as if E were one more
        dataclasses.replace(p, ints=(*p.ints, 0)),  # equal values, one int too many
    ):
        assert not _sign_flip_certificate(bad)


def _fraction_recursion(values) -> list:
    """Reference coefficients of f0 in exact Fraction arithmetic.

    g_n = z^(b-n) f_n: g_(n-1) = -z^2 g_(n+1) + (z^2 + V_n z + 1) g_n with
    g_(b+1) = g_b = z^b, and f0 = g_0 / z^b.
    """
    b = len(values)
    size = 3 * b + 3
    g_next = [Fraction(0)] * size
    g_next[b] = Fraction(1)
    g_cur = list(g_next)
    for v in map(Fraction, reversed(values)):
        g_prev = [Fraction(0)] * size
        for j in range(size - 2):
            g_prev[j] += g_cur[j]
            g_prev[j + 1] += v * g_cur[j]
            g_prev[j + 2] += g_cur[j] - g_next[j]
        g_next, g_cur = g_cur, g_prev
    return g_cur[b : b + max(1, 2 * b)]


KERNEL_PANEL = _parity_panel() + [
    pytest.param([5e-324], id="subnormal"),
    pytest.param([1.0, 5e-324], id="one-subnormal"),
    pytest.param([3.0, 1e-30, -2.0, 2**-600, 2.5], id="mixed-exponents"),
    pytest.param([1e300, 1e300], id="overflow"),
]


@pytest.mark.parametrize("values", KERNEL_PANEL)
def test_int_kernel_matches_fraction_reference(values):
    ref = _fraction_recursion(values)
    ints, shift = _int_coefficients(values)
    assert [Fraction(c, 1 << shift) for c in ints] == ref
    try:
        want = [float(c) for c in ref]
    except OverflowError:
        with pytest.raises(FloatOverflowError):
            jost_coefficients(validate_potential(values))
        return
    p = jost_coefficients(validate_potential(values))
    assert p.exact == tuple(ref)
    # float.hex tells -0.0 from 0.0
    assert [c.hex() for c in p.coeffs] == [c.hex() for c in want]


def test_kernel_overflow_names_the_bits():
    with pytest.raises(FloatOverflowError, match=r"2\^1329,"):
        jost_coefficients(validate_potential([1e200, 1e200]))


class TestEvaluation:
    def test_linear_root(self):
        assert jost_eval((1.0, 2.0), -0.5) == 0.0

    def test_value_at_zero_is_one(self):
        p = jost_coefficients(validate_potential([1.0, -2.0, 0.5]))
        assert jost_eval(p, 0.0) == 1.0

    def test_constant(self):
        p = jost_coefficients(validate_potential([]))
        assert jost_eval(p, 3.7 + 1j) == 1.0

    def test_solution_b1_by_hand(self):
        for z in (0.3, -1.2 + 0.4j):
            f = jost_solution(validate_potential([2.0]), z)
            assert f[1] == pytest.approx(z)
            assert f[0] == pytest.approx(1.0 + 2.0 * z)

    def test_solution_free(self):
        f = jost_solution(validate_potential([]), 0.3)
        assert f == [pytest.approx(1.0)]

    def test_solution_zero_argument(self):
        with pytest.raises(ZeroArgumentError):
            jost_solution(validate_potential([2.0]), 0.0)

    @pytest.mark.parametrize("z", [2, 2.0, 2 + 0j], ids=repr)
    def test_solution_beyond_double_range_is_typed(self, z):
        # z^1100 = 2^1100 leaves double range
        with pytest.raises(FloatOverflowError, match="leaves double range"):
            jost_solution(validate_potential([1.0] * 1100), z)

    def test_known_root_of_example_potential(self):
        V = validate_potential([-math.sqrt(5), 4.0 / math.sqrt(5)])
        f = jost_solution(V, 0.5)
        assert abs(f[0]) < 1e-12

    @given(potentials)
    @settings(max_examples=100, deadline=None)
    def test_recursion_agrees_with_horner(self, v):
        V = validate_potential(v)
        p = jost_coefficients(V)
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) < 0.1:
                continue
            a = jost_solution(V, z)[0]
            c = jost_eval(p, z)
            assert abs(a - c) <= 1e-10 * max(1.0, abs(c))


class TestRoucheMargin:
    def test_trivial(self):
        assert rouche_margin(validate_potential([])) == 1.0

    def test_large_pair(self):
        # |F| = 100 against sum |G| = 1 + 20 + 0 + 10
        assert rouche_margin(validate_potential([10.0, 10.0])) == pytest.approx(69.0)

    def test_small_single(self):
        assert rouche_margin(validate_potential([0.1])) == pytest.approx(-0.9)

    def test_equal_pair(self):
        # f0 = 1 + 3z + 2.25z^2 + 1.5z^3: |F| = 2.25 against sum |G| = 1 + 3 + 0 + 1.5
        assert rouche_margin(validate_potential([1.5, 1.5])) == -3.25
