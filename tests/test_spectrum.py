import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticejost.core import NumericConfig, validate_potential
from latticejost.errors import (
    CountMismatchError,
    FloatOverflowError,
    LatticeJostError,
    NoConvergenceError,
    UnitCircleViolationError,
)
from latticejost.design import alternating_potential
from latticejost.jost import JostPolynomial, jost_coefficients
from latticejost.report import analyze
from latticejost.spectrum import (
    BOUND_POS,
    EDGE_MINUS,
    EDGE_PLUS,
    RES_LEFT,
    RES_RIGHT,
    _aberth,
    _cluster,
    _edge_pivots,
    _fixed,
    _g0_fixed,
    _horner_fixed,
    _jost_aberth,
    _jost_residual,
    _linearization,
    _norm_c2,
    _repulsion,
    _sturm_counts,
    bound_state_scan,
    classify_zeros,
    find_zeros,
    norming_constants,
)

CFG = NumericConfig()

SQRT5 = math.sqrt(5)
EX42_POTENTIAL = [-SQRT5, 4.0 / SQRT5]          # roots 1/2, -1/2, sqrt(5)
EX42_DOUBLE = [-2.5 + math.sqrt(3), -0.5 + 1.0 / math.sqrt(3)]  # double root at 2


def f0_pair(values, z):
    """(f0(z), f0'(z)) in the arithmetic of z, for mpf reference values.

    Differentiates f_(n-1) = (z + 1/z + V_n) f_n - f_(n+1) from f_b = z^b.
    """
    b = len(values)
    f_next, f, d_next, d = z ** (b + 1), z**b, (b + 1) * z**b, b * z ** (b - 1)
    for v in reversed(values):
        w = z + 1 / z + v
        f_next, f, d_next, d = f, w * f - f_next, d, w * d + (1 - z**-2) * f - d_next
    return f, d


def ledger_for(values, cfg=CFG):
    V = validate_potential(values)
    p = jost_coefficients(V)
    return classify_zeros(find_zeros(p, cfg), cfg, V.b), p


class TestFindZeros:
    def test_linear(self):
        p = jost_coefficients(validate_potential([2.0]))
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

    def test_extended_states_coincident_in_double_round_alike(self):
        # the two states of [1e40, 1e40] both round to -1e-40; an absolute
        # stop at 1e-42 would let them part to -1.0016e-40 and -0.9984e-40
        p = jost_coefficients(validate_potential([1e40, 1e40]))
        roots = find_zeros(p, NumericConfig.extended())
        assert [z for z, m in roots if abs(z) < 1.0] == [-1e-40, -1e-40]

    @pytest.mark.parametrize(
        "values, states",
        [
            # the double polish returns -6.47e-21 seven times, for the two
            # states and five roots of modulus near 1, so six repeated seeds
            # must travel far
            (
                [-1.4406730047551115e-300, -7.04413208118819e-41, 1.545652002098911e20,
                 1.8935900726077416e-40, 1.1945500099992374],
                [-0.6100729131920104, -6.469761619316991e-21],
            ),
            # states near 1e-40, which an absolute stop at 1e-42 would leave
            # 1.6e-6 off
            (
                [5.917131228275204e39, 1.0466311763821459e40],
                [-1.6900081499316214e-40, -9.554464099346493e-41],
            ),
        ],
        ids=["merged-seeds", "states-1e-40"],
    )
    def test_extended_states_match_700_digit_roots(self, values, states):
        # states are the correctly rounded real roots in (-1, 1) of mpmath's
        # polyroots at 700 digits on the exact coefficients
        p = jost_coefficients(validate_potential(values))
        roots = find_zeros(p, NumericConfig.extended())
        assert [z.real for z, m in roots if abs(z) < 1.0] == states


def _polyroots_reference(p, cfg):
    """Roots of p by mpmath's own polyroots at 60 digits, snapped as find_zeros
    snaps them; this route shares no code with the library's refinement."""
    from mpmath import mp, mpf

    with mp.workdps(60):
        desc = [mpf(c.numerator) / c.denominator for c in reversed(p.exact)]
        roots = [complex(r) for r in mp.polyroots(desc, maxsteps=200, extraprec=200)]
    return [complex(z.real) if abs(z.imag) < cfg.tau_real else z for z in roots]


GOLDEN_INPUTS = json.loads(
    (Path(__file__).parent / "data" / "golden" / "inputs.json").read_text()
)
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
    # golden inputs with a std bound state that the polish's last Newton
    # step, taken without a second residual, decides to the ulp
    *(
        pytest.param(GOLDEN_INPUTS[name], id=f"golden-{name}")
        for name in ("rand-b12", "rand-b20", "mixed-exp")
    ),
]


def _assert_roots_match_reference(values, cfg):
    p = jost_coefficients(validate_potential(values))
    got = [z for z, m in find_zeros(p, cfg) for _ in range(m)]
    want = _polyroots_reference(p, cfg)
    assert len(got) == len(want) == 2 * len(values) - 1
    for z in got:
        i = min(range(len(want)), key=lambda i: abs(want[i] - z))
        assert abs(want[i] - z) <= 1e-15 * abs(want[i]), (z, want[i])
        want.pop(i)


@pytest.mark.parametrize("values", REFERENCE_POTENTIALS)
def test_extended_roots_match_independent_reference(values):
    _assert_roots_match_reference(values, NumericConfig.extended())


@pytest.mark.parametrize("values", REFERENCE_POTENTIALS)
def test_std_roots_match_independent_reference(values):
    # the double roots come from V, not from the rounded coefficients, so
    # they hold the extended tolerance too
    _assert_roots_match_reference(values, CFG)


@pytest.mark.parametrize(
    "name, before",
    [
        ("rand-b12", -0.4733656053941253),
        ("rand-b20", 0.31435412768164517),
        ("mixed-exp", -0.3347088256859473),
    ],
)
def test_std_polish_moves_no_state_away_from_reference(name, before):
    # before is the state as the polish gave it when it evaluated the
    # residual after its last step and kept the seed where that residual did
    # not drop; the reference is Newton on f0 at 80 digits
    from mpmath import mp, mpf

    values = GOLDEN_INPUTS[name]
    p = jost_coefficients(validate_potential(values))
    alpha = min((z.real for z, m in find_zeros(p, CFG) if abs(z) < 1.0),
                key=lambda x: abs(x - before))
    assert alpha != before
    with mp.workdps(80):
        ref, vals = mpf(alpha), [mpf(v) for v in values]
        for _ in range(8):
            f, d = f0_pair(vals, ref)
            ref -= f / d
        assert abs(alpha - ref) <= abs(before - ref)


def test_extended_root_far_inside_unit_circle():
    # f0 = 1 + 1e100 z; polyroots resolves roots only to an absolute 1e-60
    p = jost_coefficients(validate_potential([1e100]))
    assert find_zeros(p, NumericConfig.extended()) == [(complex(-1 / 1e100), 1)]


@pytest.mark.parametrize("cfg", [CFG, NumericConfig.extended()], ids=["std", "ext"])
@pytest.mark.parametrize(
    "values", [[1, 5e-324], [5e-324, 5e-324], [5e-324]],
    ids=["[1, 5e-324]", "[5e-324, 5e-324]", "[5e-324]"],
)
def test_subnormal_leading_coefficient_is_typed(values, cfg):
    # the last row of the linearization divides by the leading coefficient
    # V_b = 5e-324 and would hold inf; for [5e-324], f0 = 1 + 5e-324 z, its
    # one entry -1/5e-324 overflows
    p = jost_coefficients(validate_potential(values))
    with pytest.raises(FloatOverflowError, match="linearization"):
        find_zeros(p, cfg)


@pytest.mark.parametrize(
    "values",
    [
        [1e-300, 2.0, 1e-20, 1e20, 1e-20],
        [-1.0, 1e-150, 1e-300],
        [1.0, -1e-300, 2.0, -5e-324, 1e-300],
        [
            -1.4406730047551115e-300, -7.04413208118819e-41, 1.545652002098911e20,
            1.8935900726077416e-40, 1.1945500099992374,
        ],
    ],
    ids=["wall-1e20", "tail-1e-300", "subnormal-inside", "merged-1e20"],
)
def test_restart_finds_the_roots_the_eigensolver_loses(values, count_calls):
    # the eigenvalues far below the matrix's scale come back as noise that
    # Newton cannot mend; without the restart the first input got N = 1.
    # On the last, Newton converges but merges the state near -0.61 onto the
    # one near -6.5e-21: two bound states on adjacent doubles also restart
    restarts = count_calls(_jost_aberth)
    refinements = count_calls(_aberth)
    V = validate_potential(values)
    report = analyze(V, CFG)
    assert len(restarts) == 1  # V only: the sign-flip verdict finds no zeros
    assert refinements == []  # the restart stays in double
    assert report.verdicts.all_theorems_hold
    assert report.ledger.N == len(bound_state_scan(V, CFG))


@pytest.mark.parametrize("values", [[1e30, -1e20], [-1e100, -1e20]])
def test_bound_states_closer_than_tau_cluster_stay_apart(values):
    # the two states, near 1e-20 and 1e-30 or 1e-100 in modulus, lie far
    # closer than tau_cluster = 1e-6, but bound states are simple and never merge
    report = analyze(validate_potential(values), CFG)
    assert report.verdicts.all_theorems_hold
    assert report.ledger.N == exact_count(values) == 2
    assert [cz.multiplicity for cz in report.ledger.zeros] == [1, 1, 1]


def _cluster_pairwise(roots, tol):
    """Reference for _cluster: union-find over every pair, groups by first root."""
    parent = list(range(len(roots)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < tol:
                parent[find(i)] = find(j)
    groups = {}
    for i, z in enumerate(roots):
        groups.setdefault(find(i), []).append(z)
    return [(sum(g) / len(g), len(g)) for g in groups.values()]


def _cluster_panel(rng, tol):
    """A random root set: loose points, chains, equal real parts, exact-tol pairs."""
    roots = []
    for _ in range(rng.randrange(0, 6)):
        x, y = rng.uniform(-3, 3), rng.choice([0.0, rng.uniform(-3, 3)])
        kind = rng.randrange(5)
        if kind == 0:  # a blob: some pairs merge, some do not
            roots += [complex(x + rng.uniform(0, 2 * tol), y + rng.uniform(0, 2 * tol))
                      for _ in range(rng.randrange(1, 6))]
        elif kind == 1:  # a chain: links under tol, ends far apart
            step = rng.uniform(0.5, 0.99) * tol
            roots += [complex(x + k * step, y) for k in range(rng.randrange(2, 8))]
        elif kind == 2:  # one real part, imaginary parts within reach
            roots += [complex(x, y + k * rng.uniform(0.5, 1.5) * tol)
                      for k in range(rng.randrange(2, 6))]
        elif kind == 3:  # tol apart in real or imaginary part (exactly, for 2^-k): no merge
            x, y = (rng.randrange(-2**20, 2**20) * tol for _ in range(2))
            roots += [complex(x, y), complex(x + tol, y), complex(x + tol, y + tol)]
        else:
            roots.append(complex(x, y))
    rng.shuffle(roots)
    return roots


def test_cluster_sweep_equals_pairwise_union_find():
    rng = random.Random(31)
    merged = 0
    for _ in range(1000):
        tol = rng.choice([2.0**-20, 1e-6, 0.25])
        roots = _cluster_panel(rng, tol)
        got, want = _cluster(roots, tol), _cluster_pairwise(roots, tol)
        as_bits = lambda groups: [(z.real.hex(), z.imag.hex(), m) for z, m in groups]
        assert as_bits(got) == as_bits(want), (roots, tol)
        merged += len(got) < len(roots)
    assert merged > 300


def test_aberth_raises_at_its_pass_cap():
    # seeds 1e-3 off the roots need more than one pass to reach 42 digits;
    # with the default cap the same seeds come back to the roots
    p = jost_coefficients(validate_potential([1.3, -0.4, 2.2]))
    roots = [z for z, m in find_zeros(p, CFG) for _ in range(m)]
    seeds = [z + 1e-3 for z in roots]
    with pytest.raises(NoConvergenceError, match="1 passes"):
        _aberth(p.ints, p.shift, seeds, maxit=1)
    refined = _aberth(p.ints, p.shift, seeds)
    assert sorted(refined, key=lambda z: (z.real, z.imag)) == pytest.approx(
        sorted(roots, key=lambda z: (z.real, z.imag)), abs=1e-14
    )


def test_aberth_parts_a_repeated_seed():
    # a seed that repeats another is sheared off it, and the iterates still
    # reach every root, the one no seed was near included
    p = jost_coefficients(validate_potential([1.3, -0.4, 2.2]))
    roots = sorted((z for z, m in find_zeros(p, CFG) for _ in range(m)), key=lambda z: z.imag)
    for seeds in ([roots[0], *roots[:-1]], [*roots[1:], roots[1]]):
        refined = _aberth(p.ints, p.shift, seeds)
        assert sorted(refined, key=lambda z: z.imag) == pytest.approx(roots, rel=1e-15)


@pytest.mark.parametrize("b", [4, 12, 20])
def test_aberth_takes_two_passes_from_double_roots(b, count_calls):
    # double-accurate seeds reach the 42-digit stop in one cubic pass, and a
    # second confirms it; a pair of roots much closer than the rest can need
    # a third (1 of 210 draws tried)
    rng = np.random.default_rng(25)
    calls = count_calls(_horner_fixed)
    for _ in range(3):
        p = jost_coefficients(validate_potential(rng.uniform(-3, 3, b).tolist()))
        calls.clear()
        find_zeros(p, NumericConfig.extended())
        assert len(calls) == 2 * (2 * b - 1)


def _repulsion_panel(rng, F, scale, close):
    """Fixed-point roots at scale 2^F of modulus about scale: loose ones and,
    when close is set, pairs 1e-14 of their modulus apart in both parts, as
    :func:`_aberth` shears a repeated seed, and pairs 2^-80 or 2^-120 of it
    apart.  Like Aberth iterates, the ints carry random bits below their
    top 53."""

    def full(c):
        x = _fixed(c, F)
        return x + rng.getrandbits(max(x.bit_length() - 53, 1)) if x else 0

    roots = []
    for _ in range(rng.randrange(1, 7)):
        z = complex(rng.uniform(-3, 3), rng.choice([0.0, rng.uniform(-3, 3)])) * scale
        zr, zi = full(z.real), full(z.imag)
        roots.append((zr, zi))
        kind = rng.randrange(3) if close else 0
        if kind == 1:
            shear = _fixed(1e-14 * abs(z), F)
            roots.append((zr + shear, zi + shear))
        elif kind == 2:
            roots.append((zr + (max(abs(zr), abs(zi)) >> rng.choice((80, 120))), zi))
    rng.shuffle(roots)
    return roots


@pytest.mark.parametrize(
    "scale, F, close",
    [(1.0, 207, True), (1e6, 207, True), (1e-30, 347, True), (2.0**-1000, 1207, False)],
    ids=["unit", "1e6", "1e-30", "subnormal-parts"],
)
def test_repulsion_matches_the_exact_sum(scale, F, close):
    # each S_k is within 4 n 2^-53 sum_j |1 / (z_k - z_j)| of the exact
    # Fraction sum, plus the final rounding to scale 2^F; pairs 2^-80 and
    # 2^-120 apart are closer than a double-double difference resolves, and at
    # modulus 2^-1000 the low parts are subnormal
    rng = random.Random(31)
    for _ in range(60):
        roots = _repulsion_panel(rng, F, scale, close)
        n = len(roots)
        for (gr, gi), (ar, ai) in zip(_repulsion(roots, F), roots):
            # in units of 2^-F: sr + i si = 2^F S_k and bound = 2^F sum |1 / d|
            sr = si = bound = Fraction(0)
            for br, bi in roots:
                er, ei = ar - br, ai - bi
                if er or ei:
                    n2 = er * er + ei * ei  # 1 / ((er + i ei) / 2^F) = 2^F (er - i ei) / n2
                    sr += Fraction(er << 2 * F, n2)
                    si -= Fraction(ei << 2 * F, n2)
                    bound += Fraction(1 << 2 * F, math.isqrt(n2))
            err2 = (gr - sr) ** 2 + (gi - si) ** 2
            assert err2 <= (Fraction(4 * n, 1 << 53) * bound + 1) ** 2, roots


def test_repulsion_raises_on_met_or_unbounded_iterates():
    roots = [(3 << 200, 1 << 200), (1 << 207, 0), (3 << 200, 1 << 200)]
    with pytest.raises(NoConvergenceError, match="met"):
        _repulsion(roots, 207)
    # one unit of 2^-1207 apart: 1 / (z_1 - z_2) is far beyond double range
    with pytest.raises(FloatOverflowError, match="double range"):
        _repulsion([(1 << 207, 0), ((1 << 207) + 1, 0)], 1207)


def test_extended_refinement_passes_are_pinned(count_calls):
    # 1324 exact Horner passes with the repulsion sums in exact ints; a sum
    # in double whose error ever costs an Aberth pass fails here
    rng = np.random.default_rng(31)
    calls = count_calls(_horner_fixed)
    for _ in range(30):
        b = int(rng.integers(4, 21))
        analyze(validate_potential(rng.uniform(-3, 3, b).tolist()), NumericConfig.extended())
    assert len(calls) == 1324


# extreme inputs, the b=4 input on which the eigensolver loses a bound state
# (ROADMAP item 12), then 200 random signs and magnitudes 10^(+-30) at b <= 6
WIDE_RANGE = [
    [1e100], [1e300], [2, 1e-80], [0.5, 1e-100], [1e100, 1e-100], [1e-300],
    [1, -2, 1e-70], [5e-324], [1e40, 1e40], [1e20, -1e20, 1e20],
    [34.16256812614351, -3.5333781361594646e+34, 5.478346654604374e+98,
     -2.4467925248407122e+67],
]


def test_extended_wide_range_answers_or_is_typed():
    rng = random.Random(11)
    panel = WIDE_RANGE + [
        [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-30, 30) for _ in range(rng.randint(1, 6))]
        for _ in range(200)
    ]
    answered = 0
    for values in panel:
        try:
            report = analyze(validate_potential(values), NumericConfig.extended())
        except LatticeJostError:
            continue
        assert report.verdicts.all_theorems_hold, values
        answered += 1
    # [1e300] (c^2 = 1e600), [5e-324] (V_b), the two multiple zeros and the
    # item-12 input raise; every random draw is answered
    assert answered >= 206


@pytest.mark.parametrize("amplitude", [5.0, 10.0, 20.0])
def test_extended_alternating_coefficients_keep_their_digits(amplitude):
    # the coefficients reach about amplitude^40 and cancel near |z| = 1;
    # with fixed-point bits for the leading coefficient alone the Aberth
    # refinement ran to its pass cap and raised NoConvergenceError
    report = analyze(alternating_potential(40, amplitude), NumericConfig.extended())
    assert report.ledger.N == 40
    assert report.verdicts.all_theorems_hold


@pytest.mark.parametrize("b", [4, 12, 20])
def test_std_polish_evaluates_each_seed_once(b, count_calls):
    # an eigenvalue seed is accurate to far better than the 1e-9 stop, so
    # its first Newton step is its last and is taken without a second
    # residual; the seeds are the real eigenvalues and those with Im > 0
    rng = np.random.default_rng(30)
    calls = count_calls(_jost_residual)
    for _ in range(3):
        values = rng.uniform(-3, 3, b).tolist()
        p = jost_coefficients(validate_potential(values))
        raw = np.linalg.eigvals(_linearization(values))
        seeds = sum(abs(z.imag) < CFG.tau_real or z.imag > 0 for z in raw)
        calls.clear()
        find_zeros(p, CFG)
        assert len(calls) == seeds


def _conjugate_closed(roots) -> bool:
    """Every nonreal (root, count) has its exact conjugate at the same count."""
    counts = {}
    for z, m in roots:
        counts[z] = counts.get(z, 0) + m
    return all(counts.get(z.conjugate()) == m for z, m in counts.items() if z.imag)


def test_nonreal_roots_come_in_exact_conjugate_pairs():
    # find_zeros polishes only the Im > 0 member of each eigenvalue pair and
    # mirrors it; this pins LAPACK returning the pairs as exact conjugates
    rng = np.random.default_rng(31)
    draws = [rng.uniform(-3, 3, int(rng.integers(1, 17))) for _ in range(60)]
    classified = 0
    for values in draws + [rng.uniform(-3, 3, 40) for _ in range(6)]:
        p = jost_coefficients(validate_potential(list(values)))
        raw = np.linalg.eigvals(_linearization(list(values)))
        assert _conjugate_closed([(complex(z), 1) for z in raw]), list(values)
        roots = find_zeros(p, CFG)
        assert _conjugate_closed(roots), list(values)
        if len(values) == 40:
            try:
                classify_zeros(roots, CFG, 40)
            except (CountMismatchError, UnitCircleViolationError):
                continue
            classified += 1
    assert classified > 0


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

    def test_extended_root_on_the_circle_is_a_resonance(self):
        # |0.6 + 0.8i| is 1.0 in double, and 1 - tau_real is 1.0 in extended
        # precision: the root is a resonance, not a violation
        z = complex(0.6, 0.8)
        assert abs(z) == 1.0
        roots = [(z.conjugate(), 1), (z, 1), (complex(0.5), 1)]
        ledger = classify_zeros(roots, NumericConfig.extended(), b=2)
        assert (ledger.Z_c, ledger.N) == (1, 1)

    def test_extended_resonances_crowding_the_circle(self):
        # past b ~ 30 nonreal zeros lie within an ulp of the unit circle
        ext = NumericConfig.extended()
        rng = np.random.default_rng(9)
        for b in (32, 40, 60):
            for _ in range(3):
                V = validate_potential(list(rng.uniform(-3, 3, b)))
                report = analyze(V, ext)
                assert report.verdicts.all_theorems_hold, (b, list(V.values))
                assert report.ledger.N == len(bound_state_scan(V, ext)), (b, list(V.values))

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


@pytest.fixture(scope="module")
def rng5_panel():
    """(values, std states, ext states) for 20 draws at each b in {12, 16, 20}."""
    rng = np.random.default_rng(5)
    ext = NumericConfig.extended()
    panel = []
    for b in (12, 16, 20):
        for _ in range(20):
            values = list(rng.uniform(-3, 3, b))
            std_states = norming_constants(*ledger_for(values))
            ext_ledger, ext_p = ledger_for(values, ext)
            panel.append((values, std_states, norming_constants(ext_ledger, ext_p, ext)))
    return panel


class TestNormingConstants:
    def test_hand_value_b1(self):
        ledger, p = ledger_for([2.0])
        (bs,) = norming_constants(ledger, p)
        assert bs.alpha == pytest.approx(-0.5, abs=1e-14)
        assert bs.lam == pytest.approx(4.5, abs=1e-13)
        assert bs.c2 == pytest.approx(3.0, abs=1e-12)

    def test_trivial_empty(self):
        ledger, p = ledger_for([])
        assert norming_constants(ledger, p) == []

    def test_cross_formula_agreement(self, eigenvector_c2):
        ledger, p = ledger_for(EX42_POTENTIAL)
        states = norming_constants(ledger, p)
        assert len(states) == 2
        for bs in states:
            assert bs.c2 > 0
            assert bs.c2 == pytest.approx(
                eigenvector_c2(EX42_POTENTIAL, bs.lam, bs.alpha), rel=1e-10
            )

    @pytest.mark.parametrize(
        "values",
        [EX42_POTENTIAL, list(np.random.default_rng(20).uniform(-3, 3, 20))],
        ids=["b2", "b20"],
    )
    def test_extended_cross_formula_agreement(self, values, eigenvector_c2):
        cfg = NumericConfig.extended()
        ledger, p = ledger_for(values, cfg)
        states = norming_constants(ledger, p, cfg)
        assert len(states) == ledger.N > 0
        for bs in states:
            assert bs.c2 > 0
            if abs(bs.alpha) <= 0.97:
                assert bs.c2 == pytest.approx(
                    eigenvector_c2(values, bs.lam, bs.alpha), rel=1e-10
                )

    def test_std_matches_extended(self, rng5_panel):
        for values, std_states, ext_states in rng5_panel:
            assert [bs.k for bs in std_states] == [bs.k for bs in ext_states], values
            for s, e in zip(std_states, ext_states):
                assert s.c2 == pytest.approx(e.c2, rel=1e-6), values

    def test_c2_finite_and_positive(self, rng5_panel):
        for values, std_states, ext_states in rng5_panel:
            for bs in std_states + ext_states:
                assert 0 < bs.c2 < math.inf, values

    def test_matches_truncation_eigenvectors(self, rng5_panel, eigenvector_c2):
        # at the 40-digit alpha; the std alpha's own error is the 1e-6 above
        checked = 0
        for values, _, ext_states in rng5_panel:
            for bs in ext_states:
                if abs(bs.alpha) <= 0.97:
                    checked += 1
                    assert bs.c2 == pytest.approx(
                        eigenvector_c2(values, bs.lam, bs.alpha), rel=1e-10
                    ), values
        assert checked > 400

    def test_std_c2_matches_truncation_past_b20(self, eigenvector_c2):
        # rng5_panel stops at b=20; here the std alpha itself must be accurate,
        # as the backward norm magnifies its error toward n = 0
        rng = np.random.default_rng(21)
        draws = [list(rng.uniform(-3, 3, b)) for b in (24, 28) for _ in range(10)]
        checked = 0
        for values in draws:
            for bs in norming_constants(*ledger_for(values)):
                if abs(bs.alpha) < 0.95:
                    checked += 1
                    assert bs.c2 == pytest.approx(
                        eigenvector_c2(values, bs.lam, bs.alpha), rel=1e-5
                    ), (values, bs.alpha)
        assert checked > 200

    def test_extended_lambda_at_40_digits(self, rng5_panel):
        # 2 - alpha - 1/alpha at the double alpha cancels near alpha = 1; the
        # reference polishes alpha by mp Newton steps on the recursion
        from mpmath import mp, mpf

        for values, _, ext_states in rng5_panel:
            with mp.workdps(60):
                mpv = [mpf(v) for v in values]
                for bs in ext_states:
                    a = mpf(bs.alpha)
                    for _ in range(4):
                        f, df = f0_pair(mpv, a)
                        a -= f / df
                    ref = float(2 - a - 1 / a)
                    assert abs(bs.lam - ref) <= math.ulp(ref), values

    def test_std_lambda_without_cancellation(self):
        # 2 - alpha - 1/alpha cancels near alpha = 1 (up to 1324 ulps off on
        # these states); at the correctly rounded alpha what is left of
        # -(1 - alpha)^2 / alpha is that alpha's own rounding.  The inputs are
        # drawn as the benchmark's analyze-ext workload draws seeds 1 and 2.
        ext = NumericConfig.extended()
        states = 0
        for seed in (1, 2):
            rng = random.Random(f"analyze-ext:{seed}")
            for _ in range(20):
                for b in (4, 8, 12, 12, 20):
                    values = [rng.uniform(-3, 3) for _ in range(b)]
                    while values[-1] == 0.0:
                        values[-1] = rng.uniform(-3, 3)
                    ledger, p = ledger_for(values, ext)
                    pairs = zip(norming_constants(ledger, p), norming_constants(ledger, p, ext))
                    for s, e in pairs:
                        states += 1
                        assert abs(s.lam - e.lam) <= 60 * math.ulp(e.lam), values
        assert states > 1000

    @pytest.mark.parametrize("alpha", [0.1, -0.3, 1e-3])
    def test_norm_survives_deep_growth(self, alpha):
        # alternating amplitude 50 at b=110: the recursion grows past 2^256
        # (past double range at alpha = 1e-3) and alpha^(2b) underflows
        from mpmath import mp, mpf

        values = alternating_potential(110, 50.0).values
        with mp.workdps(80):
            a = mpf(alpha)
            s = a + 1 / a
            f_next, f = a**111, a**110
            total = a**222 / (1 - a * a)
            for v in values[:0:-1]:
                total += f * f
                f_next, f = f, (s + v) * f - f_next
            ref = float(1 / (total + f * f))
        assert _norm_c2(values, alpha) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize(
        "values, cfg, error, precision",
        [
            pytest.param([1e40, 1e40], NumericConfig.extended(), FloatOverflowError,
                         "40-digit", id="values0"),
            pytest.param([1e20, -1e20, 1e20], NumericConfig.extended(), FloatOverflowError,
                         "40-digit", id="values1"),
            pytest.param([1e40, 1e40], CFG, FloatOverflowError, "double", id="std-values0"),
            pytest.param([1e20, -1e20, 1e20], CFG, FloatOverflowError, "double",
                         id="std-values1"),
        ],
    )
    def test_extended_coincident_roots_are_typed(self, values, cfg, error, precision):
        # two zeros coincide at the working precision, which must surface as a
        # typed error: two bound states that round to one double are a
        # multiple zero
        ledger, p = ledger_for(values, cfg)
        with pytest.raises(error, match=f"multiple zero: .* {precision}"):
            norming_constants(ledger, p, cfg)

    def test_extended_overflow_is_typed(self):
        # alpha = -1e-200 gives c^2 = 1e400
        cfg = NumericConfig.extended()
        ledger, p = ledger_for([1e200], cfg)
        with pytest.raises(FloatOverflowError, match="40-digit precision"):
            norming_constants(ledger, p, cfg)

    def test_needs_potential_values(self):
        # every field is required, so p always carries its potential values
        ledger, p = ledger_for(EX42_POTENTIAL)
        with pytest.raises(TypeError):
            JostPolynomial(coeffs=p.coeffs, b=p.b, values=p.values)
        # a ledger and a polynomial of different supports are a typed error
        other = jost_coefficients(validate_potential([*EX42_POTENTIAL, 1.0]))
        with pytest.raises(ValueError, match="support"):
            norming_constants(ledger, other)

    @pytest.mark.parametrize(
        "values, cfg",
        [
            # a state at 1 - 1e-20, which rounds to 1.0; f0(1) = -1e-20
            ([-1.0, -1e-20], CFG),
            # a state at -1 + 1e-20, which rounds to -1.0
            ([2.0, -1e40, 1e40, 1e-20, -2.0], NumericConfig.extended()),
            # the first mirrored: a state at -1 + 1e-20
            ([1.0, 1e-20], CFG),
        ],
        ids=["std", "ext", "std-minus"],
    )
    def test_bound_state_snapped_to_the_edge_is_typed(self, values, cfg):
        # f0(+-1) != 0, so the root that rounds to +-1.0 is no edge zero, and
        # f0's exact signs beside the edge place it inside: double cannot hold it
        assert exact_count(values) >= 1
        with pytest.raises(FloatOverflowError, match="closer to the band edge"):
            analyze(validate_potential(values), cfg)

    def test_pivot_count_runs_once_per_analyze(self, count_calls):
        calls = count_calls(_edge_pivots)
        analyze(validate_potential(EX42_POTENTIAL), CFG)
        analyze(validate_potential(EX42_POTENTIAL), NumericConfig.extended())
        assert [sign for _, sign in calls] == [1.0, -1.0] * 2  # V, then -V
        analyze(validate_potential([]), CFG)
        analyze(validate_potential([]), NumericConfig.extended())
        assert len(calls) == 4

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scalar_count_equals_sturm_counts(self, sign):
        rng = np.random.default_rng(29)
        panel = [list(rng.uniform(-3, 3, int(rng.integers(1, 41)))) for _ in range(200)]
        panel += [
            [-2.0, 0.5, 1.0],  # d_1 = 0 exactly: d_2 = -inf
            [2.0, 0.5, 1.0],  # the same for -V
            [-2.0, 0.5],  # the last pivot is -inf
            [-1.0],  # f0(1) = 0: the last pivot is 0
            [-14.0, -2.25, -7.0],  # f0(1) = 0, but the last pivot rounds to -8.9e-16
            [1e308, 1e308],
            [-1e308, 1e308, -1e308],  # pivots near +-1e308, reciprocals near 1e-308
            [5e-324, 1.0],
            [-2.0 + 2.0**-52, -1.0],  # d_1 = 2^-52, so d_2 is near -4.5e15
        ]
        for values in panel:
            counts, last = _sturm_counts(np.asarray(values), np.ones(1), np.full(1, sign))
            count, d = _edge_pivots(values, sign)
            assert (count, d.hex()) == (int(counts[0]), float(last[0]).hex()), values
        assert _edge_pivots([-2.0, 0.5], 1.0) == (1, -math.inf)
        assert _edge_pivots([-14.0, -2.25, -7.0], 1.0)[1] == pytest.approx(-8.9e-16, rel=0.01)

    def test_multiple_zero_names_the_first_state(self):
        # after a state at -0.5, an alpha held twice or three times, or held
        # with the next double: the message names the first k that holds it
        _, p = ledger_for([1.0, 2.0, 3.0])
        for roots in (
            [-0.5, 0.25, 0.25, 0.75, 3.0],
            [-0.5, 0.25, 0.25, 0.25, 3.0],
            [-0.5, 0.25, 0.75, 0.75, 3.0],
            [-0.5, 0.25, math.nextafter(0.25, 1.0), 0.75, 3.0],
        ):
            ledger = classify_zeros([(complex(z), 1) for z in roots], CFG, 3)
            k, alpha = (3, 0.75) if roots[2] == 0.75 else (2, 0.25)
            with pytest.raises(FloatOverflowError) as err:
                norming_constants(ledger, p, CFG)
            assert str(err.value) == (
                f"bound state k={k} at alpha={alpha} is a multiple zero: "
                "its norming constant leaves double precision"
            )

    @pytest.mark.parametrize("cfg", [CFG, NumericConfig.extended()], ids=["std", "ext"])
    def test_count_mismatch_is_typed(self, cfg):
        # a ledger that misses a bound state: EX42's state at 1/2 moved out to 2
        ledger, p = ledger_for(EX42_POTENTIAL, cfg)
        roots = [(2.0 if cz.kind == BOUND_POS else cz.z, cz.multiplicity) for cz in ledger.zeros]
        short = classify_zeros(roots, cfg, ledger.b)
        with pytest.raises(CountMismatchError, match="pivots count 1 and 1"):
            norming_constants(short, p, cfg)


EDGE_PANEL = [[-1.0], [1.0], [-1.5, 1.0], [-1 / (1 + 1e-10)], [-1 / (1 - 1e-10)]]


class TestEdgeZeros:
    @pytest.mark.parametrize("values", EDGE_PANEL, ids=str)
    def test_std_and_ext_agree(self, values):
        V = validate_potential(values)
        reports = [analyze(V, cfg) for cfg in (CFG, NumericConfig.extended())]
        ledgers = [
            (r.ledger.N, r.ledger.mu_minus, r.ledger.mu_plus, [cz.kind for cz in r.ledger.zeros])
            for r in reports
        ]
        assert ledgers[0] == ledgers[1]
        assert all(r.verdicts.all_theorems_hold for r in reports)
        assert reports[0].ledger.N == exact_count(values)

    @pytest.mark.parametrize(
        "values, mu",
        [([-1.0], (0, 1)), ([1.0], (1, 0)), ([-1.5, 1.0], (0, 1)), ([-1 / (1 + 1e-10)], (0, 0))],
        ids=str,
    )
    @pytest.mark.parametrize("cfg", [CFG, NumericConfig.extended()], ids=["std", "ext"])
    def test_edge_multiplicities_are_exact(self, values, mu, cfg):
        # mu_minus, mu_plus are 1 exactly where f0(-1), f0(1) vanish: f0 = 1 - z,
        # 1 + z and 1 - 0.5 z - 1.5 z^2 + z^3; the last value puts its root
        # 1e-10 beyond +1, a resonance
        ledger, _ = ledger_for(values, cfg)
        assert (ledger.mu_minus, ledger.mu_plus) == mu
        edges = [cz.z for cz in ledger.zeros if cz.kind in (EDGE_MINUS, EDGE_PLUS)]
        assert edges == [complex(x) for x, m in zip((-1.0, 1.0), mu) if m]

    @pytest.mark.parametrize(
        "values, n", [([-1000.0, -1.0, 1e10, -1.0], 3), ([-1.0000000001], 1)], ids=str
    )
    @pytest.mark.parametrize("cfg", [CFG, NumericConfig.extended()], ids=["std", "ext"])
    def test_states_near_the_edge_are_counted(self, values, n, cfg):
        # states at 1 - 1e-10: std's 1e-9 edge tolerance once binned them at +1
        report = analyze(validate_potential(values), cfg)
        assert report.ledger.N == exact_count(values) == n
        assert report.ledger.mu_plus == 0
        assert report.verdicts.all_theorems_hold

    @pytest.mark.parametrize("cfg", [CFG, NumericConfig.extended()], ids=["std", "ext"])
    def test_edge_zero_with_a_pivot_just_below_zero(self, cfg):
        # f0(1) = 0 exactly, but the last pivot at alpha = 1 rounds to -8.9e-16
        values = [-14.0, -2.25, -7.0]
        last = _sturm_counts(np.asarray(values), np.ones(1), np.ones(1))[1]
        assert last[0] < 0
        report = analyze(validate_potential(values), cfg)
        assert report.ledger.mu_plus == 1
        assert report.ledger.N == exact_count(values) == 2
        assert report.verdicts.all_theorems_hold

    @pytest.mark.parametrize(
        "values, z",
        [([1.0, -1e-150], -1.0000000000000002), ([-1.0, 1e-20], 1.0000000000000002)],
        ids=str,
    )
    @pytest.mark.parametrize("cfg", [CFG, NumericConfig.extended()], ids=["std", "ext"])
    def test_resonance_within_half_an_ulp_of_the_edge(self, values, z, cfg):
        # f0(+-1) != 0 and the root that rounds to +-1.0 lies beyond the edge:
        # it comes back as the next double out, a resonance
        ledger, _ = ledger_for(values, cfg)
        assert (ledger.mu_minus, ledger.mu_plus, ledger.N) == (0, 0, 0)
        near = [cz for cz in ledger.zeros if abs(abs(cz.z) - 1.0) < 1e-15]
        assert [(cz.z, cz.kind) for cz in near] == [
            (complex(z), RES_LEFT if z < 0 else RES_RIGHT)
        ]


def exact_count(values) -> int:
    """N by the exact Sturm count, in rational arithmetic.

    The negative pivots d_n = 2 + V_n - 1/d_(n-1) (d_0 = inf) of H at the
    band edge lambda = 0, one more when 0 <= d_b < 1, for V and for -V; a
    zero pivot makes the next one -inf.
    """

    def below_band(vs):
        count, inv, d = 0, Fraction(0), None  # inv = 1/d_(n-1); None after d = 0
        for v in vs:
            if inv is None:  # this pivot is -inf
                count, inv, d = count + 1, Fraction(0), None
                continue
            d = 2 + Fraction(v) - inv
            count += d < 0
            inv = 1 / d if d else None
        return count + (inv is None or (d is not None and 0 <= d < 1))

    return below_band(values) + below_band([-v for v in values])


# a b=40 input with 18 states, two of them 4.7e-6 apart near lambda = -0.9163
CLOSE_PAIR = [
    -0.23677969833256096, -0.24935692706395196, -2.371544102526975, -1.2950466902775888,
    1.202919731256097, 0.09639697774778533, 2.485291720059859, -2.4156802218144673,
    0.616272058658712, 2.0608511107864205, -2.565734654504798, -2.994174101238628,
    -2.1553957185962966, -2.501435774287036, -1.9950261695198979, 0.7553796582194421,
    -2.613136719179124, -1.7088661776910448, -0.00769737057933817, 2.926898101475797,
    2.789495937339405, 0.45501569513083817, -2.321040879828355, 2.4416230492773714,
    -1.726431856095456, 0.5638827393556953, -1.3469416017148845, -2.2487955312625747,
    0.751295832252894, -2.3293541065875045, -1.1361765361543763, -0.18254463760887596,
    1.2926043387753667, 2.7729837145249423, -1.5619866172875716, -1.7343596568795505,
    0.8496777519172216, -0.7295591655664975, -0.4133526993634056, -1.7067998438010195,
]


def _edge_clear(values, delta=Fraction(1, 10**6)) -> bool:
    """Whether f0 has no zero within delta of +-1, decided exactly.

    On I = [1 - delta, 1 + delta] the Jost recursion run on absolute values
    bounds |f0'| by B_0; |f0(1)| > delta B_0 then leaves no zero in I.  A
    zero near -1 is one of -V's near 1, since f0 of -V is z -> f0(-z).
    """
    q, S = 1 + delta, 1 + delta + 1 / (1 - delta)  # |z|, |z + 1/z| on I
    T = 1 / (1 - delta) ** 2 - 1  # |1 - 1/z^2| on I

    def clear(vs):
        b = len(vs)
        f, f_next = Fraction(1), Fraction(1)  # f_b, f_(b+1) at z = 1
        A, A_next = q**b, q ** (b + 1)  # bounds on |f_n|, |f_(n+1)| on I
        B, B_next = b * q ** (b - 1), (b + 1) * q**b  # and on |f_n'|, |f_(n+1)'|
        for v in map(Fraction, reversed(vs)):
            f, f_next = (2 + v) * f - f_next, f
            w = S + abs(v)
            A, A_next, B, B_next = w * A + A_next, A, w * B + T * A + B_next, B
        return abs(f) > delta * B

    return clear(values) and clear([-v for v in values])


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

    @pytest.mark.parametrize("cfg", [CFG, NumericConfig.extended()], ids=["std", "ext"])
    @pytest.mark.parametrize("b, amplitude", [(110, 50.0), (60, 200.0)])
    def test_deep_alternating_full_count(self, cfg, b, amplitude):
        V = alternating_potential(b, amplitude)
        assert exact_count(V.values) == b
        roots = bound_state_scan(V, cfg)
        assert len(roots) == b
        assert all(-1 < r < 1 for r in roots)
        assert all(r0 < r1 for r0, r1 in zip(roots, roots[1:]))

    def test_close_pair(self):
        roots = bound_state_scan(validate_potential(CLOSE_PAIR), CFG)
        assert len(roots) == exact_count(CLOSE_PAIR) == 18
        assert all(r0 < r1 for r0, r1 in zip(roots, roots[1:]))

    @pytest.mark.parametrize("values", [[1e20, -1e20, 1e20], [1e40, 1e40]])
    def test_huge_values_full_count(self, values):
        roots = bound_state_scan(validate_potential(values), CFG)
        assert len(roots) == exact_count(values) == len(values)

    @pytest.mark.parametrize("values", [[1e20, -1e20, 1e20], [1e40, 1e40], [1e308, 1e308]])
    def test_states_coincident_in_double_are_typed_in_extended(self, values):
        # two states coincide in double and polish to one or not at all
        with pytest.raises(NoConvergenceError):
            bound_state_scan(validate_potential(values), NumericConfig.extended())

    def test_single_site_root_correctly_rounded(self):
        assert bound_state_scan(validate_potential([50.0]), CFG) == [-0.02]

    @pytest.mark.parametrize("v", [1e100, 1e300, -1e308])
    def test_deep_single_site_state(self, v):
        from mpmath import mp, mpf

        V = validate_potential([v])
        (root,) = bound_state_scan(V, CFG)
        assert root == pytest.approx(-1 / v, rel=1e-15)
        (ext,) = bound_state_scan(V, NumericConfig.extended())
        with mp.workdps(60):
            ext = mpf(ext.numerator) / ext.denominator
            exact = mpf(-1) / mpf(v)  # f0(z) = 1 + v z
            assert abs(ext - exact) <= mpf(10) ** -38 * abs(exact)

    def test_state_beyond_double_resolution_of_the_edge(self):
        # documented: the one state of [1, 5e-324] lies within 1e-323 of -1,
        # where the double count cannot see it
        values = [1.0, 5e-324]
        assert exact_count(values) == 1
        assert bound_state_scan(validate_potential(values), CFG) == []

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0),
            min_size=1,
            max_size=40,
        )
    )
    def test_count_matches_exact_count(self, values):
        n = len(bound_state_scan(validate_potential(values), CFG))
        if _edge_clear(values):
            assert n == exact_count(values)
        else:
            assert abs(n - exact_count(values)) <= 1

    def test_large_support_full_count(self):
        from latticejost.design import alternating_potential

        V = alternating_potential(60, 2.0)
        roots = bound_state_scan(V, CFG)
        assert len(roots) == 60

    def test_extended_polish(self):
        V = validate_potential(EX42_POTENTIAL)
        roots = bound_state_scan(V, NumericConfig.extended())
        assert all(type(r) is Fraction for r in roots)
        assert [float(r) for r in roots] == pytest.approx([-0.5, 0.5], abs=1e-15)

    @pytest.mark.parametrize("b", [40, 110])
    def test_extended_roots_fully_polished(self, b):
        from mpmath import mp, mpf

        from latticejost.design import alternating_potential

        V = alternating_potential(b, 2.0)
        roots = bound_state_scan(V, NumericConfig.extended())
        std = bound_state_scan(V, CFG)
        assert len(roots) == len(std) == b
        with mp.workdps(40):
            mpv = [mpf(v) for v in V.values]
            for z, z_std in zip(roots, std):
                assert float(z) == pytest.approx(z_std, abs=1e-14)
                z = mpf(z.numerator) / z.denominator
                f, df = f0_pair(mpv, z)
                z1 = z - f / df
                # one more full Newton step moves the root by no more than the
                # 1e-38 stopping tolerance; both residuals then sit at the
                # 40-digit rounding floor, so they compare up to that floor
                assert abs(z1 - z) <= mpf(10) ** -38 * abs(z)
                floor = mpf(10) ** -38 * abs(z * df)
                assert abs(f) <= abs(f0_pair(mpv, z1)[0]) + floor

    @staticmethod
    def _assert_polish_matches_60_digit_newton():
        # the reference is f0_pair's Newton at 60 digits; the first input mixes
        # exponents from 1e-30 to 2^-600, which the polish's fixed-point scale
        # rounds.  Returns the number of roots polished.
        from mpmath import mp, mpf

        rng = np.random.default_rng(13)
        inputs = [[3.0, 1e-30, -2.0, 2.0**-600, 2.5]]
        inputs += [rng.uniform(-3, 3, 12).tolist() for _ in range(4)]
        count = 0
        for values in inputs:
            roots = bound_state_scan(validate_potential(values), NumericConfig.extended())
            assert len(roots) == exact_count(values) > 0
            count += len(roots)
            with mp.workdps(60):
                mpv = [mpf(v) for v in values]
                for z in roots:
                    z = a = mpf(z.numerator) / z.denominator
                    for _ in range(8):
                        f, df = f0_pair(mpv, a)
                        a -= f / df
                        if abs(f / df) < mpf(10) ** -55 * abs(a):
                            break
                    assert abs(z - a) <= mpf(10) ** -38 * abs(a), values
        return count

    def test_extended_polish_matches_60_digit_newton(self):
        self._assert_polish_matches_60_digit_newton()

    def test_polish_with_an_inexact_slope_takes_more_passes(self, monkeypatch, count_calls):
        # a float slope 1e-4 off contracts each simplified step by only about
        # 1e-4, so the a-posteriori stop waits for more passes, and the roots
        # still meet the 60-digit reference
        import latticejost.spectrum as spectrum

        slope = spectrum._g0_slope

        def inexact(values, z):
            d, k = slope(values, z)
            return d * (1 + 1e-4), k

        monkeypatch.setattr(spectrum, "_g0_slope", inexact)
        calls = count_calls(_g0_fixed)
        count = self._assert_polish_matches_60_digit_newton()
        assert len(calls) > 2 * count

    def test_polish_stops_at_an_iterate_leaving_the_interval(self, monkeypatch):
        # f0 of [-1/r] is 1 - z/r; from 1 - 1e-9 the first full Newton step
        # lands past 1, next to the resonance r = 1 + 1e-9, where the next
        # four steps would converge; f0 of [2] is 1 + 2z
        import latticejost.spectrum as spectrum

        monkeypatch.setattr(spectrum, "_MP_SIMPLIFIED_STEPS", 0)
        with pytest.raises(NoConvergenceError):
            spectrum._polish_fixed([-1 / (1 + 1e-9)], [1 - 1e-9])
        polished, F = spectrum._polish_fixed([2.0], [-0.49999999])
        assert polished == [-1 << (F - 1)]

    def test_std_scan_passes(self, count_calls):
        # the 55 states of each side share their first cuts, and a bracket
        # holding one state and no pole of the last pivot ends on secant
        # windows; plain multisection takes 25 counts here
        calls = count_calls(_sturm_counts)
        assert len(bound_state_scan(alternating_potential(110, 2.0), CFG)) == 110
        assert len(calls) <= 14

    def test_extended_scan_takes_no_exact_slope(self, count_calls):
        # the simplified steps' slope comes from the float recursion
        calls = count_calls(_g0_fixed)
        roots = bound_state_scan(alternating_potential(110, 2.0), NumericConfig.extended())
        assert len(roots) == 110
        assert [args for args in calls if args[3]] == []

    def test_extended_scan_polishes_in_two_passes(self, count_calls):
        # the first simplified step brings each root from double accuracy to
        # about 32 digits; the second shows a contraction near 1e-16, whose
        # error bound is far below the 38-digit stop
        calls = count_calls(_g0_fixed)
        roots = bound_state_scan(alternating_potential(110, 2.0), NumericConfig.extended())
        assert len(roots) == 110
        assert len(calls) == 220

    @pytest.mark.parametrize("d", [0.0, math.inf, math.nan])
    def test_polish_without_a_float_slope_takes_full_steps(self, monkeypatch, count_calls, d):
        # a float slope of 0 or beyond double range, as a deep state's, sends
        # the root straight to the full Newton steps
        import latticejost.spectrum as spectrum

        V = alternating_potential(12, 2.0)
        expected = bound_state_scan(V, NumericConfig.extended())
        monkeypatch.setattr(spectrum, "_g0_slope", lambda values, z: (d, 0))
        calls = count_calls(_g0_fixed)
        roots = bound_state_scan(V, NumericConfig.extended())
        assert len(roots) == len(expected) == 12
        assert all(abs(z - e) <= 1e-38 * abs(e) for z, e in zip(roots, expected))
        assert all(args[3] for args in calls)

    def test_std_roots_no_farther_from_the_polished_ones(self):
        # over the panel, the largest and the total distance to the 40-digit
        # roots stay within what multisection alone reached, 63 and 534 ulps
        rng = np.random.default_rng(17)
        inputs = [alternating_potential(b, 2.0) for b in (40, 80, 110)]
        inputs.append(validate_potential(CLOSE_PAIR))
        inputs += [
            validate_potential(rng.uniform(-3, 3, b).tolist())
            for b in range(4, 41, 4)
            for _ in range(3)
        ]
        ulps = []
        for V in inputs:
            std = bound_state_scan(V, CFG)
            ext = [float(z) for z in bound_state_scan(V, NumericConfig.extended())]
            assert len(std) == len(ext)
            ulps += [abs(a - z) / math.ulp(z) for a, z in zip(std, ext)]
        assert max(ulps) <= 63
        assert sum(ulps) <= 534

    def test_std_newton_step_near_the_edge(self):
        # the double count resolves a root near alpha = +-1 only to tens of
        # ulps (35 / 53 / 29 here); one Newton step on the Jost recursion
        # brings each to within a few ulps of the 40-digit root
        for b in (40, 80, 110):
            V = alternating_potential(b, 2.0)
            std = bound_state_scan(V, CFG)
            ext = [float(z) for z in bound_state_scan(V, NumericConfig.extended())]
            assert len(std) == len(ext) == b
            assert max(abs(a - z) / math.ulp(z) for a, z in zip(std, ext)) <= 16, b

    def test_newton_step_stays_inside_and_in_order(self, monkeypatch):
        # residual / slope is the step: -0.5 would leave (-1, 1), 0.25 would
        # pass its neighbour 0.5, and a zero slope takes no step
        import latticejost.spectrum as spectrum

        residual = {-0.5: (0.75, 1.0), 0.25: (-0.5, 1.0), 0.5: (0.125, 1.0), 0.75: (1.0, 0.0)}
        monkeypatch.setattr(spectrum, "_jost_residual", lambda values, x: residual[x])
        assert spectrum._newton_step((), [-0.5, 0.25, 0.5, 0.75]) == [-0.5, 0.25, 0.375, 0.75]

    def test_extended_fallback_to_full_newton(self, monkeypatch):
        # a root that misses the simplified-Newton stopping rule within the
        # step cap goes on with full Newton steps and ends as converged
        import latticejost.spectrum as spectrum
        from latticejost.design import alternating_potential

        V = alternating_potential(12, 2.0)
        expected = bound_state_scan(V, NumericConfig.extended())
        monkeypatch.setattr(spectrum, "_MP_SIMPLIFIED_STEPS", 1)
        roots = bound_state_scan(V, NumericConfig.extended())
        assert all(abs(z - e) <= 1e-38 * abs(e) for z, e in zip(roots, expected))
        assert len(roots) == len(expected) == 12
