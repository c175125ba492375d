"""End-to-end acceptance suite.

One test per shipped guarantee; each prints a single pass/fail line with
the headline numbers so the run log doubles as a verification report.
"""

import math
import time

import numpy as np
import pytest

from latticejost.core import NumericConfig, lambda_to_z, validate_potential
from latticejost.design import (
    alternating_potential,
    amplify_to_full_bound,
    choose_epsilon,
    shrink_to_no_bound,
    verify_b3,
)
from latticejost.errors import FloatOverflowError
from latticejost.jost import jost_coefficients, jost_eval, rouche_margin
from latticejost.laws import (
    check_count_identity,
    check_resonance_inequalities,
    check_sign_flip_symmetry,
    evaluate_laws,
)
from latticejost.oracle import match_energies, oracle_bound_states
from latticejost.report import analyze
from latticejost.spectrum import (
    bound_state_scan,
    classify_zeros,
    find_zeros,
    norming_constants,
)

CFG = NumericConfig()
SEED = 20260823


def _verdict(name: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    extra = detail if not failures else "; ".join(failures[:5])
    print(f"[acceptance] {name}: {status}" + (f" ({extra})" if extra else ""))
    assert not failures, f"{name}: {extra}"


def _ledger(values, cfg=CFG):
    V = validate_potential(values)
    p = jost_coefficients(V)
    return classify_zeros(find_zeros(p, cfg), cfg, V.b), p, V


def _random_potential(rng, bmax):
    b = int(rng.integers(1, bmax + 1))
    vals = rng.uniform(-3.0, 3.0, b)
    while vals[-1] == 0.0:
        vals[-1] = rng.uniform(-3.0, 3.0)
    return list(vals)


def test_single_site_threshold():
    """|V1| < 1 gives no bound state; |V1| > 1 gives one at exactly -1/V1."""
    t0 = time.perf_counter()
    failures = []
    for v1 in (0.5, -0.5, 0.9, -0.9):
        ledger, _, _ = _ledger([v1])
        if ledger.N != 0:
            failures.append(f"V1={v1}: N={ledger.N}, expected 0")
    for v1 in (1.1, -1.1, 2.0, -2.0, 5.0, -5.0):
        ledger, _, _ = _ledger([v1])
        roots = [a for _, a in ledger.bound_state_roots()]
        if ledger.N != 1:
            failures.append(f"V1={v1}: N={ledger.N}, expected 1")
        elif abs(roots[0] - (-1.0 / v1)) > 1e-12:
            failures.append(f"V1={v1}: root {roots[0]} vs {-1.0 / v1}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, limit 1s")
    _verdict("single-site threshold family", failures, f"{elapsed * 1e3:.0f} ms")


def test_two_site_closed_form_root_sets():
    """Four hand-solvable two-site potentials reproduce their exact zeros."""
    failures = []
    s5 = math.sqrt(5)
    s22 = math.sqrt(22)
    s3 = math.sqrt(3)

    def roots_of(values):
        ledger, _, _ = _ledger(values)
        return ledger

    cases = [
        ([-s5, 4.0 / s5], [-0.5, 0.5, s5], 1e-10),
        ([s5, -4.0 / s5], [-s5, -0.5, 0.5], 1e-10),
        (
            [(-13.0 + s22) / 3.0, -4.0 - 4.0 * math.sqrt(2.0 / 11.0)],
            [1.0 / 6.0, 0.5, (11.0 - s22) / 3.0],
            1e-10,
        ),
    ]
    for values, expected, tol in cases:
        ledger = roots_of(values)
        got = ledger.real_roots_expanded()
        for g, e in zip(got, sorted(expected)):
            if abs(g - e) > tol:
                failures.append(f"{values}: root {g} vs {e}")
    # the largest root of the third case against its rounded decimal
    third = roots_of(cases[2][0]).real_roots_expanded()[-1]
    if abs(third - 2.10319) > 5e-5:
        failures.append(f"rounded-decimal check: {third} vs 2.10319")

    # double-resonance pairs: each potential forward-verified against its
    # own root set (the two sets swap relative to some published tables)
    double_cases = [
        ([-2.5 + s3, -0.5 + 1.0 / s3], -1.5 - s3),
        ([-2.5 - s3, -0.5 - 1.0 / s3], -1.5 + s3),
    ]
    for values, simple in double_cases:
        ledger = roots_of(values)
        mults = {cz.multiplicity: cz.z.real for cz in ledger.zeros}
        if sorted(cz.multiplicity for cz in ledger.zeros) != [1, 2]:
            failures.append(f"{values}: multiplicities {mults}")
            continue
        if abs(mults[2] - 2.0) > 1e-8:
            failures.append(f"{values}: double root {mults[2]} vs 2")
        if abs(mults[1] - simple) > 1e-8:
            failures.append(f"{values}: simple root {mults[1]} vs {simple}")
    _verdict("two-site closed-form root sets", failures)


def test_three_site_double_complex_resonances():
    """Rounded three-site potentials reproduce their double complex pairs."""
    failures = []
    # inputs rounded to ~5 digits, so roots are trusted only to ~2e-3 and
    # each double pair splits into two pairs about 5e-3 apart, which are
    # grouped here within 1e-2
    cases = [
        ([-1.89114, -3.03202, -0.6522], complex(1.1613, 1.0), 0.27797),
        ([1.13279, 0.746106, 0.0990129], complex(-0.31968, 2.0), -0.600172),
    ]
    for values, quad, simple in cases:
        ledger, _, V = _ledger(values)
        upper = [cz.z for cz in ledger.zeros if cz.z.imag > 0.0]
        real = [cz for cz in ledger.zeros if cz.z.imag == 0.0]
        if len(ledger.zeros) != 5 or len(upper) != 2 or abs(upper[0] - upper[1]) >= 1e-2:
            failures.append(f"{values}: shape {[(c.z, c.multiplicity) for c in ledger.zeros]}")
            continue
        up = sum(upper) / 2
        if abs(up - quad) > 2e-3:
            failures.append(f"{values}: quadruple {up} vs {quad}")
        if abs(real[0].z.real - simple) > 2e-3:
            failures.append(f"{values}: simple {real[0].z.real} vs {simple}")
        expanded = [up, up, up.conjugate(), up.conjugate(), complex(real[0].z.real)]
        res = max(verify_b3(V, expanded))
        if res >= 5e-3:
            failures.append(f"{values}: residual {res:.2e}")
    _verdict("three-site double complex resonances", failures)


def test_alternating_sweep_full_count():
    """The alternating amplitude-2 family attains N = b at every support."""
    failures = []
    t0 = time.perf_counter()
    for b in range(1, 41):
        roots = bound_state_scan(alternating_potential(b, 2.0), CFG)
        if len(roots) != b:
            failures.append(f"std b={b}: found {len(roots)}")
    std_s = time.perf_counter() - t0
    if std_s >= 10.0:
        failures.append(f"standard sweep took {std_s:.1f}s, limit 10s")
    t0 = time.perf_counter()
    ext = NumericConfig.extended()
    for b in range(1, 111):
        roots = bound_state_scan(alternating_potential(b, 2.0), ext)
        if len(roots) != b:
            failures.append(f"ext b={b}: found {len(roots)}")
    ext_s = time.perf_counter() - t0
    if ext_s >= 600.0:
        failures.append(f"extended sweep took {ext_s:.1f}s, limit 600s")
    _verdict(
        "alternating sweep full count",
        failures,
        f"std 1..40 in {std_s:.1f}s, ext 1..110 in {ext_s:.1f}s",
    )


def test_large_support_verdicts_hold():
    """Std verdicts hold at b = 40, 60, 110, with N equal to the pivot count."""
    rng = np.random.default_rng(SEED)
    failures = []
    for b in (40, 60, 110):
        for _ in range(5):
            V = validate_potential(list(rng.uniform(-3.0, 3.0, b)))
            report = analyze(V, CFG)
            n_scan = len(bound_state_scan(V, CFG))
            if not report.verdicts.all_theorems_hold or report.ledger.N != n_scan:
                failures.append(f"b={b}: N={report.ledger.N} vs scan {n_scan}")
    # at amplitude 50 the deepest states' c^2 leave double range, so analyze
    # stops at their norming constants with a typed FloatOverflowError; the
    # ledger and the laws run alone
    for amplitude in (2.0, 50.0):
        V = alternating_potential(110, amplitude)
        ledger, p, _ = _ledger(V.values)
        verdicts = evaluate_laws(V, p, ledger, CFG)
        if not verdicts.all_theorems_hold or not ledger.N == len(bound_state_scan(V, CFG)) == 110:
            failures.append(f"alternating {amplitude}: N={ledger.N}")
    _verdict("large-support verdicts", failures, "15 draws and 2 alternating at b <= 110")


def test_alternating_close_bound_states_stay_apart():
    """Std analyze answers the alternating family, states as close as 3e-9."""
    # the smallest gap between states runs from 1e-5 (amplitude 20, b = 20)
    # to 3e-9 (amplitude 200, b = 40), below tau_cluster = 1e-6 in all but
    # two cases; bound states are simple, so none of them merge
    failures = []
    cases = [(a, b) for a in (20.0, 50.0, 200.0) for b in (20, 40)] + [(20.0, 110)]
    for amplitude, b in cases:
        V = alternating_potential(b, amplitude)
        report = analyze(V, CFG)
        n_scan = len(bound_state_scan(V, CFG))
        if not report.verdicts.all_theorems_hold or not report.ledger.N == n_scan == b:
            failures.append(f"amplitude {amplitude}, b={b}: N={report.ledger.N} vs scan {n_scan}")
    with pytest.raises(FloatOverflowError, match="norming constant of bound state"):
        analyze(alternating_potential(110, 50.0), CFG)  # a c^2 beyond double range
    _verdict("alternating close bound states", failures, f"{len(cases)} potentials")


def test_random_potential_invariants():
    """Structural laws hold on 1000 random potentials with no tolerated failures."""
    rng = np.random.default_rng(SEED)
    failures = []
    for _ in range(1000):
        values = _random_potential(rng, 12)
        try:
            ledger, p, V = _ledger(values)
        except Exception as exc:  # noqa: BLE001 - any breakage is a finding
            failures.append(f"{values}: {exc}")
            continue
        if not check_count_identity(ledger, V.b):
            failures.append(f"{values}: count identity")
        if not 0 <= ledger.N <= V.b:
            failures.append(f"{values}: N={ledger.N} outside 0..{V.b}")
        for cz in ledger.zeros:
            if cz.z.imag != 0.0 and abs(cz.z) <= 1.0 - 1e-8:
                failures.append(f"{values}: nonreal root {cz.z} inside circle")
        ok_minus, _, ok_plus, _ = check_resonance_inequalities(ledger)
        if not (ok_minus and ok_plus):
            failures.append(f"{values}: resonance inequality")
        if not check_sign_flip_symmetry(V, CFG):
            failures.append(f"{values}: sign flip symmetry")
    _verdict("random potential invariants", failures, "1000 potentials, b <= 12")


def test_norming_constant_cross_check(eigenvector_c2):
    """c^2 matches the truncation's eigenvectors to 1e-8 on 500 extended draws."""
    rng = np.random.default_rng(SEED)
    ext = NumericConfig.extended()
    failures = []
    worst = 0.0
    for _ in range(500):
        values = _random_potential(rng, 8)
        ledger, p, _ = _ledger(values, ext)
        for bs in norming_constants(ledger, p, ext):
            if not 0 < bs.c2 < math.inf:
                failures.append(f"{values}: c2 = {bs.c2} at {bs.alpha}")
                continue
            if abs(bs.alpha) > 0.97:
                continue
            ref = eigenvector_c2(values, bs.lam, bs.alpha)
            rel = abs(bs.c2 - ref) / ref
            worst = max(worst, rel)
            if rel >= 1e-8:
                failures.append(f"{values}: rel diff {rel:.2e} at {bs.alpha}")
    ledger, p, _ = _ledger([2.0])
    (bs,) = norming_constants(ledger, p)
    if abs(bs.c2 - 3.0) > 1e-12:
        failures.append(f"hand value: {bs.c2} vs 3")
    _verdict("norming constant cross-check", failures, f"worst rel diff {worst:.2e}")


def test_matrix_oracle_equivalence():
    """Truncated-matrix eigenvalues match the polynomial bound states."""
    rng = np.random.default_rng(SEED)
    failures = []
    worst = 0.0
    for _ in range(200):
        values = _random_potential(rng, 8)
        ledger, p, V = _ledger(values)
        lams = [
            bs.lam for bs in norming_constants(ledger, p) if abs(bs.alpha) < 0.95
        ]
        # same cut on the oracle side: a bound state with |alpha| >= 0.95
        # is excluded from both lists, not just one
        oracle = [
            lam
            for lam in oracle_bound_states(V, M=800)
            if abs(lambda_to_z(lam)) < 0.95
        ]
        if len(oracle) != len(lams):
            failures.append(f"{values}: {len(lams)} roots vs {len(oracle)} oracle")
            continue
        for _, _, delta in match_energies(lams, oracle):
            worst = max(worst, delta)
            if not delta < 1e-6:
                failures.append(f"{values}: energy delta {delta:.2e}")
    single = oracle_bound_states(validate_potential([2.0]), M=200)
    if len(single) != 1 or abs(single[0] - 4.5) > 1e-10:
        failures.append(f"single-site oracle: {single}")
    _verdict("matrix oracle equivalence", failures, f"worst delta {worst:.2e}")


def test_constructive_certificates():
    """Shrinking certifies N = 0; amplifying certifies N = b for every pattern."""
    rng = np.random.default_rng(SEED)
    failures = []
    for _ in range(50):
        values = _random_potential(rng, 6)
        t, scaled, _ = shrink_to_no_bound(validate_potential(values))
        coeffs = jost_coefficients(scaled).coeffs
        if max(abs(c) for c in coeffs[1:]) >= 1.0 / (2 * scaled.b):
            failures.append(f"{values}: shrink hypothesis unmet at t={t}")
        ledger, _, _ = _ledger(list(scaled.values))
        if ledger.N != 0:
            failures.append(f"{values}: shrink left N={ledger.N}")
    patterns = 0
    for b in range(1, 6):
        for mask in range(2**b):
            signs = [1 if mask & (1 << j) else -1 for j in range(b)]
            A, pot, _ = amplify_to_full_bound(signs)
            patterns += 1
            if not rouche_margin(pot) > 0:
                failures.append(f"{signs}: margin not positive at A={A}")
            ledger, _, _ = _ledger(list(pot.values))
            if ledger.N != b:
                failures.append(f"{signs}: N={ledger.N} != {b}")
    _verdict("constructive certificates", failures, f"{patterns} sign patterns")


def test_cubic_consistency_relation():
    """e1*e3 - e2 = -1 for the zero triple of every two-site potential."""
    rng = np.random.default_rng(SEED)
    failures = []
    worst = 0.0

    def relation(triple):
        a1, a2, a3 = triple
        e1 = a1 + a2 + a3
        e2 = a1 * a2 + a1 * a3 + a2 * a3
        e3 = a1 * a2 * a3
        return abs(e1 * e3 - e2 + 1.0)

    for _ in range(500):
        vals = [float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))]
        if vals[1] == 0.0:
            vals[1] = 1.0
        ledger, _, _ = _ledger(vals)
        triple = [cz.z for cz in ledger.zeros for _ in range(cz.multiplicity)]
        res = relation(triple)
        worst = max(worst, res)
        if res >= 1e-10:
            failures.append(f"{vals}: residual {res:.2e}")
    s3 = math.sqrt(3)
    for triple in (
        [2.0, 2.0, -1.5 + s3],
        [-2.0, -2.0, 1.5 - s3],
        [0.5, -0.5, math.sqrt(5)],
    ):
        res = relation([complex(x) for x in triple])
        if res >= 1e-10:
            failures.append(f"{triple}: residual {res:.2e}")
    _verdict("cubic consistency relation", failures, f"worst residual {worst:.2e}")


def test_support_extension_preserves_count():
    """Epsilon-padding the support keeps N and stays clear of the band edges."""
    failures = []
    V = validate_potential([2.0])
    for b in (2, 3, 5):
        eps, extension, _ = choose_epsilon(V, b)
        ledger, p, _ = _ledger(list(extension.values))
        if ledger.N != 1:
            failures.append(f"b={b}: N={ledger.N}")
        edge = min(abs(jost_eval(p, 1.0)), abs(jost_eval(p, -1.0)))
        if not edge > 1e-9:
            failures.append(f"b={b}: |f0(+-1)| = {edge:.2e}")
    _verdict("support extension preserves count", failures)
