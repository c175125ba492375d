import math

import numpy as np
import pytest

from latticejost.core import NumericConfig, validate_potential
from latticejost.design import alternating_potential
from latticejost.oracle import (
    match_energies,
    oracle_bound_states,
    truncated_eigenvalues,
)
from latticejost.report import analyze
from latticejost.spectrum import bound_state_scan

# b=8 potential with a bound state at lambda = -9.4e-7, inside the oracle's
# default 1e-6 band margin: the scan finds one more state than the oracle
EDGE_STATE = [
    -1.3823220043070181, 0.05305895851095155, 0.2816742538015662, 2.1260824060834125,
    -1.174013328060725, 0.2584245972103796, 2.67679114420815, -0.7302582991632138,
]


class TestTruncatedEigenvalues:
    def test_free_operator_closed_form(self):
        # diag 2, off-diag -1: eigenvalues 2 - 2 cos(k pi / (M+1))
        M = 25
        eigs = truncated_eigenvalues(validate_potential([]), M)
        expected = 2.0 - 2.0 * np.cos(np.arange(1, M + 1) * np.pi / (M + 1))
        assert np.allclose(eigs, np.sort(expected), atol=1e-12)

    def test_requires_truncation_beyond_support(self):
        with pytest.raises(ValueError):
            truncated_eigenvalues(validate_potential([1.0, 2.0]), 2)

    def test_sorted_output(self):
        eigs = truncated_eigenvalues(validate_potential([3.0, -1.0]), 50)
        assert np.all(np.diff(eigs) >= 0)


class TestOracleBoundStates:
    def test_single_bound_state_energy(self):
        # V = [2] has the single bound state at lambda = 4.5
        out = oracle_bound_states(validate_potential([2.0]), M=200)
        assert len(out) == 1
        assert out[0] == pytest.approx(4.5, abs=1e-10)

    def test_free_operator_has_none(self):
        assert oracle_bound_states(validate_potential([]), M=100) == []

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            oracle_bound_states(validate_potential([2.0]), margin=0.0)

    def test_equals_filtered_full_spectrum(self):
        # out-of-band bisection must reproduce the strictly filtered full
        # spectrum of the same truncation
        rng = np.random.default_rng(23)
        potentials = []
        for _ in range(50):
            vals = rng.uniform(-3, 3, int(rng.integers(1, 21)))
            if vals[-1] == 0.0:
                vals[-1] = 1.0
            potentials.append(validate_potential(list(vals)))
        potentials += [alternating_potential(b, 2.0) for b in (40, 110)]
        for V in potentials:
            out = oracle_bound_states(V)
            full = [
                x for x in truncated_eigenvalues(V, 800) if x < -1e-6 or x > 4.0 + 1e-6
            ]
            assert len(out) == len(full), list(V.values)
            assert np.max(np.abs(np.subtract(out, full)), initial=0.0) <= 1e-12

    def test_agrees_with_polynomial_pipeline(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            b = int(rng.integers(1, 7))
            vals = rng.uniform(-3, 3, b)
            if abs(vals[-1]) < 1e-3:
                vals[-1] = -1.0
            V = validate_potential(list(vals))
            rep = analyze(V, NumericConfig())
            lams = [bs.lam for bs in rep.bound_states if abs(bs.alpha) < 0.95]
            oracle = oracle_bound_states(V)
            rows = match_energies(lams, oracle)
            deltas = [d for _, _, d in rows if not math.isnan(d)]
            assert len(deltas) == len(lams)
            assert all(d < 1e-6 for d in deltas), list(vals)


class TestMatchEnergies:
    def test_exact_pairs(self):
        rows = match_energies([4.5, -1.0], [-1.0 + 1e-9, 4.5])
        assert [r[0] for r in rows] == [-1.0, 4.5]
        assert all(d < 1e-8 for _, _, d in rows)

    def test_unmatched_root(self):
        rows = match_energies([4.5], [])
        assert math.isnan(rows[0][2])

    def test_unmatched_oracle(self):
        rows = match_energies([], [4.5])
        assert math.isnan(rows[0][0])

    def test_unpartnered_root_takes_no_partner(self):
        V = validate_potential(EDGE_STATE)
        roots = bound_state_scan(V, NumericConfig.extended())
        lams = [float(2 - z - 1 / z) for z in roots]
        oracle = oracle_bound_states(V)
        assert len(lams) == len(oracle) + 1
        rows = match_energies(lams, oracle)
        assert [r[0] for r in rows] == sorted(lams)
        unmatched = [r for r in rows if math.isnan(r[2])]
        assert len(unmatched) == 1
        assert abs(unmatched[0][0]) < 1e-6 and math.isnan(unmatched[0][1])
        assert all(d < 1e-12 for _, _, d in rows if not math.isnan(d))

    def test_unmatched_oracle_rows_last(self):
        rows = match_energies([4.5, -1.0], [5.0, -1.0, 4.5])
        assert [r[0] for r in rows[:2]] == [-1.0, 4.5]
        assert [r[2] for r in rows[:2]] == [0.0, 0.0]
        assert math.isnan(rows[2][0]) and rows[2][1] == 5.0
