import dataclasses
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticejost.core import (
    NumericConfig,
    Potential,
    SpectralPoint,
    lambda_to_z,
    load_potential,
    validate_potential,
    z_to_lambda,
)
from latticejost.errors import TrailingZeroError, ZeroArgumentError


class TestValidatePotential:
    def test_single_entry(self):
        pot = validate_potential([2.0])
        assert pot.b == 1
        assert pot.values == (2.0,)

    def test_trailing_zero_rejected(self):
        with pytest.raises(TrailingZeroError):
            validate_potential([1.0, 0.0])

    def test_trivial_potential(self):
        pot = validate_potential([])
        assert pot.b == 0

    def test_interior_zero_allowed(self):
        assert validate_potential([0.0, 1.0]).b == 2

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            validate_potential([math.inf])


class TestSpectralMap:
    def test_band_edges_exact(self):
        assert lambda_to_z(0.0) == 1.0
        assert lambda_to_z(4.0) == -1.0

    def test_above_band(self):
        # solve z + 1/z = 2 - lambda at lambda = 4.5 with |z| <= 1
        z = lambda_to_z(4.5)
        assert abs(z - (-0.5)) < 1e-14

    @pytest.mark.parametrize("lam", [1e4, 1e8, 1e12, 1e300, -1e300])
    def test_far_from_the_band(self, lam):
        # the disk root of z^2 - (2 - lam) z + 1 at 700 digits, where
        # 1 - lam/2 + sqrt(lam (lam - 4))/2 cancels in double above the band
        with mpmath.workdps(700):
            big = 1 - mpmath.mpf(lam) / 2
            root = big + mpmath.sqrt(big**2 - 1) * (1 if lam > 4 else -1)
            ref = float(root)
        z = lambda_to_z(lam)
        assert z.imag == 0.0
        assert abs(z.real - ref) <= 2 * math.ulp(ref)

    def test_z_to_lambda_hand_values(self):
        assert z_to_lambda(complex(1.0)) == 0.0
        assert z_to_lambda(complex(-1.0)) == 4.0
        assert abs(z_to_lambda(0.5) - (-0.5)) < 1e-14

    def test_zero_argument(self):
        with pytest.raises(ZeroArgumentError):
            z_to_lambda(0.0)

    @pytest.mark.parametrize(
        "z", [1 - 2.0**-30, 0.9999999, 1 + 2.0**-40, 1.0000001, 0.5, -0.3, 3.0, -1e-200]
    )
    def test_z_to_lambda_near_edge_against_exact(self, z):
        # 2 - z - 1/z cancels near z = 1: it gave 0.0 at 1 - 2^-30
        exact = 2 - Fraction(z) - 1 / Fraction(z)
        lam = z_to_lambda(z)
        assert abs(Fraction(lam) - exact) <= 2**-51 * abs(exact)

    @given(st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=300)
    def test_round_trip(self, lam):
        back = z_to_lambda(lambda_to_z(lam))
        assert abs(back - lam) < 1e-12

    @given(st.floats(min_value=-50.0, max_value=-1e-6))
    def test_below_band_maps_into_0_1(self, lam):
        z = lambda_to_z(lam)
        assert abs(z.imag) < 1e-15
        assert 0.0 < z.real < 1.0

    @given(st.floats(min_value=4.0 + 1e-6, max_value=60.0))
    def test_above_band_maps_into_m1_0(self, lam):
        z = lambda_to_z(lam)
        assert abs(z.imag) < 1e-15
        assert -1.0 < z.real < 0.0

    @given(st.floats(min_value=1e-6, max_value=4.0 - 1e-6))
    def test_band_maps_to_upper_semicircle(self, lam):
        z = lambda_to_z(lam)
        assert abs(abs(z) - 1.0) < 1e-12
        assert z.imag > 0.0

    def test_spectral_point_constructors(self):
        pt = SpectralPoint.from_lambda(-1.0)
        assert abs(z_to_lambda(pt.z) - pt.lam) < 1e-12
        with pytest.raises(ZeroArgumentError):
            SpectralPoint(0.0, 1.0)


class TestNumericConfig:
    def test_defaults(self):
        cfg = NumericConfig()
        assert cfg.tau_real == 1e-9
        assert cfg.tau_cluster == 1e-6
        assert not cfg.is_extended

    def test_extended_scaling(self):
        cfg = NumericConfig.extended()
        assert cfg == NumericConfig("extended")
        assert cfg.is_extended
        assert cfg.tau_real == 1e-9 * 1e-10
        assert cfg.tau_cluster == 1e-6 * 1e-10
        # the report's config block prints these
        assert (repr(cfg.tau_real), repr(cfg.tau_cluster)) == ("1.0000000000000001e-19", "1e-16")

    def test_invalid_thresholds(self):
        # the precision sets the thresholds, so none can be set wrong
        cfg = NumericConfig()
        for name in ("tau_real", "tau_cluster"):
            with pytest.raises(AttributeError):
                setattr(cfg, name, 1e-3)
        with pytest.raises(ValueError):
            NumericConfig(precision_mode="quad")

    def test_no_edge_threshold(self):
        # the exact f0(+-1) decides the edge zeros, and the precision sets
        # the other thresholds, so no threshold is settable
        assert [f.name for f in dataclasses.fields(NumericConfig)] == ["precision_mode"]
        for name in ("tau_edge", "tau_real", "tau_cluster"):
            with pytest.raises(TypeError):
                NumericConfig(**{name: 1e-4})


class TestLoadPotential:
    def test_json_file(self, tmp_path):
        f = tmp_path / "v.json"
        f.write_text("[1.0, 2.5]")
        assert load_potential(f).values == (1.0, 2.5)

    def test_lines_file(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("1.0\n2.5\n")
        assert load_potential(f).values == (1.0, 2.5)

    def test_inline_json(self):
        assert load_potential("[2]").values == (2.0,)

    def test_empty(self):
        assert load_potential("[]").b == 0

    @pytest.mark.parametrize(
        "text", ["[null]", "[[1, 2]]", '[{"a": 1}]', "[true, 2]", '["2"]', "{}"]
    )
    def test_json_entries_must_be_numbers(self, text):
        with pytest.raises(ValueError, match="potential JSON must be an array of reals"):
            load_potential(text)

    def test_json_int_beyond_double_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            load_potential("[1" + "0" * 400 + "]")
