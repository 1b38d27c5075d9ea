import math

import numpy as np
import pytest
from scipy import special

import oracles
from planaratom import specfun as sf

# Frozen oracle values (see oracles.py for the independent routes).
K0_AT_1 = 0.4210244382407083  # integral representation, adaptive quadrature
K0_AT_5 = 0.0036910983340425934


class TestK0:
    def test_spot_values_against_quadrature(self):
        assert sf.bessel_k0_eval(1.0).value == pytest.approx(K0_AT_1, rel=1e-13)
        assert sf.bessel_k0_eval(5.0).value == pytest.approx(K0_AT_5, rel=1e-13)

    def test_small_argument_log_behavior(self):
        # K0(x) -> -ln(x/2) - gamma as x -> 0+
        for x in (1e-8, 1e-10, 1e-12):
            combo = sf.bessel_k0_eval(x).value + math.log(x / 2.0) + sf.EULER_GAMMA
            assert abs(combo) < 1e-14

    def test_quadrature_oracle_over_range(self):
        xs = np.logspace(-6, math.log10(50.0), 160)
        for x in xs:
            ref = oracles.k0_quadrature(float(x))
            assert sf.bessel_k0_eval(float(x)).value == pytest.approx(ref, rel=1e-12)

    def test_positive_and_strictly_decreasing(self):
        xs = np.logspace(-5, 2.5, 400)
        vals = sf.bessel_k0_array(xs)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_regime_boundary_continuity(self):
        xb = np.array([2.0])
        left = sf._k0_series_array(xb)[0]
        right = special.k0(xb)[0]
        assert abs(left - right) / left <= 1e-12

    @pytest.mark.parametrize(
        "n, x_max", [(1, 2.0), (8193, 2.0), (200001, 2.0), (8193, 0.3), (200001, 0.02)]
    )
    def test_series_equals_full_sum_bitwise(self, n, x_max):
        # the early stop must not move a single bit, wherever the largest argument
        # sets it (after term 11 at x_max 2, 6 at 0.3, 4 at 0.02)
        rng = np.random.default_rng(n)
        x = x_max * np.exp(-30.0 * rng.random(n))  # log-uniform in (0, x_max]
        x[0] = x_max
        assert np.array_equal(sf._k0_series_array(x), oracles.k0_series_full(x))

    def test_regime_reported(self):
        assert sf.bessel_k0_eval(1.5).regime == "series"
        assert sf.bessel_k0_eval(2.5).regime == "asymptotic"

    def test_leading_asymptotic_band(self):
        for x in np.linspace(10.0, 650.0, 60):
            scaled = sf.bessel_k0_array(np.array([x]))[0] * math.sqrt(
                2.0 * x / math.pi
            ) * math.exp(x)
            assert 1.0 - 1.0 / (8.0 * x) - 0.01 <= scaled <= 1.0

    def test_underflow_flag(self):
        ev = sf.bessel_k0_eval(sf.X_MAX + 1.0)
        assert ev.value == 0.0
        assert ev.underflow
        below = sf.bessel_k0_eval(sf.X_MAX - 1.0)
        assert below.value > 0.0
        assert not below.underflow

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            sf.bessel_k0_eval(bad)

    def test_array_domain_errors(self):
        with pytest.raises(ValueError):
            sf.bessel_k0_array(np.array([1.0, -2.0]))
