import math

import numpy as np
import pytest
from scipy import special

import oracles
from planaratom import specfun as sf

# Frozen oracle values (see oracles.py for the independent routes).
K0_AT_1 = 0.4210244382407083  # integral representation, adaptive quadrature
K0_AT_5 = 0.0036910983340425934


def k0(x: float) -> float:
    return float(sf.bessel_k0_array(np.array([x]))[0])


class TestK0:
    def test_spot_values_against_quadrature(self):
        assert k0(1.0) == pytest.approx(K0_AT_1, rel=1e-13)
        assert k0(5.0) == pytest.approx(K0_AT_5, rel=1e-13)

    def test_small_argument_log_behavior(self):
        # K0(x) -> -ln(x/2) - gamma as x -> 0+
        for x in (1e-8, 1e-10, 1e-12):
            combo = k0(x) + math.log(x / 2.0) + sf.EULER_GAMMA
            assert abs(combo) < 1e-14

    def test_quadrature_oracle_over_range(self):
        xs = np.logspace(-6, math.log10(50.0), 160)
        for x, value in zip(xs, sf.bessel_k0_array(xs)):
            ref = oracles.k0_quadrature(float(x))
            assert value == pytest.approx(ref, rel=1e-12)

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
        "x, series",
        [(1.5, True), (2.0, True), (math.nextafter(2.0, 3.0), False), (2.5, False)],
    )
    def test_switch_point_belongs_to_the_series(self, x, series):
        xb = np.array([x])
        expected = sf._k0_series_array(xb) if series else special.k0(xb)
        assert sf.bessel_k0_array(xb)[0] == expected[0]

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

    def test_leading_asymptotic_band(self):
        for x in np.linspace(10.0, 650.0, 60):
            scaled = sf.bessel_k0_array(np.array([x]))[0] * math.sqrt(
                2.0 * x / math.pi
            ) * math.exp(x)
            assert 1.0 - 1.0 / (8.0 * x) - 0.01 <= scaled <= 1.0

    def test_underflow_past_x_max(self):
        # X_MAX itself is still evaluated; only arguments past it underflow
        assert k0(sf.X_MAX + 1.0) == 0.0
        assert k0(800.0) == 0.0
        assert k0(sf.X_MAX) > 0.0
        assert k0(sf.X_MAX - 1.0) > 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            sf.bessel_k0_array(np.array([bad]))

    def test_array_domain_errors(self):
        with pytest.raises(ValueError):
            sf.bessel_k0_array(np.array([1.0, -2.0]))


class TestK0Blocks:
    """``bessel_k0_array`` in blocks of ``_K0_BLOCK`` against the whole-array form."""

    @staticmethod
    def same_bits(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("extra", [-1, 0, 1, sf._K0_BLOCK + 5])
    def test_sorted_grid_across_block_boundaries(self, extra):
        # a grid's arguments: the series, the switch point and scipy's regime meet
        # in the middle of a block, and the last block is short or full
        x = np.linspace(1e-3, 5.0, 2 * sf._K0_BLOCK + extra)
        assert self.same_bits(sf.bessel_k0_array(x), oracles.bessel_k0_unblocked(x))

    def test_regimes_mixed_inside_blocks(self):
        # small, large and underflowing arguments interleaved, unsorted, so each
        # block runs its masks; the early stop of each block's series is set by that
        # block's own largest argument
        rng = np.random.default_rng(7)
        n = 3 * sf._K0_BLOCK + 11
        x = np.concatenate([
            2.0 * np.exp(-40.0 * rng.random(n // 3)),
            rng.uniform(2.0, sf.X_MAX, n // 3),
            rng.uniform(sf.X_MAX, 2e3, n - 2 * (n // 3)),
        ])
        x[:4] = (2.0, np.nextafter(2.0, 3.0), sf.X_MAX, np.nextafter(sf.X_MAX, 1e3))
        rng.shuffle(x)
        assert self.same_bits(sf.bessel_k0_array(x), oracles.bessel_k0_unblocked(x))

    def test_blocks_with_only_small_arguments_near_zero(self):
        # the series stops after a few terms on these blocks, earlier than on the whole
        x = np.concatenate([np.geomspace(1e-12, 1e-3, sf._K0_BLOCK), np.linspace(1e-3, 2.0, 9)])
        assert self.same_bits(sf.bessel_k0_array(x), oracles.bessel_k0_unblocked(x))

    def test_two_dimensional_and_strided_input(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(1e-6, 10.0, (5, sf._K0_BLOCK // 2 + 3))
        for view in (x, x.T, x[:, ::-3]):
            assert self.same_bits(sf.bessel_k0_array(view), oracles.bessel_k0_unblocked(view))

    def test_scalar_shaped_input(self):
        out = sf.bessel_k0_array(np.float64(1.0))
        assert out.shape == () and out == sf.bessel_k0_array(np.array([1.0]))[0]
        assert sf.bessel_k0_array(np.array([])).shape == (0,)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_entry_in_last_block_raises(self, bad):
        x = np.linspace(0.1, 5.0, 2 * sf._K0_BLOCK + 3)
        x[-1] = bad
        with pytest.raises(ValueError, match="positive finite"):
            sf.bessel_k0_array(x)
