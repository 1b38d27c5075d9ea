import math
import sys

import numpy as np
import pytest

import oracles
from conftest import make_problem
from planaratom import model as md
from planaratom.specfun import bessel_k0_array

# Reduced-mass ratios as tabulated in the reference study.
TABLE_ZETA = {
    "pe": 0.99946,
    "de": 0.99973,
    "te": 0.99982,
    "pmu": 185.84083,
    "dmu": 195.74163,
    "tmu": 199.27259,
}

# -(1/pi) K0(2e-5 * 137.0356) - 1/4, K0 from the quadrature oracle.
CS_EXAMPLE_U = -2.1647874633883673


class TestAtoms:
    @pytest.mark.parametrize("name,zeta", sorted(TABLE_ZETA.items()))
    def test_zeta_matches_reference_table(self, name, zeta):
        assert md.make_atom(name).zeta == pytest.approx(zeta, rel=1e-5)

    def test_equal_masses_halve(self):
        atom = md.AtomSpec("x", 3.7, 3.7)
        assert atom.zeta == pytest.approx(3.7 / 2, rel=1e-15)

    def test_zeta_below_orbiter_mass(self):
        for name in md.ATOM_NAMES:
            a = md.make_atom(name)
            assert 0.0 < a.zeta < a.orbiter_mass

    def test_unknown_atom(self):
        with pytest.raises(ValueError, match="unknown atom"):
            md.make_atom("xe")

    @pytest.mark.parametrize("orbiter,nucleus", [(0.0, 1.0), (1.0, -1.0)])
    def test_mass_not_positive(self, orbiter, nucleus):
        with pytest.raises(ValueError, match="masses must be positive"):
            md.AtomSpec("x", orbiter, nucleus)


class TestPotentialSpec:
    def test_lambda_required_for_k0_kinds(self):
        with pytest.raises(ValueError, match="lambda"):
            md.PotentialSpec("chern_simons")

    def test_lambda_forbidden_for_coulomb(self):
        with pytest.raises(ValueError, match="no lambda"):
            md.PotentialSpec("coulomb3d", 2e-5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown potential kind 'coulomb4d'"):
            md.PotentialSpec("coulomb4d")

    @pytest.mark.parametrize("ell", [-1, 1.5])
    def test_ell_not_a_non_negative_integer(self, ell):
        with pytest.raises(ValueError, match="ell must be a non-negative integer"):
            make_problem("pe", "coulomb3d", ell=ell)

    def test_dimension(self):
        assert md.PotentialSpec("coulomb3d").dimension == 3
        assert md.PotentialSpec("coulomb2d").dimension == 2
        assert md.PotentialSpec("chern_simons", 1e-5).dimension == 2
        assert md.PotentialSpec("chern_simons_jordan", 1e-5).dimension == 2

    def test_centrifugal_coefficient(self):
        assert make_problem("pe", "coulomb3d", ell=2).centrifugal_coefficient == 6.0
        assert make_problem("pe", "coulomb2d", ell=0).centrifugal_coefficient == -0.25
        assert make_problem("pe", "chern_simons", 2e-5, ell=1).centrifugal_coefficient == 0.75


class TestEffectivePotential:
    def test_coulomb3d_example(self):
        p = md.EffectivePotentialParams(md.PotentialSpec("coulomb3d"), md.AtomSpec("z1", 1.0, 1e30))
        assert md.effective_potential(p, 1.0) == pytest.approx(-2.0, rel=1e-12)

    def test_coulomb2d_example(self):
        p = md.EffectivePotentialParams(md.PotentialSpec("coulomb2d"), md.AtomSpec("z1", 1.0, 1e30))
        assert md.effective_potential(p, 2.0) == pytest.approx(-1.0625, rel=1e-12)

    def test_chern_simons_example(self):
        p = md.EffectivePotentialParams(
            md.PotentialSpec("chern_simons", 2e-5), md.AtomSpec("z1", 1.0, 1e30)
        )
        assert md.effective_potential(p, 1.0) == pytest.approx(CS_EXAMPLE_U, rel=1e-12)

    def test_coulomb3d_scales_with_the_atom(self):
        p = make_problem("pe", "coulomb3d")
        sqrt_zeta = math.sqrt(md.make_atom("pe").zeta)
        u = md.effective_potential(p, np.array([1.0, 2.0]))
        assert u[0] == pytest.approx(-2.0 * sqrt_zeta, rel=1e-11)
        assert u[1] == pytest.approx(-sqrt_zeta, rel=1e-11)

    def test_coulomb3d_pe_printed_values(self):
        u = md.effective_potential(make_problem("pe", "coulomb3d"), np.array([1.0, 1.5, 2.0]))
        assert [f"{v:.12g}" for v in u] == ["-1.99945560533", "-1.33297040356", "-0.999727802667"]

    def test_k0_kind_below_centrifugal_only(self):
        rho = np.linspace(0.5, 20.0, 40)
        u = md.effective_potential(make_problem("pe", "chern_simons", 2e-5, ell=1), rho)
        assert np.all(u < (1.0 - 0.25) / (rho * rho))

    def test_origin_signs(self):
        # repulsive centrifugal barrier dominates when its coefficient is
        # positive; otherwise the potential dives negative
        assert md.effective_potential(make_problem("pe", "coulomb3d", ell=1), 1e-6) > 0
        assert md.effective_potential(make_problem("pe", "chern_simons", 2e-5, ell=1), 1e-6) > 0
        assert md.effective_potential(make_problem("pe", "coulomb3d", ell=0), 1e-6) < 0
        assert md.effective_potential(make_problem("pe", "coulomb2d", ell=0), 1e-6) < 0
        assert md.effective_potential(make_problem("pe", "chern_simons", 2e-5, ell=0), 1e-6) < 0

    def test_far_tail_vanishes(self):
        for problem in (
            make_problem("pe", "coulomb3d"),
            make_problem("pe", "coulomb2d"),
            make_problem("pe", "chern_simons", 2e-5),
            make_problem("pe", "chern_simons_jordan", 2e-4),
        ):
            assert abs(md.effective_potential(problem, 1e4)) < 1e-3

    def test_zeta_dependence_isolated_to_k0_argument(self):
        # for l = 0 the centrifugal parts cancel exactly between atoms
        lam = 2e-5
        pa = make_problem("pe", "chern_simons", lam)
        pb = make_problem("pmu", "chern_simons", lam)
        rho = np.logspace(-2, 1.5, 50)
        lhs = np.abs(
            np.asarray(md.effective_potential(pa, rho))
            - np.asarray(md.effective_potential(pb, rho))
        )
        rhs = (1.0 / math.pi) * np.abs(
            bessel_k0_array(pa.k0_argument_scale * rho)
            - bessel_k0_array(pb.k0_argument_scale * rho)
        )
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=0.0)

    def test_monotone_in_lambda(self):
        rho = 3.0
        vals = [
            md.effective_potential(make_problem("pe", "chern_simons", lam), rho)
            for lam in (2e-6, 5e-6, 2e-5, 5e-5, 2e-4)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            md.effective_potential(make_problem("pe", "coulomb3d"), 0.0)
        with pytest.raises(ValueError):
            md.effective_potential(make_problem("pe", "coulomb3d"), -1.0)

    @pytest.mark.parametrize("kind", ["chern_simons", "chern_simons_jordan"])
    def test_lambda_whose_k0_argument_scale_overflows_rejected(self, kind):
        assert make_problem("tmu", kind, 1.3e306).k0_argument_scale < math.inf
        # pe's sqrt(zeta), below 1, takes a finite lambda/alpha past a double
        assert 1.3117e306 * md.INV_ALPHA < math.inf
        with pytest.raises(ValueError, match=r"lambda=1.3117e\+306 overflows K0's argument scale"):
            make_problem("pe", kind, 1.3117e306)

    def test_k0_argument_capped_past_x_max(self):
        # lambda 1e300 puts K0's argument past a double from rho = 1.3e6 on: K0 is 0
        # there, and the potential is the centrifugal term
        rho = np.array([1e-3, 1.0, 1e7, 1e150])
        problem = make_problem("pe", "chern_simons", 1e300)
        assert np.array_equal(md.effective_potential(problem, rho), -0.25 / (rho * rho))
        # below the cap every value keeps the bits of the uncapped product
        problem = make_problem("pe", "chern_simons_jordan", 2e-4)
        rho = np.geomspace(1e-3, 1e8, 2001)
        k0 = bessel_k0_array(rho * problem.k0_argument_scale)
        expected = -0.25 / (rho * rho) - problem.k0_prefactor * k0
        assert np.array_equal(md.effective_potential(problem, rho), expected)

    @pytest.mark.parametrize("kind", ["chern_simons", "chern_simons_jordan"])
    def test_lambda_whose_k0_argument_scale_is_subnormal_rejected(self, kind):
        with pytest.raises(ValueError, match=r"lambda=4.94066e-324 underflows K0's argument scale"):
            make_problem("pmu", kind, 5e-324)
        with pytest.raises(ValueError, match="underflows K0's argument scale"):
            make_problem("pe", kind, 1e-310)
        # just above the thresholds, about 1.6e-310 for pe and 2.3e-309 for tmu
        assert make_problem("pe", kind, 1e-309).k0_argument_scale > sys.float_info.min
        assert make_problem("tmu", kind, 2.3e-309).k0_argument_scale > sys.float_info.min

    def test_k0_argument_floored_where_rho_times_scale_underflows(self):
        # rho times the scale, 1.37e-298, rounds to 0 below rho = 1.8e-26, which
        # bessel_k0 rejects: the argument is floored at twice the smallest subnormal
        problem = make_problem("pe", "chern_simons", 1e-300)
        rho = np.array([1e-40, 1e-30, 1e-20, 1.0])
        u = md.effective_potential(problem, rho)
        k0_floor = bessel_k0_array(np.array([1e-323]))
        assert np.all(np.isfinite(u))
        assert np.array_equal(u[:2], -0.25 / (rho[:2] * rho[:2]) - problem.k0_prefactor * k0_floor)
        # above the floor every value keeps the bits of the unclipped product
        k0 = bessel_k0_array(rho[2:] * problem.k0_argument_scale)
        assert np.array_equal(u[2:], -0.25 / (rho[2:] * rho[2:]) - problem.k0_prefactor * k0)

    def test_scalar_rho_gives_a_0d_array(self):
        u = md.effective_potential(make_problem("pe", "chern_simons", 2e-5), 2.0)
        assert isinstance(u, np.ndarray) and u.shape == ()
        assert u == md.effective_potential(make_problem("pe", "chern_simons", 2e-5), [2.0])[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rho_rejected(self, bad):
        # one bad entry fails the whole array, before any K0 is evaluated
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            md.effective_potential(make_problem("pe", "chern_simons", 2e-5),
                                   np.array([1.0, bad, 2.0]))


class TestJordanGap:
    @pytest.mark.parametrize(
        "lam,expected",
        [(2e-5, 2.7407e-3), (2e-4, 2.7407e-2), (2e-3, 2.7407e-1)],
    )
    def test_gap_values(self, lam, expected):
        gap = md.jordan_variant_gap(make_problem("pe", "chern_simons", lam))
        assert gap == pytest.approx(lam * md.INV_ALPHA, rel=1e-15)
        assert gap == pytest.approx(expected, rel=1e-4)

    def test_rejects_coulomb(self):
        with pytest.raises(ValueError):
            md.jordan_variant_gap(make_problem("pe", "coulomb3d"))


class TestUnits:
    def test_lambda_from_ev(self):
        assert md.lambda_from_ev(md.ELECTRON_MASS_EV) == pytest.approx(1.0, rel=1e-15)
        assert md.lambda_from_ev(10.0) == pytest.approx(10.0 / 510998.95, rel=1e-12)

    def test_inverse_alpha_is_the_quoted_value(self):
        assert md.INV_ALPHA == 137.0356
