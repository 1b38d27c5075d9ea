import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson

import oracles
from conftest import make_problem
from planaratom import model as md
from planaratom import numerov as nv
from planaratom import observables as ob


def wf_from(u, grid, energy=-1.0):
    return nv.WaveFunction(grid=grid, u=np.asarray(u, dtype=float), energy=energy)


class TestSimpson:
    """``nv.simpson_u2`` against ``scipy.integrate.simpson``, the oracle."""

    @pytest.mark.parametrize("n", [3, 4, 1001, 1002, 200001])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_scipy(self, n, weighted):
        rng = np.random.default_rng(n)
        u = rng.standard_normal(n)
        rho = np.linspace(0.5, 7.0, n)
        h = (7.0 - 0.5) / (n - 1)
        ref = simpson(rho * u * u if weighted else u * u, dx=h)
        # the sums differ only in their order of rounding (measured within 1e-15)
        got = nv.simpson_u2(u, h, rho if weighted else None)
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_exact_on_quadratics(self):
        # Simpson's rule and scipy's end correction for an even number of samples
        # both integrate a quadratic exactly
        for n in (3, 4, 11, 12):
            rho = np.linspace(0.0, 2.0, n)
            h = 2.0 / (n - 1)
            assert nv.simpson_u2(1.0 + rho, h) == pytest.approx(26.0 / 3.0, rel=1e-14)
            assert nv.simpson_u2(np.full(n, 3.0), h, rho) == pytest.approx(18.0, rel=1e-14)


class TestNormalize:
    # the solver turns every phi = u/sqrt(rho) it returns into u with
    # nv._normalize_samples, normalized to int u^2 drho = int rho u^2 d(ln rho) = 1
    grid = nv.RadialGrid(1e-6, 20.0, 20001)

    def normalize(self, u, grid=grid):
        rho = grid.points()
        return nv._normalize_samples(np.asarray(u, dtype=float) / np.sqrt(rho), grid.step, rho)

    def test_scaling_removed(self):
        rho = self.grid.points()
        base = self.normalize(rho * np.exp(-rho))
        doubled = self.normalize(2.0 * base)
        assert np.allclose(doubled, base, rtol=1e-14, atol=0.0)

    def test_sign_convention(self):
        rho = self.grid.points()
        base = self.normalize(rho * np.exp(-rho))
        flipped = self.normalize(-base)
        assert np.allclose(flipped, base, rtol=1e-14, atol=0.0)
        assert flipped[np.argmax(np.abs(flipped))] > 0.0

    def test_exponential_profile_norm(self):
        # int e^(-2 rho) over the grid span has the closed form
        # (e^(-2 rho_min) - e^(-2 rho_max)) / 2; Simpson must match it
        grid = self.grid
        rho = grid.points()
        u = self.normalize(np.exp(-rho))
        assert abs(nv.simpson_u2(u, grid.step, rho) - 1.0) < 1e-12
        exact_nsq = 0.5 * (math.exp(-2 * grid.rho_min) - math.exp(-2 * grid.rho_max))
        assert np.allclose(u, np.exp(-rho) / math.sqrt(exact_nsq), rtol=1e-10)

    # (samples, whether the first lobe is negative, so that normalizing flips them)
    FIRST_LOBES = {
        "negative first lobe": (lambda r: -r * (2.0 - r) * np.exp(-r), True),
        # a dip 5% of the peak deep comes first and sets the sign
        "dip past the cut": (lambda r: r * r * np.exp(-r) - 2.2 * r * np.exp(-30.0 * r), True),
        # one 0.5% deep lies under the 1% cut and does not
        "dip under the cut": (lambda r: r * r * np.exp(-r) - 0.22 * r * np.exp(-30.0 * r), False),
        "all negative": (lambda r: -r * np.exp(-r), True),
    }

    @pytest.mark.parametrize("case", FIRST_LOBES)
    @pytest.mark.parametrize("n_points", [20001, 20002])
    def test_matches_scipy_normalization(self, case, n_points):
        grid = replace(self.grid, n_points=n_points)
        shape, flips = self.FIRST_LOBES[case]
        rho = grid.points()
        u = shape(rho)
        got = self.normalize(u, grid)
        ref = oracles.normalize_samples_scipy(u, grid.step, rho)
        peak = np.argmax(np.abs(u))
        assert bool(got[peak] * u[peak] < 0.0) == flips
        assert nv.count_nodes(got) == nv.count_nodes(ref)
        # the two norms differ in their rounding only: one factor, measured within
        # 2e-15 (17 ulps at most on these samples)
        assert np.allclose(got, ref, rtol=4e-15, atol=0.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(nv.NormalizationError):
            self.normalize(np.zeros(self.grid.n_points))


class TestMeanRadius:
    @pytest.mark.parametrize("atom", ["pe", "de", "te", "pmu", "dmu", "tmu"])
    def test_3d_closed_form(self, atom, solve_cached):
        problem, res, wf = solve_cached(atom, "coulomb3d")
        r = ob.mean_radius(wf, problem)
        exact = 1.5 / problem.atom.zeta
        assert r.mean_r_bohr == pytest.approx(exact, rel=1e-6)
        assert r.mean_r_bohr == pytest.approx(r.mean_rho / problem.atom.sqrt_zeta, rel=1e-15)

    @pytest.mark.parametrize("atom", ["pe", "pmu", "tmu"])
    def test_2d_closed_form(self, atom, solve_cached):
        problem, res, wf = solve_cached(atom, "coulomb2d")
        r = ob.mean_radius(wf, problem)
        assert r.mean_r_bohr == pytest.approx(0.5 / problem.atom.zeta, rel=1e-6)

    @pytest.mark.parametrize("atom", ["pe", "pmu", "tmu"])
    def test_k0_radius_is_largest(self, atom, solve_cached):
        problem_cs, _, wf_cs = solve_cached(atom, "chern_simons", 2e-5)
        r_cs = ob.mean_radius(wf_cs, problem_cs).mean_r_bohr
        zeta = problem_cs.atom.zeta
        assert r_cs > 1.5 / zeta
        assert r_cs > 0.5 / zeta

    def test_tmu_ratio_near_reference_claim(self, solve_cached):
        problem_cs, _, wf_cs = solve_cached("tmu", "chern_simons", 2e-5)
        r_cs = ob.mean_radius(wf_cs, problem_cs).mean_r_bohr
        ratio = r_cs / (1.5 / problem_cs.atom.zeta)
        # the original study quotes "about 25 times greater"
        assert 24.5 * 0.8 <= ratio <= 24.5 * 1.2

    def test_unnormalized_rejected(self, solve_cached):
        problem, res, wf = solve_cached("pe", "coulomb3d")
        bad = replace(wf, u=2.0 * wf.u)
        with pytest.raises(ValueError, match="normalized"):
            ob.mean_radius(bad, problem)

    def test_exact_profile_2d(self):
        # u ~ sqrt(rho) e^(-2 rho) has <rho> = 1/2 analytically (zeta = 1); the grid
        # starts 1e-5 decay lengths out, as a default grid does, and below it lies
        # 2e-10 of the norm
        z1 = md.AtomSpec("z1", 1.0, 1e30)
        problem = md.EffectivePotentialParams(md.PotentialSpec("coulomb2d"), z1)
        grid = nv.RadialGrid(5e-6, 10.0, 4001)
        rho = grid.points()
        u = np.sqrt(rho) * np.exp(-2.0 * rho)
        u /= np.sqrt(simpson(rho * u * u, dx=grid.step))
        r = ob.mean_radius(wf_from(u, grid, energy=-4.0), problem)
        assert r.mean_rho == pytest.approx(0.5, rel=1e-6)

    @pytest.mark.parametrize("kind,lam", [("chern_simons", 2e-5), ("coulomb2d", None)])
    def test_allocates_the_points_and_little_else(self, solve_cached, kind, lam):
        problem, res, wf = solve_cached("pe", kind, lam)
        tracemalloc.start()
        try:
            ob.mean_radius(wf, problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the grid's points, one array, squared in place for the first moment:
        # against 2.5 arrays when rho u^2 was an array
        assert peak <= 1.1 * wf.u.nbytes

    def test_one_k0_pass_per_state(self, monkeypatch):
        # mean_radius reuses the solved energy; it evaluates no potential
        points = []
        k0 = md.bessel_k0_array

        def counting_k0(x):
            points.append(np.size(x))
            return k0(x)

        monkeypatch.setattr(md, "bessel_k0_array", counting_k0)
        problem = make_problem("pe", "chern_simons", 2e-5)
        grid = nv.default_grid(problem, 0, n_points=20001)
        _, wf = nv.solve_state(problem, 0, grid=grid)
        ob.mean_radius(wf, problem)
        assert sum(points) == 20001
