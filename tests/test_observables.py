import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson

from conftest import make_problem
from planaratom import model as md
from planaratom import numerov as nv
from planaratom import observables as ob


def wf_from(u, grid, energy=-1.0):
    # norm_squared ignores the energy; mean_radius builds the origin series at it
    return nv.WaveFunction(grid=grid, u=np.asarray(u, dtype=float), energy=energy)


class TestNormalize:
    # the solver normalizes every wavefunction it returns with nv._normalize_samples
    grid = nv.RadialGrid(1e-6, 20.0, 20001)

    def normalize(self, u):
        return nv._normalize_samples(np.asarray(u, dtype=float), self.grid.step)

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
        assert abs(ob.norm_squared(wf_from(u, grid)) - 1.0) < 1e-12
        exact_nsq = 0.5 * (math.exp(-2 * grid.rho_min) - math.exp(-2 * grid.rho_max))
        assert np.allclose(u, np.exp(-rho) / math.sqrt(exact_nsq), rtol=1e-10)

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
        assert r.dimension == 3

    @pytest.mark.parametrize("atom", ["pe", "pmu", "tmu"])
    def test_2d_closed_form(self, atom, solve_cached):
        problem, res, wf = solve_cached(atom, "coulomb2d")
        r = ob.mean_radius(wf, problem)
        assert r.mean_r_bohr == pytest.approx(0.5 / problem.atom.zeta, rel=1e-6)
        assert r.dimension == 2

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
        # u ~ sqrt(rho) e^(-2 rho) has <rho> = 1/2 analytically (zeta = 1)
        z1 = md.AtomSpec("z1", 1.0, 1e30)
        problem = md.EffectivePotentialParams(md.PotentialSpec("coulomb2d"), z1)
        grid = nv.RadialGrid(4e-3, 10.0, 50001)
        rho = grid.points()
        u = np.sqrt(rho) * np.exp(-2.0 * rho)
        u /= np.sqrt(simpson(u * u, dx=grid.step))
        r = ob.mean_radius(wf_from(u, grid, energy=-4.0), problem)
        assert r.mean_rho == pytest.approx(0.5, rel=1e-6)

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
