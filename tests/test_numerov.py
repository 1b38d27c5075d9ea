import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oracles
from conftest import make_problem
from planaratom import model as md
from planaratom import numerov as nv

Z1 = md.AtomSpec("z1", 1.0, 1e30)  # zeta exactly 1 in double precision


def z1_problem(kind, ell=0):
    return md.EffectivePotentialParams(md.PotentialSpec(kind), Z1, ell)


class TestRadialGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            nv.RadialGrid(0.0, 10.0, 2000)
        with pytest.raises(ValueError):
            nv.RadialGrid(5.0, 1.0, 2000)
        with pytest.raises(ValueError):
            nv.RadialGrid(1e-6, 10.0, 500)

    def test_uniform_points(self):
        g = nv.RadialGrid(0.1, 10.0, 1000)
        pts = g.points()
        assert pts[0] == 0.1 and pts[-1] == 10.0
        assert np.allclose(np.diff(pts), g.step, rtol=1e-12)

    def test_halved_step_nests(self):
        g = nv.RadialGrid(0.1, 10.0, 1001)
        g2 = g.halved_step()
        assert g2.n_points == 2001
        assert np.allclose(g2.points()[::2], g.points(), rtol=0, atol=1e-14)


class TestSweep:
    def test_exponential(self):
        # grid near the truncation/roundoff optimum of the recurrence
        grid = nv.RadialGrid(0.1, 5.0, 2001)
        rho = grid.points()
        u = nv.numerov_sweep(
            lambda r: -np.ones_like(r), grid, math.exp(rho[0]), math.exp(rho[1]), "outward"
        )
        assert np.max(np.abs(u / np.exp(rho) - 1.0)) < 1e-9

    def test_harmonic(self):
        grid = nv.RadialGrid(0.1, 10.0, 1001)
        rho = grid.points()
        u = nv.numerov_sweep(
            lambda r: np.ones_like(r), grid, math.sin(rho[0]), math.sin(rho[1]), "outward"
        )
        assert np.max(np.abs(u - np.sin(rho))) < 1e-9

    def test_inward_exponential(self):
        grid = nv.RadialGrid(0.1, 5.0, 2001)
        rho = grid.points()
        u = nv.numerov_sweep(
            lambda r: -np.ones_like(r),
            grid,
            math.exp(-rho[-1]),
            math.exp(-rho[-2]),
            "inward",
        )
        assert np.max(np.abs(u / np.exp(-rho) - 1.0)) < 1e-9

    def test_hydrogen_ground_state_profile(self):
        # outward sweep tracks rho*exp(-rho) until growing-mode
        # contamination takes over well past the turning point
        problem = z1_problem("coulomb3d")
        grid = nv.RadialGrid(1e-6, 30.0, 120001)
        rho = grid.points()
        seeds = oracles.hydrogen_ground_u(rho[:2], 1.0)
        u = nv.numerov_sweep(
            lambda r: -1.0 - np.asarray(md.effective_potential(problem, r)),
            grid,
            seeds[0],
            seeds[1],
            "outward",
        )
        inner = (rho > 0.05) & (rho < 4.0)
        exact = oracles.hydrogen_ground_u(rho, 1.0)
        assert np.max(np.abs(u[inner] / exact[inner] - 1.0)) < 1e-7

    def test_scan_matches_reference_loop(self):
        rng = np.random.default_rng(7)
        n = 3000
        g = 1.0 - 0.5 * np.linspace(0, 1, n) + 0.05 * rng.standard_normal(n)
        f = 1.0 + (0.01**2 / 12.0) * g
        fast = nv._sweep(f, 0.37, 0.38)
        slow = nv._sweep_loop(f, 0.37, 0.38)
        # both paths carry the same recurrence; they differ only by the
        # n^2 * eps roundoff floor of three-term recurrences
        assert np.allclose(fast, slow, rtol=1e-6, atol=1e-300)

    def test_deep_forbidden_region_renormalizes(self):
        # growth by thousands of e-folds must neither overflow nor crash
        n = 200001
        f = 1.0 + (0.05**2 / 12.0) * np.full(n, -9.0)  # g = -9, e^(3 rho) growth
        u = nv._sweep(f, 1e-3, 1e-3 * math.exp(0.15))
        assert np.all(np.isfinite(u))
        assert np.max(np.abs(u)) <= nv.RESCALE_THRESHOLD * 10

    def test_direction_token(self):
        grid = nv.RadialGrid(0.1, 5.0, 1000)
        with pytest.raises(ValueError, match="direction"):
            nv.numerov_sweep(lambda r: -np.ones_like(r), grid, 1.0, 1.0, "sideways")

    def test_nonfinite_g_rejected(self):
        grid = nv.RadialGrid(0.1, 5.0, 1000)
        with pytest.raises(ValueError, match="finite"):
            nv.numerov_sweep(lambda r: np.full_like(r, np.nan), grid, 1.0, 1.0, "outward")


class TestCountNodes:
    def test_nodeless_ground_state(self):
        rho = np.linspace(1e-3, 20.0, 5000)
        assert nv.count_nodes(oracles.hydrogen_ground_u(rho, 1.0)) == 0

    def test_sine_on_window(self):
        rho = np.linspace(0.1, 10.0, 5000)
        assert nv.count_nodes(np.sin(rho)) == 3

    def test_first_excited(self):
        rho = np.linspace(1e-3, 30.0, 5000)
        assert nv.count_nodes(oracles.hydrogen_first_excited_u(rho)) == 1

    def test_exact_zero_counts_once(self):
        assert nv.count_nodes(np.array([0.5, 1.0, 0.0, -1.0, -0.5])) == 1
        assert nv.count_nodes(np.array([0.5, 1.0, 0.0, 1.0, 0.5])) == 0

    def test_endpoints_excluded(self):
        assert nv.count_nodes(np.array([-1.0, 1.0, 1.0, 1.0, -1.0])) == 0


class TestMatchDefect:
    def grid3(self):
        return nv.RadialGrid(1e-6, 40.0, 50001)

    def match_index(self, grid, rho_star):
        return int(round((rho_star - grid.rho_min) / grid.step))

    def test_zero_at_3d_eigenvalue(self):
        grid = self.grid3()
        m = self.match_index(grid, 2.0)
        d = nv.match_defect(-1.0, z1_problem("coulomb3d"), grid, m)
        assert abs(d) < 1e-5

    def test_nonzero_off_eigenvalue(self):
        grid = self.grid3()
        m = self.match_index(grid, 2.0)
        d = nv.match_defect(-1.21, z1_problem("coulomb3d"), grid, m)
        assert abs(d) > 1e-2

    def test_sign_change_across_eigenvalue(self):
        grid = self.grid3()
        m = self.match_index(grid, 2.0)
        below = nv.match_defect(-1.0 - 1e-3, z1_problem("coulomb3d"), grid, m)
        above = nv.match_defect(-1.0 + 1e-3, z1_problem("coulomb3d"), grid, m)
        assert below > 0.0 > above

    def test_zero_at_2d_eigenvalue(self):
        problem = z1_problem("coulomb2d")
        grid = nv.default_grid(problem, 0)
        m = self.match_index(grid, 0.5)
        d = nv.match_defect(-4.0, problem, grid, m)
        assert abs(d) < 1e-5

    @pytest.mark.parametrize("kind", ["coulomb3d", "coulomb2d"])
    def test_equals_solver_defect_at_turning_point(self, kind):
        problem = z1_problem(kind)
        grid = nv.default_grid(problem, 0, n_points=20001)
        res, _ = nv.solve_state(problem, 0, grid=grid)
        g = res.energy - md.effective_potential(problem, grid.points())
        m = int(np.nonzero((g[:-1] > 0.0) & (g[1:] <= 0.0))[0][-1])
        assert nv.match_defect(res.energy, problem, grid, m) == res.match_defect

    def test_interior_index_required(self):
        grid = self.grid3()
        with pytest.raises(ValueError, match="interior"):
            nv.match_defect(-1.0, z1_problem("coulomb3d"), grid, 0)

    def test_bound_energy_required(self):
        grid = self.grid3()
        with pytest.raises(ValueError, match="negative"):
            nv.match_defect(0.5, z1_problem("coulomb3d"), grid, 100)


class TestSolveState:
    def test_pe_ground(self, solve_cached):
        _, res, _ = solve_cached("pe", "coulomb3d")
        zeta = md.make_atom("pe").zeta
        assert res.converged
        assert res.energy == pytest.approx(-zeta, rel=1e-6)
        assert res.nodes == 0

    def test_pmu_ground(self, solve_cached):
        _, res, _ = solve_cached("pmu", "coulomb3d")
        assert res.converged
        assert res.energy == pytest.approx(-185.84083, rel=1e-5)

    def test_cs_ground_same_scale_as_reference(self, solve_cached):
        # informational: the reference table lists -2.2417 for this cell
        _, res, _ = solve_cached("pe", "chern_simons", 2e-6)
        assert res.converged
        assert res.energy == pytest.approx(-2.2417, rel=0.05)

    def test_wavefunction_contract(self, solve_cached):
        from scipy.integrate import simpson

        problem, res, wf = solve_cached("pe", "coulomb2d")
        assert abs(simpson(wf.u**2, dx=wf.grid.step) - 1.0) < 1e-10
        rho = wf.grid.points()
        s = nv.indicial_exponent(problem)
        ratio = wf.u[1] / wf.u[0]
        assert ratio == pytest.approx((rho[1] / rho[0]) ** s, rel=0.01)
        assert nv.count_nodes(wf.u) == 0

    def test_not_bracketed(self):
        problem = z1_problem("coulomb3d")
        cfg = nv.SolverConfig(energy_bracket=(-5000.0, -4000.0), max_widenings=2)
        with pytest.raises(nv.BracketingError, match="not bracketed"):
            nv.solve_state(problem, 0, config=cfg, grid=nv.RadialGrid(1e-6, 40.0, 20001))

    def test_iteration_budget_flags_nonconverged(self):
        problem = z1_problem("coulomb3d")
        cfg = nv.SolverConfig(bisection_tol=1e-300, max_bisections=25)
        res, _ = nv.solve_state(problem, 0, config=cfg, grid=nv.RadialGrid(1e-6, 40.0, 20001))
        assert not res.converged
        assert res.iterations == 25

    def test_node_target_validation(self):
        with pytest.raises(ValueError):
            nv.solve_state(z1_problem("coulomb3d"), -1)


class TestKZeroSearch:
    @pytest.mark.parametrize("lam", [2e-6, 5e-5, 2e-4])
    @pytest.mark.parametrize("kind", ["chern_simons", "chern_simons_jordan"])
    @pytest.mark.parametrize("atom", ["pe", "tmu"])
    def test_bracket_starts_below_ground_level(self, solve_cached, atom, kind, lam):
        problem, res, _ = solve_cached(atom, kind, lam)
        lo, _ = nv.default_bracket(problem, 0, nv.SolverConfig().bisection_tol)
        assert res.converged
        assert lo < res.energy
        # the (-50, -1e-4) Ry bracket took 33 bisections for every state
        assert res.iterations <= 29

    @pytest.mark.parametrize("nodes", [0, 1])
    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("atom", ["pe", "tmu"])
    def test_weak_jordan_levels_converge(self, solve_cached, atom, ell, nodes):
        # ~2e-4 Ry deep: a 1e-8 Ry bracket alone leaves the defect too large
        _, res, _ = solve_cached(atom, "chern_simons_jordan", 2e-6, ell=ell, nodes=nodes)
        assert res.converged
        assert abs(res.match_defect) <= nv.DEFECT_TOL
        assert res.nodes == nodes

    def test_jordan_without_bound_level_not_bracketed(self):
        # pe jordan at lam=2e-4 has no bound ell-2 level: finite differences on
        # 100,001 points put the lowest one at +4.2e-5 Ry in a 400 box and
        # +1.0e-5 Ry in a 1600 box
        problem = make_problem("pe", "chern_simons_jordan", 2e-4, ell=2)
        with pytest.raises(nv.BracketingError, match="not bracketed"):
            nv.solve_state(problem, 0)


class TestSpectrumProperties:
    def test_order_of_accuracy(self):
        problem = z1_problem("coulomb3d")
        cfg = nv.SolverConfig(bisection_tol=1e-12)
        coarse = nv.RadialGrid(1e-6, 40.0, 1501)
        fine = coarse.halved_step()
        e1, _ = nv.solve_state(problem, 0, config=cfg, grid=coarse)
        e2, _ = nv.solve_state(problem, 0, config=cfg, grid=fine)
        ratio = (e1.energy + 1.0) / (e2.energy + 1.0)
        assert 12.0 <= ratio <= 20.0

    def test_interlacing_in_node_count(self, solve_cached):
        energies = [solve_cached("pe", "coulomb3d", nodes=k)[1].energy for k in (0, 1, 2)]
        assert energies[0] < energies[1] < energies[2]

    def test_ell_monotonicity(self, solve_cached):
        energies = [
            solve_cached("pe", "chern_simons", 2e-6, ell=l)[1].energy for l in (0, 1, 2)
        ]
        assert energies[0] < energies[1] < energies[2]

    def test_lambda_monotonicity(self, solve_cached):
        energies = [
            solve_cached("pe", "chern_simons", lam)[1].energy for lam in (2e-6, 2e-5, 2e-4)
        ]
        assert energies[0] < energies[1] < energies[2]

    def test_scale_invariance(self):
        cfg = nv.SolverConfig(bisection_tol=1e-12)
        small = md.EffectivePotentialParams(md.PotentialSpec("coulomb3d"), Z1)
        big = md.EffectivePotentialParams(
            md.PotentialSpec("coulomb3d"), md.AtomSpec("z4", 8.0, 8.0)
        )
        ra, _ = nv.solve_state(small, 0, config=cfg)
        rb, _ = nv.solve_state(big, 0, config=cfg)
        assert rb.energy / ra.energy == pytest.approx(4.0, rel=1e-8)


class TestFiniteDifferenceOracle:
    def test_3d_coulomb(self, solve_cached):
        problem, res, _ = solve_cached("pe", "coulomb3d")
        fd = nv.fd_lowest_energies(problem, res.grid, 1)[0]
        assert fd == pytest.approx(res.energy, rel=1e-5)

    def test_3d_muonic(self, solve_cached):
        problem, res, _ = solve_cached("pmu", "coulomb3d")
        fd = nv.fd_lowest_energies(problem, res.grid, 1)[0]
        assert fd == pytest.approx(res.energy, rel=1e-5)

    @pytest.mark.parametrize("atom", ["pe", "pmu"])
    def test_2d_coulomb(self, atom):
        # the 2D half-power origin costs the plain 3-point stencil more
        # accuracy than it costs the matched sweeps; compare on a finer box
        problem = make_problem(atom, "coulomb2d")
        base = nv.default_grid(problem, 0)
        n = 400001
        h = base.rho_max / (n - 1)
        grid = nv.RadialGrid(160.0 * h, base.rho_max, n)
        res, _ = nv.solve_state(problem, 0, grid=grid)
        fd = nv.fd_lowest_energies(problem, grid, 1)[0]
        assert fd == pytest.approx(res.energy, rel=1e-5)

    @pytest.mark.parametrize("lam", [2e-6, 2e-5, 2e-4])
    def test_one_k0_case_per_lambda(self, solve_cached, lam):
        problem, res, _ = solve_cached("pe", "chern_simons", lam)
        fd = nv.fd_lowest_energies(problem, res.grid, 1)[0]
        assert fd == pytest.approx(res.energy, rel=1e-5)


class TestConcurrency:
    def test_parallel_solves_match_sequential(self):
        problems = [z1_problem("coulomb3d", ell=l) for l in (0, 1)]
        grid = nv.RadialGrid(1e-6, 60.0, 20001)

        def run(p):
            res, _ = nv.solve_state(p, 0, grid=grid)
            return res.energy

        sequential = [run(p) for p in problems]
        with ThreadPoolExecutor(max_workers=2) as pool:
            parallel = list(pool.map(run, problems))
        assert sequential == parallel
