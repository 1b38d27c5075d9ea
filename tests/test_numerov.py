import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oracles
from conftest import halved, make_problem, sweeps_per_grid
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
        g2 = halved(g)
        assert g2.n_points == 2001
        assert np.allclose(g2.points()[::2], g.points(), rtol=0, atol=1e-14)


def numerov_f(g, grid):
    """``f = 1 + h^2 g / 12`` on the grid for ``g`` given as a callable of rho."""
    return 1.0 + (grid.step**2 / 12.0) * np.asarray(g(grid.points()), dtype=float)


class TestSweep:
    def test_exponential(self):
        # grid near the truncation/roundoff optimum of the recurrence
        grid = nv.RadialGrid(0.1, 5.0, 2001)
        rho = grid.points()
        f = numerov_f(lambda r: -np.ones_like(r), grid)
        u = nv._sweep(f, math.exp(rho[0]), math.exp(rho[1]), rho)
        assert np.max(np.abs(u / np.exp(rho) - 1.0)) < 1e-9

    def test_harmonic(self):
        grid = nv.RadialGrid(0.1, 10.0, 1001)
        rho = grid.points()
        f = numerov_f(lambda r: np.ones_like(r), grid)
        u = nv._sweep(f, math.sin(rho[0]), math.sin(rho[1]), rho)
        assert np.max(np.abs(u - np.sin(rho))) < 1e-9

    def test_inward_exponential(self):
        grid = nv.RadialGrid(0.1, 5.0, 2001)
        rho = grid.points()
        f = numerov_f(lambda r: -np.ones_like(r), grid)
        u = nv._sweep(f[::-1], math.exp(-rho[-1]), math.exp(-rho[-2]), rho[::-1])[::-1]
        assert np.max(np.abs(u / np.exp(-rho) - 1.0)) < 1e-9

    def test_hydrogen_ground_state_profile(self):
        # outward sweep tracks rho*exp(-rho) until growing-mode
        # contamination takes over well past the turning point
        problem = z1_problem("coulomb3d")
        grid = nv.RadialGrid(1e-6, 30.0, 120001)
        rho = grid.points()
        seeds = oracles.hydrogen_ground_u(rho[:2], 1.0)
        f = numerov_f(lambda r: -1.0 - md.effective_potential(problem, r), grid)
        u = nv._sweep(f, seeds[0], seeds[1], rho)
        inner = (rho > 0.05) & (rho < 4.0)
        exact = oracles.hydrogen_ground_u(rho, 1.0)
        assert np.max(np.abs(u[inner] / exact[inner] - 1.0)) < 1e-7

    def test_scan_matches_reference_loop(self):
        rng = np.random.default_rng(7)
        n = 3000
        g = 1.0 - 0.5 * np.linspace(0, 1, n) + 0.05 * rng.standard_normal(n)
        f = 1.0 + (0.01**2 / 12.0) * g
        fast = nv._sweep(f, 0.37, 0.38, 0.01 * np.arange(n))
        slow = oracles.sweep_loop(f, 0.37, 0.38)
        # forward substitution runs the loop's recurrence; only fused
        # multiply-adds in LAPACK set the two apart
        assert np.allclose(fast, slow, rtol=1e-8, atol=1e-300)

    def test_cs_sweep_matches_reference_loop(self, solve_cached):
        problem, res, _ = solve_cached("pe", "chern_simons", 2e-5)
        rho = res.grid.points()
        g = res.energy - md.effective_potential(problem, rho)
        f = 1.0 + (res.grid.step**2 / 12.0) * g
        seeds = nv.small_rho_solution(problem, res.energy, rho[:2])
        m = nv._outer_turning_point(g)
        fast = nv._sweep(f, seeds[0], seeds[1], rho)[: m + 1]
        slow = oracles.sweep_loop(f, seeds[0], seeds[1])[: m + 1]
        assert f.shape[0] == 200001
        assert np.max(np.abs(fast - slow)) <= 1e-9 * np.max(np.abs(slow))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision"
    )
    def test_cs_sweep_within_rounding_of_long_double_loop(self, solve_cached):
        # the row-scaled sweep reads 4.6e-10 with scipy's OpenBLAS 0.3.31 on x86-64,
        # nearly all of it the rounding of its stored coefficients (a long-double loop
        # on those same coefficients reads 4.5e-10); the unscaled rows read 1.2e-10 and
        # the division-free w = f u form of the recurrence 9.4e-9
        problem, res, _ = solve_cached("pe", "chern_simons", 2e-5)
        rho = res.grid.points()
        g = res.energy - md.effective_potential(problem, rho)
        f = 1.0 + (res.grid.step**2 / 12.0) * g
        seeds = nv.small_rho_solution(problem, res.energy, rho[:2])
        m = nv._outer_turning_point(g)
        fast = nv._sweep(f, seeds[0], seeds[1], rho)[: m + 1]
        exact = oracles.numerov_loop_longdouble(f[: m + 1], seeds[0], seeds[1])
        assert np.max(np.abs(fast - exact)) <= 5e-10 * np.max(np.abs(exact))

    def test_one_row_last_segment(self):
        # the last row alone grows by over _SEGMENT_GROWTH nats, so the sweep's last
        # segment is that one row and its second seed row lies past the end
        f = np.ones(1000)
        f[-1] = 1e-4
        rho = 0.1 * np.arange(1000)
        fast = nv._sweep(f, 0.5, 0.6, rho)
        slow = oracles.sweep_loop(f, 0.5, 0.6)
        assert np.allclose(fast, slow, rtol=1e-12, atol=0.0)

    def test_deep_forbidden_region_renormalizes(self):
        # growth by thousands of e-folds must neither overflow nor crash
        n = 200001
        f = 1.0 + (0.05**2 / 12.0) * np.full(n, -9.0)  # g = -9, e^(3 rho) growth
        u = nv._sweep(f, 1e-3, 1e-3 * math.exp(0.15), 0.05 * np.arange(n))
        assert np.all(np.isfinite(u))
        assert np.max(np.abs(u)) <= nv.RESCALE_THRESHOLD * 10

    def test_nonfinite_g_rejected(self):
        grid = nv.RadialGrid(0.1, 5.0, 1000)
        f = numerov_f(lambda r: np.full_like(r, np.nan), grid)
        with pytest.raises(nv.GridTooCoarseError, match="finite"):
            nv._sweep(f, 1.0, 1.0, grid.points())

    def test_nonpositive_f_named_by_rho(self):
        grid = nv.RadialGrid(0.1, 5.0, 1000)
        f = numerov_f(lambda r: np.where(r > 4.0, -1e7, -1.0), grid)
        with pytest.raises(nv.GridTooCoarseError, match=r"rho=4\.00"):
            nv._sweep(f, 1.0, 1.0, grid.points())

    def test_oscillation_past_stability_limit_rejected(self):
        # f = 2: 12/f - 10 = -4, so a mode grows by 1.32 nats per step with
        # alternating sign and a 1000-row sweep would overflow
        rho = 0.1 * np.arange(1000)
        with pytest.raises(nv.GridTooCoarseError, match=r"rho=0\.2: f = 1 \+ h\^2 g/12 = 2 "):
            nv._sweep(np.full(1000, 2.0), 1.0, 1.0, rho)

    def test_oscillation_inside_stability_limit_matches_reference_loop(self):
        # f = 1.45: under 2.7 points per wavelength, yet the recurrence stays bounded
        f = np.full(1000, 1.45)
        fast = nv._sweep(f, 0.0, 1.0, 0.1 * np.arange(1000))
        slow = oracles.sweep_loop(f, 0.0, 1.0)
        assert np.all(np.abs(slow) < 10.0)
        assert np.max(np.abs(fast - slow)) <= 1e-9


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


def match_defect(energy, problem, grid, match_index):
    """Defect of one shot at ``energy`` matched at ``match_index``."""
    return nv._ShootingWorkspace(problem, grid).shoot(energy, match_index).defect


class TestMatchDefect:
    def grid3(self):
        return nv.RadialGrid(1e-6, 40.0, 50001)

    def match_index(self, grid, rho_star):
        return int(round((rho_star - grid.rho_min) / grid.step))

    def test_zero_at_3d_eigenvalue(self):
        grid = self.grid3()
        m = self.match_index(grid, 2.0)
        d = match_defect(-1.0, z1_problem("coulomb3d"), grid, m)
        assert abs(d) < 1e-5

    def test_nonzero_off_eigenvalue(self):
        grid = self.grid3()
        m = self.match_index(grid, 2.0)
        d = match_defect(-1.21, z1_problem("coulomb3d"), grid, m)
        assert abs(d) > 1e-2

    def test_sign_change_across_eigenvalue(self):
        grid = self.grid3()
        m = self.match_index(grid, 2.0)
        below = match_defect(-1.0 - 1e-3, z1_problem("coulomb3d"), grid, m)
        above = match_defect(-1.0 + 1e-3, z1_problem("coulomb3d"), grid, m)
        assert below > 0.0 > above

    def test_zero_at_2d_eigenvalue(self):
        problem = z1_problem("coulomb2d")
        grid = nv.default_grid(problem, 0)
        m = self.match_index(grid, 0.5)
        d = match_defect(-4.0, problem, grid, m)
        assert abs(d) < 1e-5

    @pytest.mark.parametrize("kind", ["coulomb3d", "coulomb2d"])
    def test_equals_solver_defect_at_turning_point(self, kind):
        problem = z1_problem(kind)
        grid = nv.default_grid(problem, 0, n_points=20001)
        res, _ = nv.solve_state(problem, 0, grid=grid)
        # the solver matches at the turning point of its bracket's upper end,
        # at or past the turning point of the energy it returns
        g = res.energy - md.effective_potential(problem, grid.points())
        assert res.match_index >= int(np.nonzero((g[:-1] > 0.0) & (g[1:] <= 0.0))[0][-1])
        assert np.all(g[res.match_index + 1 :] <= 0.0)
        assert match_defect(res.energy, problem, grid, res.match_index) == res.match_defect


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
        # closed form -zeta: the 1e-8 Ry search tolerance and the O(h^4) grid error fit in 1e-7 Ry
        assert abs(res.energy + md.make_atom("pmu").zeta) <= 1e-7

    def test_grid_past_stability_limit_raises(self):
        # from rho_min = 1e-6, f = 1 - l(l+1)/48 near rho = 2h whatever the step: -0.17 for ell 7
        problem = make_problem("pe", "coulomb3d", ell=7)
        grid = nv.default_grid(problem, 0, rho_min=1e-6)
        message = r"rho=0\.00\d+: f = 1 \+ h\^2 g/12 = -0\.1"
        with pytest.raises(nv.GridTooCoarseError, match=message):
            nv.solve_state(problem, 0, grid=grid)

    @pytest.mark.parametrize("ell", [7, 10])
    def test_default_3d_grid_solves_high_ell(self, ell):
        # the default rho_min moves out just far enough to keep f >= 1/2 on the first swept row
        problem = make_problem("pe", "coulomb3d", ell=ell)
        res, _ = nv.solve_state(problem, 0)
        assert res.converged
        assert abs(res.energy + md.make_atom("pe").zeta / (ell + 1) ** 2) <= 1e-8

    def test_default_3d_grid_keeps_rho_min_through_ell_4(self):
        for ell in range(5):
            problem = make_problem("pe", "coulomb3d", ell=ell)
            assert nv.default_grid(problem, 0).rho_min == 1e-6

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

    @pytest.fixture
    def missed_bracket(self, monkeypatch):
        """A starting bracket far below the ground level, widened at most twice."""
        monkeypatch.setattr(nv, "default_bracket", lambda *args: (-5000.0, -4000.0))
        monkeypatch.setattr(nv, "MAX_WIDENINGS", 2)
        # 20,002 points do not quarter, so the search runs once, on this grid
        return nv.RadialGrid(1e-6, 40.0, 20002)

    def test_not_bracketed(self, missed_bracket):
        problem = z1_problem("coulomb3d")
        with pytest.raises(nv.BracketingError, match="not bracketed"):
            nv.solve_state(problem, 0, grid=missed_bracket)

    def test_bracketing_error_carries_its_scan(self, missed_bracket):
        # neither end moves past the ground level at -1 Ry: the top halves twice
        problem = z1_problem("coulomb3d")
        with pytest.raises(nv.BracketingError) as err:
            nv.solve_state(problem, 0, grid=missed_bracket)
        assert err.value.bracket == (-5000.0, -1000.0)
        energies = [e for e, _ in err.value.scan]
        assert energies == pytest.approx(list(-np.geomspace(5000.0, 1000.0, 8)), rel=1e-15)
        assert [k for _, k in err.value.scan] == [0] * 8
        for e, k in err.value.scan:
            assert f"E={e:.6g} Ry: {k} nodes" in str(err.value)

    def test_converged_is_a_plain_bool_when_defect_misses(self):
        # pmu 2D on a grid that starts 4.36 decay lengths out: the bracket closes
        # on a one-node level whose defect (2.0) misses DEFECT_TOL, and the flag
        # must still serialize
        problem = make_problem("pmu", "coulomb2d")
        res, _ = nv.solve_state(
            problem, 0, grid=nv.default_grid(problem, 0, rho_max=40.0, n_points=20001)
        )
        assert res.bracket_width <= nv.BISECTION_TOL
        assert abs(res.match_defect) > nv.DEFECT_TOL
        assert type(res.converged) is bool
        assert json.dumps(res.converged) == "false"

    def test_iteration_budget_flags_nonconverged(self, monkeypatch):
        # the budget caps search steps; without it this search runs 24 steps,
        # until its bracket is one ulp wide
        monkeypatch.setattr(nv, "MAX_SEARCH_STEPS", 12)
        problem = z1_problem("coulomb3d")
        grid = nv.RadialGrid(1e-6, 40.0, 20001)
        res, _ = nv.solve_state(problem, 0, grid=grid, bisection_tol=1e-300)
        assert not res.converged
        assert res.iterations == 12

    def test_node_target_validation(self):
        with pytest.raises(ValueError):
            nv.solve_state(z1_problem("coulomb3d"), -1)
        with pytest.raises(ValueError, match="node_target must be non-negative"):
            nv.default_grid(z1_problem("coulomb3d"), -1)


class TestKZeroSearch:
    @pytest.mark.parametrize("lam", [2e-6, 5e-5, 2e-4])
    @pytest.mark.parametrize("kind", ["chern_simons", "chern_simons_jordan"])
    @pytest.mark.parametrize("atom", ["pe", "tmu"])
    def test_bracket_starts_below_ground_level(self, solve_cached, shots, atom, kind, lam):
        problem, _, _ = solve_cached(atom, kind, lam)
        shots.clear()
        res, _ = nv.solve_state(problem, 0)
        lo, _ = nv.default_bracket(problem, 0, nv.BISECTION_TOL)
        assert res.converged
        assert lo < res.energy
        # the (-50, -1e-4) Ry bracket took 33 bisections for every state
        assert res.iterations <= 29
        # bisection took 44-79 sweeps per state; each stage's search stays in that
        # bound, and together they sweep fewer points than the cold search's 8.9-12.1
        # grids' worth
        assert all(sweeps <= 34 for sweeps in sweeps_per_grid(shots).values())
        assert res.points_swept <= 10 * res.grid.n_points

    @pytest.mark.parametrize("nodes", [0, 1])
    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("atom", ["pe", "tmu"])
    def test_weak_jordan_levels_converge(self, solve_cached, shots, atom, ell, nodes):
        # ~2e-4 Ry deep: a 1e-8 Ry bracket alone leaves the defect too large
        problem, _, _ = solve_cached(atom, "chern_simons_jordan", 2e-6, ell=ell, nodes=nodes)
        shots.clear()
        res, _ = nv.solve_state(problem, nodes)
        assert res.converged
        assert abs(res.match_defect) <= nv.DEFECT_TOL
        assert res.nodes == nodes
        # each stage's search within the 34 sweeps of one search; together fewer
        # points than the cold interpolating search's 8.5-14.7 grids' worth
        assert all(sweeps <= 34 for sweeps in sweeps_per_grid(shots).values())
        assert res.points_swept <= 10 * res.grid.n_points

    def test_jordan_without_bound_level_not_bracketed(self):
        # pe jordan at lam=2e-4 has no bound ell-2 level: finite differences on
        # 100,001 points put the lowest one at +4.2e-5 Ry in a 400 box and
        # +1.0e-5 Ry in a 1600 box
        problem = make_problem("pe", "chern_simons_jordan", 2e-4, ell=2)
        with pytest.raises(nv.BracketingError, match="not bracketed") as err:
            nv.solve_state(problem, 0)
        err.match(r"node count is still 0, so the level lies above -1\.25e-05 Ry")

    def test_default_2d_grids_start_inside_the_state(self):
        # the bound on kappa * rho_min rejects no default grid
        for atom in md.ATOM_NAMES:
            for kind, lams in (("coulomb2d", [None]),
                               ("chern_simons", [2e-6, 2e-5, 2e-4]),
                               ("chern_simons_jordan", [2e-6, 2e-5, 2e-4])):
                for lam in lams:
                    for ell in range(4):
                        problem = make_problem(atom, kind, lam, ell=ell)
                        for nodes in range(4):
                            nv.check_origin_gap(problem, nv.default_grid(problem, nodes))

    def test_2d_grid_past_the_state_rejected(self):
        # the closed-form ground level of pmu decays over 1/27.26: rho_min = 0.032
        # starts the grid 0.872 decay lengths out
        problem = make_problem("pmu", "coulomb2d")
        grid = nv.default_grid(problem, 0, rho_max=40.0, n_points=100001)
        with pytest.raises(nv.GridTooCoarseError, match=r"rho_min=0\.032 is 0\.872 decay"):
            nv.check_origin_gap(problem, grid)
        needed = nv.default_grid(problem, 0, rho_max=40.0, n_points=174496)
        nv.check_origin_gap(problem, needed)
        res, _ = nv.solve_state(problem, 0, grid=needed)
        assert res.converged

    def test_deep_level_defect_changes_sign_once(self, solve_cached):
        # sweep roundoff must not add roots near a deep level: a spurious
        # crossing lets the search stop up to 4e-8 Ry away from it
        problem, res, _ = solve_cached("pe", "chern_simons", 2e-4)
        ws = nv._ShootingWorkspace(problem, res.grid)
        m = nv._outer_turning_point(res.energy - ws.u_eff)
        defects = [ws.shoot(res.energy + k * 1e-8, m)[-1] for k in range(-8, 9)]
        signs = np.sign(defects)
        assert np.count_nonzero(signs[1:] != signs[:-1]) == 1


class TestInterpolatedSearch:
    def test_pole_free_match_index(self, solve_cached):
        # matched at the turning point of the bracket's midpoint, this search
        # met a pole of the defect and stopped on it at -0.948 Ry, unconverged
        state = ("te", "chern_simons", 5.845299749391227e-05, 1, 0)
        _, res, _ = solve_cached(*state)
        _, ref, _ = solve_cached(*state, tol=1e-12)
        assert res.converged and ref.converged
        assert ref.energy == pytest.approx(-0.95050524, abs=1e-8)
        assert abs(res.energy - ref.energy) <= 1e-8

    # each (ell, nodes) pair picks one of the six atoms
    @pytest.mark.parametrize("ell,nodes,atom", [
        (0, 0, "pe"), (0, 1, "de"), (1, 0, "te"), (1, 1, "pmu"), (2, 0, "dmu"), (2, 1, "tmu"),
    ])
    @pytest.mark.parametrize("kind,lam", [
        ("coulomb3d", None), ("coulomb2d", None),
        ("chern_simons", 2e-5), ("chern_simons_jordan", 2e-5),
    ])
    def test_energy_within_tolerance_of_tight_solve(self, solve_cached, kind, lam, ell, nodes, atom):
        _, res, wf = solve_cached(atom, kind, lam, ell=ell, nodes=nodes)
        _, ref, _ = solve_cached(atom, kind, lam, ell=ell, nodes=nodes, tol=1e-12)
        assert res.converged and ref.converged
        assert abs(res.energy - ref.energy) <= 1e-8
        assert wf.energy == res.energy
        assert res.bracket_width <= nv.BISECTION_TOL

    @pytest.mark.parametrize("kind,lam", [("coulomb2d", None), ("chern_simons", 2e-5)])
    def test_wavefunction_is_the_returned_shot(self, solve_cached, kind, lam):
        # the search keeps the joined sweeps of its better end instead of
        # shooting the returned energy again
        problem, res, wf = solve_cached("pe", kind, lam)
        u = np.empty(res.grid.n_points)
        shot = nv._ShootingWorkspace(problem, res.grid).shoot(res.energy, res.match_index, out=u)
        assert shot.defect == res.match_defect
        assert np.array_equal(nv._normalize_samples(u, res.grid.step), wf.u)


def cold(problem, nodes, grid=None):
    """The search from the default bracket, without the quarter-grid stage."""
    ws = nv._ShootingWorkspace(problem, grid or nv.default_grid(problem, nodes), nodes)
    tol = nv.BISECTION_TOL
    return nv._search(ws, nv.default_bracket(problem, nodes, tol), tol)[0]


class TestWarmStart:
    @pytest.mark.parametrize("nodes", range(4))
    @pytest.mark.parametrize("kind,lam", [
        ("coulomb3d", None), ("coulomb2d", None),
        ("chern_simons", 2e-5), ("chern_simons_jordan", 2e-5),
    ])
    def test_warm_and_cold_energies_agree(self, shots, kind, lam, nodes):
        problem = make_problem("pe", kind, lam)
        warm, _ = nv.solve_state(problem, nodes)
        sweeps = sweeps_per_grid(shots)
        cold_res = cold(problem, nodes)
        assert warm.converged and cold_res.converged
        assert warm.energy_error_ry is not None and cold_res.energy_error_ry is None
        assert abs(warm.energy - cold_res.energy) <= nv.BISECTION_TOL
        # no widening: the search on the grid is bounded as a cold one is, the
        # quarter-grid stage is in the counts, and still the warm solve sweeps less
        n = warm.grid.n_points
        assert sweeps.keys() == {n, (n - 1) // 4 + 1}
        assert 2 <= sweeps[n] <= 2 * warm.iterations + 6
        assert warm.sweeps == sum(sweeps.values())
        assert warm.points_swept < cold_res.points_swept

    @pytest.mark.parametrize("ell,nodes", [(0, 0), (1, 0), (0, 2), (3, 1)])
    @pytest.mark.parametrize("kind", ["coulomb3d", "coulomb2d"])
    @pytest.mark.parametrize("atom", ["pe", "pmu"])
    def test_error_estimate_bounds_coulomb_error(self, solve_cached, atom, kind, ell, nodes):
        _, res, _ = solve_cached(atom, kind, ell=ell, nodes=nodes)
        zeta = md.make_atom(atom).zeta
        exact = (oracles.coulomb3d_energy if kind == "coulomb3d" else oracles.coulomb2d_energy)(
            zeta, nodes, ell
        )
        tol = nv.BISECTION_TOL
        assert abs(exact - res.energy) <= 1.25 * abs(res.energy_error_ry) + tol

    def test_error_estimate_sign_and_size_where_step_error_dominates(self, solve_cached):
        # pmu's 2D ground level: exact - E_h = +1.04e-6 Ry, a hundred times the search tolerance
        _, res, _ = solve_cached("pmu", "coulomb2d")
        error = oracles.coulomb2d_energy(md.make_atom("pmu").zeta, 0) - res.energy
        assert error > 1e-7
        assert res.energy_error_ry == pytest.approx(error, rel=0.25)

    def test_quarter_grid_too_coarse_falls_back(self):
        # f < 0 on the quarter grid's first swept row: ell 15 needs h <= 0.4 rho_min
        problem = make_problem("pe", "coulomb3d", ell=15)
        res, _ = nv.solve_state(problem, 0)
        assert res.converged and res.energy_error_ry is None
        assert abs(res.energy + md.make_atom("pe").zeta / 16**2) <= 1e-8
        assert res.sweeps == cold(problem, 0).sweeps

    def test_grid_that_cannot_be_quartered_falls_back(self):
        problem = z1_problem("coulomb3d")
        grid = nv.RadialGrid(1e-6, 40.0, 20002)
        res, _ = nv.solve_state(problem, 0, grid=grid)
        ref = cold(problem, 0, grid)
        assert res.energy_error_ry is None
        assert (res.energy, res.sweeps, res.points_swept) == (ref.energy, ref.sweeps, ref.points_swept)

    def test_quarter_grid_under_1000_points_falls_back(self):
        # RadialGrid rejects the 999-point quarter of a 3993-point grid, so that grid
        # starts cold instead of raising ValueError
        assert nv.MIN_POINTS == 1000
        problem = z1_problem("coulomb3d")
        for n, warm in ((3993, False), (3997, True)):
            res, _ = nv.solve_state(problem, 0, grid=nv.RadialGrid(1e-6, 40.0, n))
            assert res.converged
            assert (res.energy_error_ry is not None) is warm

    def test_bracket_miss_recovers_by_widening(self, monkeypatch, solve_cached, shots):
        # a bracket tol wide about E_4h misses pmu's 2D ground level, 2.4e-4 Ry above
        # it: the upper end halves toward zero and the search converges from there
        problem, warm, _ = solve_cached("pmu", "coulomb2d")
        monkeypatch.setattr(nv, "WARM_BRACKET_REL", 0.0)
        shots.clear()
        res, _ = nv.solve_state(problem, 0)
        assert res.converged
        assert res.energy_error_ry == pytest.approx(warm.energy_error_ry, rel=1e-3)
        assert abs(res.energy - warm.energy) <= nv.BISECTION_TOL
        widened = [e for n, e, _ in shots if n == res.grid.n_points and e > 0.6 * warm.energy]
        assert widened == [pytest.approx(0.5 * (warm.energy - 255.0 * warm.energy_error_ry + 1e-8))]

    @pytest.mark.parametrize("kind,lams,levels", [
        ("coulomb3d", [None], [(0, 0), (1, 1), (2, 0)]),
        ("coulomb2d", [None], [(0, 0), (1, 1), (2, 0)]),
        ("chern_simons", [2e-6, 2e-4], [(0, 0), (1, 1), (2, 0)]),
        ("chern_simons_jordan", [5e-5, 2e-4], [(0, 0)]),
    ])
    def test_4001_point_grids_solve(self, kind, lams, levels):
        # the benchmark's warm-up solves run on such grids, some starting past the
        # state; their quarter grids have 1001 points
        for atom in md.ATOM_NAMES:
            for lam in lams:
                for ell, nodes in levels:
                    problem = make_problem(atom, kind, lam, ell=ell)
                    grid = nv.default_grid(problem, nodes, n_points=4001)
                    res, _ = nv.solve_state(problem, nodes, grid=grid)
                    assert np.isfinite(res.energy)


class TestSpectrumProperties:
    def test_order_of_accuracy(self):
        problem = z1_problem("coulomb3d")
        coarse = nv.RadialGrid(1e-6, 40.0, 1501)
        fine = halved(coarse)
        e1, _ = nv.solve_state(problem, 0, grid=coarse, bisection_tol=1e-12)
        e2, _ = nv.solve_state(problem, 0, grid=fine, bisection_tol=1e-12)
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
        small = md.EffectivePotentialParams(md.PotentialSpec("coulomb3d"), Z1)
        big = md.EffectivePotentialParams(
            md.PotentialSpec("coulomb3d"), md.AtomSpec("z4", 8.0, 8.0)
        )
        ra, _ = nv.solve_state(small, 0, bisection_tol=1e-12)
        rb, _ = nv.solve_state(big, 0, bisection_tol=1e-12)
        assert rb.energy / ra.energy == pytest.approx(4.0, rel=1e-8)


class TestFiniteDifferenceOracle:
    def test_3d_coulomb(self, solve_cached):
        problem, res, _ = solve_cached("pe", "coulomb3d")
        fd = oracles.fd_lowest_energies(problem, res.grid, 1)[0]
        assert fd == pytest.approx(res.energy, rel=1e-5)

    def test_3d_muonic(self, solve_cached):
        problem, res, _ = solve_cached("pmu", "coulomb3d")
        fd = oracles.fd_lowest_energies(problem, res.grid, 1)[0]
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
        fd = oracles.fd_lowest_energies(problem, grid, 1)[0]
        assert fd == pytest.approx(res.energy, rel=1e-5)

    @pytest.mark.parametrize("lam", [2e-6, 2e-5, 2e-4])
    def test_one_k0_case_per_lambda(self, solve_cached, lam):
        problem, res, _ = solve_cached("pe", "chern_simons", lam)
        fd = oracles.fd_lowest_energies(problem, res.grid, 1)[0]
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
