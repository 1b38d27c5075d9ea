import gc
import json
import math
import multiprocessing
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oracles
from conftest import halved, make_problem, sweeps_per_grid
from planaratom import model as md
from planaratom import numerov as nv
from planaratom import specfun as sf

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


def sweep(f, u0, u1, rho):
    """``nv._sweep`` into buffers of its own, its rows at the points ``rho``."""
    out, band = np.empty(f.shape[0]), np.empty((3, nv._BLOCK + 2), order="F")
    return nv._sweep(f, u0, u1, rho[0], rho[1] - rho[0], out, band)


def workspace(problem, grid, node_target=0):
    """A shooting workspace in scratch memory of its own."""
    memory = np.empty(nv._scratch_size(grid.n_points))
    return nv._ShootingWorkspace(problem, grid, memory, node_target)


def numerov_f(g, grid):
    """``f = 1 + h^2 g / 12`` on the grid for ``g`` given as a callable of rho."""
    return 1.0 + (grid.step**2 / 12.0) * np.asarray(g(grid.points()), dtype=float)


class TestSweep:
    def test_exponential(self):
        # grid near the truncation/roundoff optimum of the recurrence
        grid = nv.RadialGrid(0.1, 5.0, 2001)
        rho = grid.points()
        f = numerov_f(lambda r: -np.ones_like(r), grid)
        u = sweep(f, math.exp(rho[0]), math.exp(rho[1]), rho)
        assert np.max(np.abs(u / np.exp(rho) - 1.0)) < 1e-9

    def test_harmonic(self):
        grid = nv.RadialGrid(0.1, 10.0, 1001)
        rho = grid.points()
        f = numerov_f(lambda r: np.ones_like(r), grid)
        u = sweep(f, math.sin(rho[0]), math.sin(rho[1]), rho)
        assert np.max(np.abs(u - np.sin(rho))) < 1e-9

    def test_inward_exponential(self):
        grid = nv.RadialGrid(0.1, 5.0, 2001)
        rho = grid.points()
        f = numerov_f(lambda r: -np.ones_like(r), grid)
        u = sweep(f[::-1], math.exp(-rho[-1]), math.exp(-rho[-2]), rho[::-1])[::-1]
        assert np.max(np.abs(u / np.exp(-rho) - 1.0)) < 1e-9

    def test_hydrogen_ground_state_profile(self):
        # outward sweep tracks rho*exp(-rho) until growing-mode
        # contamination takes over well past the turning point
        problem = z1_problem("coulomb3d")
        grid = nv.RadialGrid(1e-6, 30.0, 120001)
        rho = grid.points()
        seeds = oracles.hydrogen_ground_u(rho[:2], 1.0)
        f = numerov_f(lambda r: -1.0 - md.effective_potential(problem, r), grid)
        u = sweep(f, seeds[0], seeds[1], rho)
        inner = (rho > 0.05) & (rho < 4.0)
        exact = oracles.hydrogen_ground_u(rho, 1.0)
        assert np.max(np.abs(u[inner] / exact[inner] - 1.0)) < 1e-7

    def test_scan_matches_reference_loop(self):
        rng = np.random.default_rng(7)
        n = 3000
        g = 1.0 - 0.5 * np.linspace(0, 1, n) + 0.05 * rng.standard_normal(n)
        f = 1.0 + (0.01**2 / 12.0) * g
        fast = sweep(f, 0.37, 0.38, 0.01 * np.arange(n))
        slow = oracles.sweep_loop(f, 0.37, 0.38)
        # forward substitution runs the loop's recurrence; only fused
        # multiply-adds in LAPACK set the two apart
        assert np.allclose(fast, slow, rtol=1e-8, atol=1e-300)

    def test_cs_sweep_matches_reference_loop(self, solve_cached):
        problem, res, _ = solve_cached("pe", "chern_simons", 2e-5)
        rho = res.grid.points()
        u_eff = md.effective_potential(problem, rho)
        f = 1.0 + (res.grid.step**2 / 12.0) * (res.energy - u_eff)
        seeds = nv.small_rho_solution(problem, res.energy, rho[:2])
        m = nv._outer_turning_point(u_eff, res.energy)
        fast = sweep(f, seeds[0], seeds[1], rho)[: m + 1]
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
        u_eff = md.effective_potential(problem, rho)
        f = 1.0 + (res.grid.step**2 / 12.0) * (res.energy - u_eff)
        seeds = nv.small_rho_solution(problem, res.energy, rho[:2])
        m = nv._outer_turning_point(u_eff, res.energy)
        fast = sweep(f, seeds[0], seeds[1], rho)[: m + 1]
        exact = oracles.numerov_loop_longdouble(f[: m + 1], seeds[0], seeds[1])
        assert np.max(np.abs(fast - exact)) <= 5e-10 * np.max(np.abs(exact))

    def test_one_row_last_segment(self):
        # the last row alone grows by over _SEGMENT_GROWTH nats, so the sweep's last
        # segment is that one row and its second seed row lies past the end
        f = np.ones(1000)
        f[-1] = 1e-4
        rho = 0.1 * np.arange(1000)
        fast = sweep(f, 0.5, 0.6, rho)
        slow = oracles.sweep_loop(f, 0.5, 0.6)
        assert np.allclose(fast, slow, rtol=1e-12, atol=0.0)

    def test_deep_forbidden_region_renormalizes(self):
        # growth by thousands of e-folds must neither overflow nor crash
        n = 200001
        f = 1.0 + (0.05**2 / 12.0) * np.full(n, -9.0)  # g = -9, e^(3 rho) growth
        u = sweep(f, 1e-3, 1e-3 * math.exp(0.15), 0.05 * np.arange(n))
        assert np.all(np.isfinite(u))
        assert np.max(np.abs(u)) <= nv.RESCALE_THRESHOLD * 10

    def test_overflow_raises_solver_error(self):
        # e^0.15 per row over 999 rows: fits one segment, but not from seeds near 1e300
        f = 1.0 + (0.05**2 / 12.0) * np.full(1000, -9.0)
        rho = 0.05 * np.arange(1000)
        with pytest.raises(nv.SweepOverflowError, match=r"starts from 1e\+300 and 1\.16e\+300"):
            sweep(f, 1e300, 1e300 * math.exp(0.15), rho)

    def test_nonfinite_g_rejected(self):
        grid = nv.RadialGrid(0.1, 5.0, 1000)
        f = numerov_f(lambda r: np.full_like(r, np.nan), grid)
        with pytest.raises(nv.GridTooCoarseError, match="finite"):
            sweep(f, 1.0, 1.0, grid.points())

    def test_nonpositive_f_named_by_rho(self):
        grid = nv.RadialGrid(0.1, 5.0, 1000)
        f = numerov_f(lambda r: np.where(r > 4.0, -1e7, -1.0), grid)
        with pytest.raises(nv.GridTooCoarseError, match=r"rho=4\.00"):
            sweep(f, 1.0, 1.0, grid.points())

    def test_oscillation_past_stability_limit_rejected(self):
        # f = 2: 12/f - 10 = -4, so a mode grows by 1.32 nats per step with
        # alternating sign and a 1000-row sweep would overflow
        rho = 0.1 * np.arange(1000)
        with pytest.raises(nv.GridTooCoarseError, match=r"rho=0\.2: f = 1 \+ h\^2 g/12 = 2 "):
            sweep(np.full(1000, 2.0), 1.0, 1.0, rho)

    def test_oscillation_inside_stability_limit_matches_reference_loop(self):
        # f = 1.45: under 2.7 points per wavelength, yet the recurrence stays bounded
        f = np.full(1000, 1.45)
        fast = sweep(f, 0.0, 1.0, 0.1 * np.arange(1000))
        slow = oracles.sweep_loop(f, 0.0, 1.0)
        assert np.all(np.abs(slow) < 10.0)
        assert np.max(np.abs(fast - slow)) <= 1e-9


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBlockedSweep:
    """``_sweep`` in blocks of ``_BLOCK`` rows against one solve per segment."""

    B = nv._BLOCK

    @staticmethod
    def cs_f(n_points):
        # pe chern-simons just below its ground level: allowed, then forbidden
        problem = make_problem("pe", "chern_simons", 2e-5)
        grid = nv.RadialGrid(80.0 * 60.0 / (n_points - 1), 60.0, n_points)
        rho = grid.points()
        return rho, 1.0 + (grid.step**2 / 12.0) * (-0.17 - md.effective_potential(problem, rho))

    # points, so rows = points - 2: one block short or full, one row past a block
    # (a last block of one row after its two carried rows), and two blocks and one row
    @pytest.mark.parametrize("extra", [-1, 0, 1, 2, 3])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_outward_equals_one_solve(self, blocks, extra):
        rho, f = self.cs_f(blocks * self.B + extra)
        seeds = (0.011, 0.012)
        assert _same_bits(sweep(f, *seeds, rho), oracles.sweep_one_solve_per_segment(f, *seeds))

    @pytest.mark.parametrize("n_points", [B - 1, B + 3, 2 * B + 3])
    def test_inward_on_reversed_view_equals_one_solve(self, n_points):
        rho, f = self.cs_f(n_points)
        seeds = (1e-150, 1e-150 * math.exp(0.4 * (rho[1] - rho[0])))
        fast = sweep(f[::-1], *seeds, rho[::-1])
        assert _same_bits(fast, oracles.sweep_one_solve_per_segment(f[::-1], *seeds))

    @pytest.mark.parametrize(
        "n, g, spread",
        [
            (3 * B + 7, -9.0, 0.0),  # segments of ~2000 rows, several to a block
            (200001, -0.01, 0.5),  # segments of ~60,000 rows spanning blocks
        ],
    )
    def test_forbidden_region_segments_and_rescaling(self, n, g, spread):
        rng = np.random.default_rng(n)
        f = 1.0 + (0.05**2 / 12.0) * g * (1.0 + spread * rng.random(n))
        rho = 0.05 * np.arange(n)
        fast = sweep(f, 1e-3, 1.01e-3, rho)
        slow = oracles.sweep_one_solve_per_segment(f, 1e-3, 1.01e-3)
        assert np.max(np.abs(slow)) <= nv.RESCALE_THRESHOLD * 10  # it did rescale
        assert abs(slow[-1]) > 1e-100
        assert _same_bits(fast, slow)

    def test_writes_only_into_given_buffers(self):
        rho, f = self.cs_f(2 * self.B + 3)
        out = np.full(f.shape[0] + 5, 7.0)
        band = np.empty((3, self.B + 2), order="F")
        u = nv._sweep(f, 0.011, 0.012, rho[0], rho[1] - rho[0], out, band)
        assert np.shares_memory(u, out) and u.shape == f.shape
        assert np.all(out[f.shape[0] :] == 7.0)
        assert _same_bits(u, oracles.sweep_one_solve_per_segment(f, 0.011, 0.012))


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

    @pytest.mark.parametrize(
        "signs, nodes",
        [
            ((1.0, -1.0, -1.0), 1),
            ((1.0, 0.0, -1.0), 1),  # a run of zeros, sign changed across it
            ((1.0, 0.0, 1.0), 0),  # a run of zeros, same sign on both sides
            ((1.0, -0.0, 1.0), 0),  # negative zeros, whose sign bit is set, are zeros
            ((0.0, -1.0, 1.0), 1),  # zeros before the first sign
            ((-1.0, 1.0, -1.0), 2),
        ],
    )
    def test_long_runs_of_signs_and_zeros(self, signs, nodes):
        # three runs of 8,192 samples each between two positive end samples
        run = 8192
        rng = np.random.default_rng(nodes)
        u = np.concatenate([[5.0], np.repeat(signs, run) * (1.0 + rng.random(3 * run)), [5.0]])
        assert nv.count_nodes(u) == oracles.count_nodes_one_pass(u) == nodes


def match_defect(energy, problem, grid, match_index):
    """Defect of one shot at ``energy`` matched at ``match_index``."""
    ws = workspace(problem, grid)
    return ws.shoot(energy, match_index, out=ws.joined).defect


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

    @pytest.mark.parametrize("kind", ["coulomb3d", "coulomb2d"])
    @pytest.mark.parametrize("ell", [16, 20, 25])
    def test_default_box_holds_high_ell_levels(self, kind, ell):
        # the box reaches 15 decay lengths past the level's outer turning point
        problem = make_problem("pe", kind, ell=ell)
        res, _ = nv.solve_state(problem, 0)
        assert res.converged
        assert res.nodes == 0
        assert abs(res.energy - nv.closed_form_energy(problem, 0)) <= 1e-8

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
        # the budget caps search steps; without it this search runs 21, see below
        monkeypatch.setattr(nv, "MAX_SEARCH_STEPS", 12)
        problem = z1_problem("coulomb3d")
        grid = nv.RadialGrid(1e-6, 40.0, 20001)
        res, _ = nv.solve_state(problem, 0, grid=grid, bisection_tol=1e-300)
        assert not res.converged
        assert res.iterations == 12

    def test_tolerance_below_resolution_stops(self, shots):
        # no sweep tells apart energies a few ulps apart: the search stops once its
        # bracket is RESOLUTION_ULPS wide instead of halving it down to one ulp.
        # Each coarse level that stops there with its node target and defect passes
        # its energy up; were it to start the next level cold, this took 86 sweeps
        # (measured: 19 shots on this grid, 68 sweeps in all)
        problem = z1_problem("coulomb3d")
        grid = nv.RadialGrid(1e-6, 40.0, 20001)
        res, _ = nv.solve_state(problem, 0, grid=grid, bisection_tol=1e-300)
        assert not res.converged
        assert res.bracket_width <= nv.RESOLUTION_ULPS * math.ulp(res.energy)
        assert abs(res.energy + 1.0) <= 1e-11
        assert res.energy_error_ry is not None
        assert res.iterations == len([n for n, _, _ in shots if n == 20001]) <= 19
        assert res.sweeps == sum(sweeps_per_grid(shots).values()) <= 72

    def test_node_target_validation(self):
        with pytest.raises(ValueError):
            nv.solve_state(z1_problem("coulomb3d"), -1)
        with pytest.raises(ValueError, match="node_target must be non-negative"):
            nv.default_grid(z1_problem("coulomb3d"), -1)


class TestKZeroSearch:
    # levels above -1.25e-5 Ry, where a fixed -1e-4 Ry top halved three times ends:
    # the bracket's top must follow the depth estimate
    @pytest.mark.parametrize("atom,lam", [
        ("pe", 5e-8), ("pe", 2e-8), ("pe", 1e-8), ("pe", 1e-9),
        ("pmu", 1e-8), ("pmu", 1e-9), ("tmu", 1e-8), ("tmu", 1e-9),
    ])
    def test_weak_jordan_ground_levels_converge(self, atom, lam):
        problem = make_problem(atom, "chern_simons_jordan", lam)
        lo, hi = nv.default_bracket(problem, 0, nv.BISECTION_TOL)
        res, _ = nv.solve_state(problem, 0)
        assert res.converged and res.nodes == 0
        assert lo < res.energy < hi

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
        # bisection took 44-79 sweeps per state; each grid's search stays well inside
        # that, and together they sweep fewer points than the cold search's 8.9-12.1
        # grids' worth
        assert all(sweeps <= 28 for sweeps in sweeps_per_grid(shots).values())
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
        # each grid's search within 28 sweeps; together fewer points than the cold
        # interpolating search's 8.5-14.7 grids' worth
        assert all(sweeps <= 28 for sweeps in sweeps_per_grid(shots).values())
        assert res.points_swept <= 10 * res.grid.n_points

    def test_jordan_without_bound_level_not_bracketed(self):
        # pe jordan at lam=2e-4 has no bound ell-2 level: finite differences on
        # 100,001 points put the lowest one at +4.2e-5 Ry in a 400 box and
        # +1.0e-5 Ry in a 1600 box
        problem = make_problem("pe", "chern_simons_jordan", 2e-4, ell=2)
        with pytest.raises(nv.BracketingError, match="not bracketed") as err:
            nv.solve_state(problem, 0)
        err.match(r"node count is still 0, so the level lies above -1\.25e-05 Ry")

    def test_unbound_level_confirmed_with_one_full_grid_shot(self, shots):
        # the coarsest grid's search shows the level above its top; one shot at that
        # top on each finer grid confirms it, instead of another failed search
        problem = make_problem("pe", "chern_simons_jordan", 2e-4, ell=2)
        with pytest.raises(nv.BracketingError) as err:
            nv.solve_state(problem, 0)
        *finer, coarsest = CASCADE[nv.default_grid(problem, 0).n_points]
        for n in finer:
            assert [e for m, e, _ in shots if m == n] == [err.value.bracket[1]]
        assert err.value.bracket[1] == pytest.approx(-1.25e-5)

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
        ws = workspace(problem, res.grid)
        m = nv._outer_turning_point(ws.u_eff, res.energy)
        energies = res.energy + 1e-8 * np.arange(-8, 9)
        defects = [ws.shoot(e, m, out=ws.joined).defect for e in energies]
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
        shot = workspace(problem, res.grid).shoot(res.energy, res.match_index, out=u)
        assert shot.defect == res.match_defect
        assert np.array_equal(nv._normalize_samples(u, res.grid.step), wf.u)


# Coulomb levels of pe and pmu, and Chern-Simons levels of the kinds, atoms, lambdas
# (2e-6..2e-4), ell and node counts of the benchmark's concurrent workload
NEWTON_STATES = [
    (atom, kind, None, ell, nodes)
    for atom in ("pe", "pmu")
    for kind in ("coulomb2d", "coulomb3d")
    for ell, nodes in ((0, 0), (1, 1), (0, 3))
] + [
    ("pmu", "chern_simons", 2.28e-6, 0, 0),
    ("pmu", "chern_simons", 6.72e-5, 0, 1),
    ("de", "chern_simons", 3.5e-6, 1, 0),
    ("te", "chern_simons", 1.5e-4, 2, 0),
    ("tmu", "chern_simons", 2.2e-5, 2, 1),
    ("pe", "chern_simons", 8.0e-6, 1, 1),
    ("te", "chern_simons_jordan", 7.32e-5, 0, 0),
    ("dmu", "chern_simons_jordan", 9.91e-5, 0, 0),
    ("de", "chern_simons_jordan", 1.01e-4, 0, 0),
    ("tmu", "chern_simons_jordan", 1.9e-4, 0, 0),
]


class TestNewtonSearch:
    @pytest.mark.parametrize("atom,kind,lam,ell,nodes", NEWTON_STATES)
    def test_within_tolerance_of_tight_solve_in_few_shots(
        self, solve_cached, shots, atom, kind, lam, ell, nodes
    ):
        # the tight solve is not always converged: the pmu ground levels stop at
        # a bracket RESOLUTION_ULPS wide, above 1e-12 Ry at their depth
        _, ref, _ = solve_cached(atom, kind, lam, ell=ell, nodes=nodes, tol=1e-12)
        shots.clear()
        res, _ = nv.solve_state(make_problem(atom, kind, lam, ell), nodes)
        assert res.converged
        assert res.bracket_width <= nv.BISECTION_TOL
        assert abs(res.energy - ref.energy) <= nv.BISECTION_TOL
        # from the energy of the grid below: two shots when it lies within about the
        # tolerance, three when a first Newton step is needed, never an energy twice
        n = res.grid.n_points
        full = [e for m, e, _ in shots if m == n]
        assert len(full) <= 4 and len(set(full)) == len(full)
        assert all(sweeps <= 28 for sweeps in sweeps_per_grid(shots).values())

    def test_slope_is_the_defects_derivative(self, solve_cached):
        # -int u^2 / u(m)^2 over the defect's scale, against a central difference
        problem, res, _ = solve_cached("pe", "chern_simons", 2e-5)
        ws = workspace(problem, res.grid)
        out = np.empty(res.grid.n_points)
        slope = ws.shoot(res.energy, res.match_index, out=out).slope
        de = 1e-6
        up, down = (ws.shoot(res.energy + s * de, res.match_index, out=out).defect for s in (1, -1))
        assert slope < 0.0
        assert slope == pytest.approx((up - down) / (2 * de), rel=1e-3)


def cold(problem, nodes, grid=None):
    """The solve from the default bracket on the grid alone, without the cascade."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nv._ShootingWorkspace, "quartered", lambda ws: None)
        return nv.solve_state(problem, nodes, grid=grid)[0]


# the grids a solve on each default size cascades through, finest first
CASCADE = {
    200001: [200001, 50001, 12501, 3126],
    100001: [100001, 25001, 6251],
    50001: [50001, 12501, 3126],
}


class TestWarmStart:
    @pytest.mark.parametrize("nodes", range(4))
    @pytest.mark.parametrize("kind,lam", [
        ("coulomb3d", None), ("coulomb2d", None),
        ("chern_simons", 2e-5), ("chern_simons_jordan", 2e-5),
    ])
    def test_warm_and_cold_energies_agree(self, shots, kind, lam, nodes):
        # on the default grid named, so that every level of the cascade searches
        problem = make_problem("pe", kind, lam)
        grid = nv.default_grid(problem, nodes)
        warm, _ = nv.solve_state(problem, nodes, grid=grid)
        sweeps = sweeps_per_grid(shots)
        cold_res = cold(problem, nodes, grid)
        assert warm.converged and cold_res.converged
        assert warm.energy_error_ry is not None and cold_res.energy_error_ry is None
        assert abs(warm.energy - cold_res.energy) <= nv.BISECTION_TOL
        # every level of the cascade in the counts, and still the warm solve sweeps less
        n, *warm_below, coarsest = CASCADE[warm.grid.n_points]
        assert sweeps.keys() == {n, *warm_below, coarsest}
        assert warm.sweeps == sum(sweeps.values())
        assert warm.points_swept < cold_res.points_swept
        # no widening: the search on the grid is bounded as a cold one is, each warm
        # level below it takes at most five shots (measured: 2-5), and the coarsest
        # level's cold search as many sweeps as the quarter grid's did (11-21)
        assert 2 <= sweeps[n] <= 2 * warm.iterations + 2
        assert all(sweeps[k] <= 10 for k in warm_below)
        assert sweeps[coarsest] <= 22

    def test_default_sizes_quarter_down_to_the_coarsest_grid(self):
        # each level quarters until the next would not have MIN_POINTS or whole steps
        for n, expected in CASCADE.items():
            ws = workspace(z1_problem("coulomb3d"), nv.RadialGrid(1e-3, 40.0, n))
            chain = []
            while ws is not None:
                chain.append(ws.grid.n_points)
                assert (ws.grid.rho_min, ws.grid.rho_max) == (1e-3, 40.0)
                ws = ws.quartered()
            assert chain == expected

    def test_level_that_raises_starts_its_parent_cold(self, shots):
        # ell 7 on the default 50,001-point grid: f < 0 on the first swept row of
        # 3,126 points (h_c^2 l(l+1) / (12 rho^2) = 1.09), so that level raises before
        # its first sweep, and 12,501 points (f = 0.09) start cold
        problem = make_problem("pe", "coulomb3d", ell=7)
        res, _ = nv.solve_state(problem, 0)
        assert res.converged and res.energy_error_ry is not None
        assert abs(res.energy + md.make_atom("pe").zeta / 8**2) <= 1e-8
        sweeps = sweeps_per_grid(shots)
        assert sweeps == {3126: 0, 12501: sweeps[12501], 50001: sweeps[50001]}
        first = next(e for n, e, _ in shots if n == 12501)
        assert first == nv.default_bracket(problem, 0, nv.BISECTION_TOL)[0]
        assert sweeps[50001] <= 6

    def test_level_off_its_node_target_starts_its_parent_cold(self, monkeypatch, shots):
        # the joined sweeps of the two coarse grids count one node too many: neither
        # passes its energy up, so the grid of the request starts cold. Only a joined
        # array spans a whole grid; a shot counts the outward sweep up to its match.
        count = nv.count_nodes
        monkeypatch.setattr(nv, "count_nodes", lambda u: count(u) + (u.shape[0] in (1251, 5001)))
        problem = z1_problem("coulomb3d")
        grid = nv.RadialGrid(1e-6, 40.0, 20001)
        res, _ = nv.solve_state(problem, 0, grid=grid)
        assert res.converged and res.energy_error_ry is None
        first = next(e for n, e, _ in shots if n == 20001)
        assert first == nv.default_bracket(problem, 0, nv.BISECTION_TOL)[0]

    @pytest.mark.parametrize("atom,kind,lam,nodes", [
        ("pe", "chern_simons_jordan", 2e-4, 1),  # the widest gap measured two quarterings down
        ("tmu", "coulomb2d", None, 0),  # and one quartering down
    ])
    def test_widest_measured_gaps_stay_inside_the_pad(self, shots, atom, kind, lam, nodes):
        # each warm level's first shot is the energy below it; no shot leaves its pad.
        # On the default grid named, so that every depth of its cascade searches
        problem = make_problem(atom, kind, lam)
        res, _ = nv.solve_state(problem, nodes, grid=nv.default_grid(problem, nodes))
        assert res.converged
        for depth, n in enumerate(CASCADE[res.grid.n_points][:-1]):
            energies = [e for m, e, _ in shots if m == n]
            pad = max(nv.WARM_BRACKET_REL * nv.WARM_BRACKET_GROWTH**depth * abs(energies[0]),
                      nv.BISECTION_TOL)
            assert all(abs(e - energies[0]) <= pad for e in energies)

    @pytest.mark.parametrize("lam", [1e-40, 1e-30, 1e-25])
    def test_warm_bracket_of_a_level_shallower_than_tol_stays_below_zero(self, shots, lam):
        # E_4h + tol would reach positive energies, where f = 1 + h^2 g/12 leaves
        # Numerov's range on a box sized for a level of -1e-22 Ry or shallower
        res, _ = nv.solve_state(make_problem("pe", "chern_simons_jordan", lam), 0)
        assert res.converged and res.nodes == 0
        assert max(e for _, e, _ in shots) < 0.0

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
        # f < 0 on the first swept row of every coarser grid: ell 15 needs h <= 0.4 rho_min
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


@pytest.fixture
def levels(monkeypatch):
    """Log of the cascade's searches as ``(grid points, energy, sweeps, points swept)``,
    the counts running totals of the levels logged since the log was last cleared,
    each workspace counting its own."""
    log = []
    search = nv._search

    def recording(ws, *args, **kwargs):
        found = search(ws, *args, **kwargs)
        sweeps, points_swept = log[-1][2:] if log else (0, 0)
        log.append((ws.grid.n_points, found.shot.energy, sweeps + ws.sweeps,
                    points_swept + ws.points_swept))
        return found

    monkeypatch.setattr(nv, "_search", recording)
    return log


class TestAdaptiveFinish:
    """With no grid named, the default grid is the finest a solve may use."""

    @pytest.mark.parametrize("atom", ["pe", "pmu", "tmu"])
    @pytest.mark.parametrize("kind,lam", [
        ("coulomb3d", None), ("coulomb2d", None),
        ("chern_simons", 2e-6), ("chern_simons", 2e-5), ("chern_simons", 2e-4),
        ("chern_simons_jordan", 5e-5), ("chern_simons_jordan", 2e-4),
    ])
    def test_agrees_with_the_default_grid_named(self, kind, lam, atom):
        # both searches carry their own bracket: the energies agree within two of them
        # (measured: 8.2e-9 Ry at most, tmu coulomb2d ell 3, finishing on 25,001 points)
        for ell in range(4):
            for nodes in range(4):
                problem = make_problem(atom, kind, lam, ell)
                grid = nv.default_grid(problem, nodes)
                try:
                    pinned, _ = nv.solve_state(problem, nodes, grid=grid)
                except nv.BracketingError:
                    # weak jordan wells bind no such level: neither solve brackets one
                    with pytest.raises(nv.BracketingError):
                        nv.solve_state(problem, nodes)
                    continue
                free, _ = nv.solve_state(problem, nodes)
                assert pinned.grid == grid
                assert free.grid.n_points <= grid.n_points
                assert (free.grid.rho_min, free.grid.rho_max) == (grid.rho_min, grid.rho_max)
                assert (free.converged, free.nodes) == (pinned.converged, pinned.nodes)
                assert abs(free.energy - pinned.energy) <= 2 * nv.BISECTION_TOL

    @pytest.mark.parametrize("kind,lam,ell,nodes,points", [
        ("chern_simons", 2e-6, 2, 0, 12501),  # the CLI's check of the installed package
        ("chern_simons", 2e-5, 1, 0, 50001),
        ("coulomb3d", None, 0, 0, 12501),  # the radii table's pe row
        ("chern_simons", 2e-5, 0, 0, 200001),  # K0 ell-0 levels differ by more than tol
    ])
    def test_finishes_on_the_first_level_within_tol_of_the_one_below(
        self, levels, kind, lam, ell, nodes, points
    ):
        problem = make_problem("pe", kind, lam, ell)
        res, wf = nv.solve_state(problem, nodes)
        assert res.converged and res.grid.n_points == points and wf.grid == res.grid
        # every level ran up to the finished one and none past it; the level below
        # it converged, within tol of it, and gives the error estimate
        *_, (below, e_below, _, _), (last, e_last, sweeps, points_swept) = levels
        assert last == points and below == (last - 1) // 4 + 1
        assert all(n < points for n, *_ in levels[:-1])
        assert abs(e_last - e_below) <= nv.BISECTION_TOL or points == 200001
        assert res.energy == e_last
        assert res.energy_error_ry == (e_last - e_below) / 255.0
        assert (res.sweeps, res.points_swept) == (sweeps, points_swept)

    @pytest.mark.parametrize("kind,lam,ell,swept", [
        ("chern_simons", 2e-6, 2, [3126, 12501]),  # within tol of the level below
        ("chern_simons_jordan", 2e-4, 0, [3126, 12501, 50001]),  # the checked bound
    ])
    def test_finer_levels_neither_sweep_nor_evaluate_the_potential(
        self, shots, monkeypatch, kind, lam, ell, swept
    ):
        evaluated = []
        potential = nv.effective_potential

        def counting(problem, rho):
            evaluated.append(np.size(rho))
            return potential(problem, rho)

        monkeypatch.setattr(nv, "effective_potential", counting)
        problem = make_problem("pe", kind, lam, ell=ell)
        res, _ = nv.solve_state(problem, 0)
        assert res.grid.n_points == swept[-1]
        assert sweeps_per_grid(shots).keys() == set(swept)
        # every fourth point of the 200,001, all that the levels up to 50,001 points read
        assert evaluated == [50001]
        pinned, _ = nv.solve_state(problem, 0, grid=nv.default_grid(problem, 0))
        assert pinned.grid.n_points == 200001
        assert evaluated[1] == 50001 and sum(evaluated[1:]) == 200001

    @pytest.mark.parametrize("kind,lam,rho_max,points", [
        ("chern_simons", 2e-5, None, 200001),  # 50,000 rows of four: six full blocks and a part
        ("coulomb2d", None, None, 100001),
        ("coulomb3d", None, None, 4 * nv._BLOCK + 1),  # whole blocks only
        # linspace puts rho_max last, an ulp off 100,080 steps past rho_min
        ("coulomb3d", None, 62.5227664311167, 100081),
    ])
    def test_quarter_first_potential_is_the_grids_bit_for_bit(self, kind, lam, rho_max, points):
        problem = make_problem("tmu", kind, lam, ell=1)
        grid = nv.default_grid(problem, 0, rho_max=rho_max, n_points=points)
        expected = md.effective_potential(problem, grid.points())
        ws = workspace(problem, grid)
        coarse = ws.quartered()
        assert ws._u_eff is None  # the three quarters wait for the first use
        assert coarse.u_eff.tobytes() == expected[::4].tobytes()
        assert ws.u_eff.tobytes() == expected.tobytes()

    def test_explicit_grid_finishes_on_itself(self, levels):
        # the state's levels agree within tol from 12,501 points up, and still every
        # level of a named grid searches
        problem = make_problem("pe", "chern_simons", 2e-6, ell=2)
        for grid in (nv.default_grid(problem, 0), nv.default_grid(problem, 0, n_points=50001)):
            levels.clear()
            res, wf = nv.solve_state(problem, 0, grid=grid)
            assert res.grid == wf.grid == grid
            assert levels[-1][0] == grid.n_points


def checked_bound(levels):
    """The step-error bound of the second stop test on the last three levels of a
    ``levels`` log, each energy taken within ``BISECTION_TOL`` of its root; None
    where the observed ratio is not checked."""
    (e_16h, *_), (e_4h, *_), (e_h, *_) = (entry[1:] for entry in levels[-3:])
    tol = nv.BISECTION_TOL
    d1, d2 = e_4h - e_16h, e_h - e_4h
    lo1, hi2 = abs(d1) - 2 * tol, abs(d2) + 2 * tol
    return hi2 / (lo1 / hi2 - 1) if d1 * d2 > 0 and lo1 >= 16 * hi2 else None


class TestCheckedFinish:
    """With no grid named, a solve also finishes on the first level whose checked
    Richardson bound from the two converged levels below it is at most tol/4."""

    @pytest.mark.parametrize("nodes", [0, 1])
    def test_jordan_ground_levels_finish_on_50001_points(self, levels, nodes):
        problem = make_problem("pe", "chern_simons_jordan", 2e-4)
        res, wf = nv.solve_state(problem, nodes)
        assert res.converged and res.nodes == nodes
        assert res.grid.n_points == wf.grid.n_points == 50001
        assert [n for n, *_ in levels] == [3126, 12501, 50001]
        # the first stop test does not hold: the second one stopped the solve
        (_, e_4h, *_), (_, e_h, sweeps, points_swept) = levels[-2:]
        assert abs(e_h - e_4h) > nv.BISECTION_TOL
        assert checked_bound(levels) <= 0.25 * nv.BISECTION_TOL
        assert res.energy == e_h and res.energy_error_ry == (e_h - e_4h) / 255.0
        assert (res.sweeps, res.points_swept) == (sweeps, points_swept)

    def test_unchecked_levels_and_named_grids_keep_their_grid(self, levels):
        # chern-simons ell 0: the bound on 50,001 points reads about 7 tol
        res, _ = nv.solve_state(make_problem("pe", "chern_simons", 2e-5), 0)
        assert res.converged and res.grid.n_points == 200001
        assert checked_bound(levels[:-1]) > 0.25 * nv.BISECTION_TOL
        # the jordan level that finishes on 50,001 points with none named
        problem = make_problem("pe", "chern_simons_jordan", 2e-4)
        for points in (200001, 50001):
            grid = nv.default_grid(problem, 0, n_points=points)
            res, wf = nv.solve_state(problem, 0, grid=grid)
            assert res.converged and res.grid == wf.grid == grid

    def test_moved_levels_within_the_bound_of_a_finer_solve(self, levels):
        # against the same box on 800,001 points at 1e-12 Ry: the bound plus the
        # search tolerance (measured: 2.94e-9 Ry at most, pmu and tmu lambda 2e-4)
        tol = nv.BISECTION_TOL
        moved = 0
        for atom in ("pe", "tmu"):
            for lam in (5e-5, 2e-4):
                for nodes in range(4):
                    problem = make_problem(atom, "chern_simons_jordan", lam)
                    levels.clear()
                    try:
                        res, _ = nv.solve_state(problem, nodes)
                    except nv.BracketingError:
                        continue  # weak jordan wells bind no such level
                    (_, e_4h, *_), (_, e_h, *_) = levels[-2:]
                    if res.grid.n_points == 200001 or abs(e_h - e_4h) <= tol:
                        continue
                    moved += 1
                    grid = nv.RadialGrid(res.grid.rho_min, res.grid.rho_max, 800001)
                    fine, _ = nv.solve_state(problem, nodes, grid=grid, bisection_tol=1e-12)
                    assert res.converged and fine.converged
                    assert abs(res.energy - fine.energy) <= 0.25 * tol + tol
        assert moved >= 4

    @pytest.mark.parametrize("changes,finish", [
        ({}, 50001),
        # opposite signs of the two differences: no order is observed
        ({3126: (-2e-6, 1e-9, True)}, 200001),
        # an observed ratio below 16, though d2/(r - 1) would fit tol/4
        ({3126: (3e-7, 1e-9, True)}, 200001),
        # a ratio of 19 in the energies, 14.2 once each lies within its bracket
        ({3126: (3.96e-7, 5e-9, True), 12501: (2e-8, 5e-9, True)}, 200001),
        # a ratio of 20 and a bound of tol/2
        ({3126: (1.995e-6, 1e-9, True), 12501: (9.3e-8, 1e-9, True), 50001: (0.0, 1e-9, True)},
         200001),
        # a ratio and bound that pass, with an unconverged level in the run: one stopped
        # at the resolution floor wider than tol, or one that ran out of shots
        ({12501: (2e-8, 2e-8, True)}, 200001),
        ({12501: (2e-8, 1e-9, False)}, 200001),
        ({3126: (2e-6, 1e-9, False)}, 200001),
    ])
    def test_synthetic_chains(self, monkeypatch, changes, finish):
        # E_exact + e on each grid, the search's bracket width and whether it stopped done
        chain = {3126: (2e-6, 1e-9, True), 12501: (2e-8, 1e-9, True), 50001: (2e-10, 1e-9, True),
                 200001: (0.0, 1e-9, True), **changes}

        def search(ws, bracket, tol, e_coarse=None):
            n = ws.grid.n_points
            error, width, done = chain[n]
            shot = nv._Shot(-1.0 + error, n // 2, 0, -1.0, 0.0)
            return nv._Found(shot, np.ones(n), width, 1, done)  # nodeless sweeps

        monkeypatch.setattr(nv, "_search", search)
        res, _ = nv.solve_state(make_problem("pe", "chern_simons_jordan", 2e-4), 0)
        assert res.grid.n_points == finish


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


def mixed_states():
    """Six states of four kinds, each with its node count, for solves on 20,001 points."""
    return [
        (make_problem(atom, kind, lam, ell), nodes)
        for atom, kind, lam, ell, nodes in [
            ("pe", "chern_simons", 2e-5, 0, 0),
            ("pmu", "chern_simons", 2e-4, 1, 0),
            ("tmu", "chern_simons_jordan", 1e-4, 0, 0),
            ("pe", "coulomb2d", None, 0, 1),
            ("dmu", "chern_simons", 7e-6, 2, 1),
            ("te", "coulomb3d", None, 1, 0),
        ]
    ]


def solve_mixed(state):
    problem, nodes = state
    grid = nv.default_grid(problem, nodes, n_points=20001)
    res, wf = nv.solve_state(problem, nodes, grid=grid)
    return res.energy, res.iterations, res.points_swept, wf.u.tobytes()


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

    def test_solves_in_more_threads_than_cores_keep_their_scratch(self):
        # each thread solves in its own scratch block; one lent to two solves at once
        # would mix their sweeps. Six threads, switching every 10 us, must reproduce
        # the sequential solves bit for bit.
        states = mixed_states()
        sequential = [solve_mixed(s) for s in states] * 3
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                parallel = list(pool.map(solve_mixed, states * 3, timeout=300))
        finally:
            sys.setswitchinterval(previous)
        assert parallel == sequential


class TestScratchMemory:
    """A solve keeps its grid-sized buffers in scratch memory that outlives its shots."""

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_full_grid_shot_allocates_less_than_one_grid_array(self, solve_cached):
        problem, res, _ = solve_cached("pe", "chern_simons", 2e-5)
        ws = workspace(problem, res.grid)
        ws.shoot(res.energy, out=ws.joined)
        for match_index in (None, res.match_index):
            peak = self.traced_peak(lambda: ws.shoot(res.energy, match_index, out=ws.joined))
            # 9.26 MB, 5.8 arrays, when every shot allocated its own
            assert peak < 8 * res.grid.n_points

    def test_solve_allocates_under_four_grid_arrays(self):
        problem = make_problem("pe", "chern_simons", 2e-5)
        nv.solve_state(problem, 0)  # this thread's scratch block, taken before the count
        n = nv.default_grid(problem, 0).n_points
        peak = self.traced_peak(lambda: nv.solve_state(problem, 0))
        # 2.38 arrays, while the normalized wavefunction's nodes are counted: the
        # potential, the wavefunction and three boolean arrays of an eighth each. The
        # potential in quarters keeps its evaluation below that; on all points at once
        # it peaked at 3.51, and 4.63 when the normalization took u^2 and |u| as arrays
        # of their own
        assert peak <= 3.7 * 8 * n

    def test_potential_allocates_its_output_and_k0s(self, solve_cached):
        problem, res, _ = solve_cached("pe", "chern_simons", 2e-5)
        rho = res.grid.points()
        peak = self.traced_peak(lambda: md.effective_potential(problem, rho))
        # the output, which first holds K0's argument, K0's result, and one K0
        # block's masks, masked argument and five series sums: 2.5 arrays, against
        # 9.3 out of place
        assert peak <= 2 * rho.nbytes + 7 * 8 * sf._K0_BLOCK

    def test_two_workspaces_in_one_thread_shot_alternately(self):
        problems = [make_problem("pe", "chern_simons", 2e-5), make_problem("pmu", "coulomb2d")]
        grids = [nv.default_grid(p, 0, n_points=n) for p, n in zip(problems, (20001, 40001))]
        energies = [nv.solve_state(p, 0, grid=g)[0].energy for p, g in zip(problems, grids)]
        trials = [(1.0 + k * 1e-3, gated) for k in range(-2, 3) for gated in (False, True)]

        def shoot(ws, energy, scale, gated):
            ws.joined.fill(np.nan)
            return ws.shoot(energy * scale, gated=gated, out=ws.joined)

        blocks = [nv._new_block(nv._scratch_size(g.n_points)) for g in grids]
        pair = [nv._ShootingWorkspace(p, g, b) for p, g, b in zip(problems, grids, blocks)]
        alternate = []
        for trial in trials:
            # both shoot before either's joined sweeps are read: memory the two
            # shared would hold the second's
            shots = [shoot(ws, e, *trial) for ws, e in zip(pair, energies)]
            alternate.append([(shot, ws.joined.tobytes()) for shot, ws in zip(shots, pair)])
        for k, (p, g, e) in enumerate(zip(problems, grids, energies)):
            ws = workspace(p, g)
            alone = [(shoot(ws, e, *trial), ws.joined.tobytes()) for trial in trials]
            assert alone == [row[k] for row in alternate]

    def test_a_thread_keeps_one_block_the_largest_it_needed(self):
        scratch = nv._Scratch()
        small = scratch.at_least(1000)
        assert small.shape == (1000,)
        assert scratch.at_least(500) is small and scratch.at_least(1000) is small
        big = scratch.at_least(2000)
        assert big.shape == (2000,) and not np.shares_memory(small, big)
        assert scratch.at_least(1000) is big and scratch.block is big

    def test_a_full_grid_block_holds_four_grid_buffers_and_the_band(self):
        # the inward sweep, f and the search's two joined buffers, into which shots
        # sweep outward: 6.6 MB at 200,001 points
        problem = make_problem("pe", "chern_simons", 2e-5)
        grid = nv.default_grid(problem, 0)
        n = grid.n_points
        assert n == 200001
        assert nv._scratch_size(n) == 4 * n + 3 * (nv._BLOCK + 2)
        memory = nv._new_block(nv._scratch_size(n))
        ws = nv._ShootingWorkspace(problem, grid, memory)
        buffers = [ws._right, ws._f, ws.joined, ws.spare, ws._band]
        assert [b.shape for b in buffers] == [(n,)] * 4 + [(3, nv._BLOCK + 2)]
        assert sum(b.size for b in buffers) == memory.size
        assert all(np.shares_memory(b, memory) for b in buffers)
        for k, a in enumerate(buffers):
            assert not any(np.shares_memory(a, b) for b in buffers[k + 1 :])

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
    )
    def test_forked_process_solves_apart_from_its_parent(self):
        # the child inherits this thread's scratch block; were its pages shared rather
        # than copied on write, the two processes' solves would overwrite each other's
        # sweeps. Both solve at once, in opposite orders, and must reproduce the
        # sequential solves bit for bit.
        states = mixed_states() * 2
        sequential = [solve_mixed(s) for s in states]
        assert nv._SCRATCH.block is not None
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        go = ctx.Event()

        def solve_all(order):
            try:
                return [solve_mixed(states[k]) for k in order]
            except Exception as err:  # sweeps overwritten mid-solve can end in any error
                return repr(err)

        def child():
            go.wait(60)
            writer.send(solve_all(reversed(range(len(states)))))

        process = ctx.Process(target=child)
        process.start()
        try:
            go.set()
            in_parent = solve_all(range(len(states)))
            assert reader.poll(300), "the forked process sent no result"
            in_child = reader.recv()
        finally:
            process.join(60)
            if process.is_alive():
                process.kill()
        assert process.exitcode == 0
        if isinstance(in_child, list):
            in_child.reverse()
        assert in_parent == sequential
        assert in_child == sequential

    def test_wavefunction_is_not_scratch_memory(self):
        problem = make_problem("pe", "chern_simons", 2e-5)
        grid = nv.default_grid(problem, 0, n_points=20001)
        _, first = nv.solve_state(problem, 0, grid=grid)
        block = nv._SCRATCH.block
        assert not np.shares_memory(first.u, block)
        _, second = nv.solve_state(problem, 0, grid=grid)
        assert nv._SCRATCH.block is block
        assert first.u.tobytes() == second.u.tobytes()

    def test_a_threads_block_is_freed_when_it_ends(self):
        problem = make_problem("pe", "chern_simons", 2e-5)
        grid = nv.default_grid(problem, 0, n_points=20001)
        refs = []

        def solve():
            nv.solve_state(problem, 0, grid=grid)
            refs.append(weakref.ref(nv._SCRATCH.block))

        thread = threading.Thread(target=solve)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None
