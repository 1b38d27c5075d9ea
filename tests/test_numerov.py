import json
import math
import multiprocessing
import sys
import tracemalloc
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

    def test_points_uniform_in_log_rho(self):
        g = nv.RadialGrid(0.1, 10.0, 1000)
        pts = g.points()
        assert pts[0] == pytest.approx(0.1, rel=1e-15) and pts[-1] == pytest.approx(10.0, rel=1e-15)
        assert g.step == pytest.approx(math.log(100.0) / 999, rel=1e-15)
        assert np.allclose(np.diff(np.log(pts)), g.step, rtol=1e-12, atol=0.0)

    def test_halved_step_nests(self):
        g = nv.RadialGrid(0.1, 10.0, 1001)
        g2 = halved(g)
        assert g2.n_points == 2001
        assert np.allclose(g2.points()[::2], g.points(), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("rho_min,rho_max,points", [
        (1e-5, 60.0, nv.DEFAULT_POINTS),
        (2.4e-5, 97.0, 200001),
        (1e-6, 40.0, 4 * nv._BLOCK + 1),
        (3.1e-7, 62.5227664311167, 100081),
    ])
    def test_quarter_points_are_every_fourth_point_bit_for_bit(self, rho_min, rho_max, points):
        # so a coarser level's view of every fourth point of the potential is the
        # potential at its own points
        grid = nv.RadialGrid(rho_min, rho_max, points)
        quarter = nv.RadialGrid(rho_min, rho_max, (points - 1) // 4 + 1)
        assert grid.points()[::4].tobytes() == quarter.points().tobytes()


def sweep(c, u0, u1, rho):
    """``nv._sweep`` into buffers of its own, its rows at the points ``rho``."""
    out, band = np.empty(c.shape[0]), np.empty((3, nv._BLOCK + 2), order="F")
    return nv._sweep(c, u0, u1, rho, out, band, np.empty(nv._BLOCK + 2))


def summed_c(q):
    """The summed sweep's ``c = q/f``, ``f = 1 + q/12``, for ``q = h^2 g``."""
    return q / (1.0 + q / 12.0)


def numerov_c(g, rho):
    """``c`` at evenly spaced ``rho`` for ``g`` given as a callable of rho."""
    return summed_c((rho[1] - rho[0]) ** 2 * np.asarray(g(rho), dtype=float))


def langer_q(problem, energy, grid):
    """The grid's points and ``q = h^2 (rho^2 (E - U_eff) - 1/4)`` on them."""
    rho = grid.points()
    g = rho * rho * (energy - md.effective_potential(problem, rho)) - 0.25
    return rho, grid.step**2 * g


def langer_c(problem, energy, grid):
    """The grid's points and the summed sweep's ``c`` on them."""
    rho, q = langer_q(problem, energy, grid)
    return rho, summed_c(q)


def outward_seeds(problem, energy, rho, h):
    """The two outward seeds of ``phi = u/sqrt(rho)``: 1, then ``e^((s - 1/2) h)``
    times the Frobenius series' ratio."""
    series = nv.small_rho_solution(problem, energy, rho[:2])
    return 1.0, math.exp((nv.indicial_exponent(problem) - 0.5) * h) * series[1] / series[0]


class TestSweep:
    def test_exponential(self):
        # grid near the truncation/roundoff optimum of the recurrence
        rho = np.linspace(0.1, 5.0, 2001)
        c = numerov_c(lambda r: -np.ones_like(r), rho)
        u = sweep(c, math.exp(rho[0]), math.exp(rho[1]), rho)
        assert np.max(np.abs(u / np.exp(rho) - 1.0)) < 1e-9

    def test_harmonic(self):
        rho = np.linspace(0.1, 10.0, 1001)
        c = numerov_c(lambda r: np.ones_like(r), rho)
        u = sweep(c, math.sin(rho[0]), math.sin(rho[1]), rho)
        assert np.max(np.abs(u - np.sin(rho))) < 1e-9

    def test_inward_exponential(self):
        rho = np.linspace(0.1, 5.0, 2001)
        c = numerov_c(lambda r: -np.ones_like(r), rho)
        u = sweep(c[::-1], math.exp(-rho[-1]), math.exp(-rho[-2]), rho[::-1])[::-1]
        assert np.max(np.abs(u / np.exp(-rho) - 1.0)) < 1e-9

    def test_hydrogen_ground_state_profile(self):
        # the outward sweep of phi = u/sqrt(rho) on a log grid tracks
        # sqrt(rho) exp(-rho) until growing-mode contamination takes over well
        # past the turning point
        problem = z1_problem("coulomb3d")
        grid = nv.RadialGrid(1e-6, 30.0, 4001)
        rho, c = langer_c(problem, -1.0, grid)
        exact = oracles.hydrogen_ground_u(rho, 1.0) / np.sqrt(rho)
        phi = sweep(c, exact[0], exact[1], rho)
        inner = (rho > 0.05) & (rho < 4.0)
        assert np.max(np.abs(phi[inner] / exact[inner] - 1.0)) < 1e-7

    def test_scan_matches_reference_loop(self):
        rng = np.random.default_rng(7)
        n = 3000
        g = 1.0 - 0.5 * np.linspace(0, 1, n) + 0.05 * rng.standard_normal(n)
        c = summed_c(0.01**2 * g)
        fast = sweep(c, 0.37, 0.38, 0.01 * np.arange(n))
        slow = oracles.sweep_loop(c, 0.37, 0.38)
        # forward substitution runs the loop's recurrence; only fused
        # multiply-adds in LAPACK set the two apart
        assert np.allclose(fast, slow, rtol=1e-8, atol=1e-300)

    def test_cs_sweep_matches_reference_loop(self, solve_cached):
        problem, res, _ = solve_cached("pe", "chern_simons", 2e-5)
        rho, c = langer_c(problem, res.energy, res.grid)
        seeds = outward_seeds(problem, res.energy, rho, res.grid.step)
        m = nv._outer_turning_point(md.effective_potential(problem, rho), res.energy, res.grid.step)
        fast = sweep(c, *seeds, rho)[: m + 1]
        slow = oracles.sweep_loop(c, *seeds)[: m + 1]
        assert c.shape[0] == nv.DEFAULT_POINTS
        assert np.max(np.abs(fast - slow)) <= 1e-9 * np.max(np.abs(slow))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision"
    )
    def test_cs_sweep_within_rounding_of_long_double_loop(self, solve_cached):
        # 5.8e-15 of the peak with scipy's OpenBLAS 0.3.31 on x86-64, where the
        # textbook form in doubles lost 2.3e-10
        self.check_against_long_double(solve_cached, nv.DEFAULT_POINTS)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision"
    )
    def test_fine_grid_sweep_within_rounding_of_long_double_loop(self, solve_cached):
        # the summed form adds no q to 1, so a grid 16 times finer loses no bits:
        # 6.2e-15 of the peak, where the textbook form in doubles lost 1.1e-7
        self.check_against_long_double(solve_cached, 64001)

    @staticmethod
    def check_against_long_double(solve_cached, n_points):
        problem, res, _ = solve_cached("pe", "chern_simons", 2e-5)
        grid = nv.RadialGrid(res.grid.rho_min, res.grid.rho_max, n_points)
        rho, q = langer_q(problem, res.energy, grid)
        seeds = outward_seeds(problem, res.energy, rho, grid.step)
        m = nv._outer_turning_point(md.effective_potential(problem, rho), res.energy, grid.step)
        fast = sweep(summed_c(q), *seeds, rho)[: m + 1]
        exact = oracles.numerov_loop_longdouble(q[: m + 1], *seeds)
        assert np.max(np.abs(fast - exact)) <= 1e-13 * np.max(np.abs(exact))

    def test_one_row_last_segment(self):
        # the next-to-last row alone grows by over _SEGMENT_GROWTH nats (sqrt(1.2e5) =
        # 346), so the sweep's last segment is that one row
        c = np.zeros(1000)
        c[-2] = -1.2e5
        rho = 0.1 * np.arange(1000)
        fast = sweep(c, 0.5, 0.6, rho)
        slow = oracles.sweep_loop(c, 0.5, 0.6)
        assert np.allclose(fast, slow, rtol=1e-12, atol=0.0)

    def test_deep_forbidden_region_renormalizes(self):
        # growth by thousands of e-folds must neither overflow nor crash
        n = 200001
        c = summed_c(0.05**2 * np.full(n, -9.0))  # g = -9, e^(3 rho) growth
        u = sweep(c, 1e-3, 1e-3 * math.exp(0.15), 0.05 * np.arange(n))
        assert np.all(np.isfinite(u))
        assert np.max(np.abs(u)) <= nv.RESCALE_THRESHOLD * 10

    def test_overflow_raises_solver_error(self):
        # e^0.15 per row over 999 rows: fits one segment, but not from seeds near 1e300
        c = summed_c(0.05**2 * np.full(1000, -9.0))
        rho = 0.05 * np.arange(1000)
        with pytest.raises(nv.SweepOverflowError, match=r"starts from 1e\+300 and 1\.16e\+300"):
            sweep(c, 1e300, 1e300 * math.exp(0.15), rho)

    def test_nonfinite_g_rejected(self):
        rho = np.linspace(0.1, 5.0, 1000)
        c = numerov_c(lambda r: np.full_like(r, np.nan), rho)
        with pytest.raises(nv.GridTooCoarseError, match="finite"):
            sweep(c, 1.0, 1.0, rho)

    @pytest.mark.parametrize("inward", [False, True])
    def test_nonpositive_f_named_by_the_grids_rho(self, inward):
        # the row's own rho on a log grid, read from the points swept, in either direction
        rho = nv.RadialGrid(0.1, 5.0, 1000).points()
        f = np.where(rho > 4.0, -1.0, 1.001)
        if inward:
            rho, f = rho[::-1], f[::-1]
        bad = rho[2:][f[2:] < 0.0][0]
        with pytest.raises(nv.GridTooCoarseError,
                           match=rf"rho={bad:.6g}: f = 1 \+ h\^2 g/12 = -1 .*more points or a "
                                 "smaller rho_max"):
            sweep(summed_c(12.0 * (f - 1.0)), 1.0, 1.0, rho)

    def test_oscillation_past_stability_limit_rejected(self):
        # f = 2 (c = 6): 2 - c = -4, so a mode grows by 1.32 nats per step with
        # alternating sign and a 1000-row sweep would overflow
        rho = 0.1 * np.arange(1000)
        with pytest.raises(nv.GridTooCoarseError, match=r"rho=0\.2: f = 1 \+ h\^2 g/12 = 2 "):
            sweep(np.full(1000, 6.0), 1.0, 1.0, rho)

    def test_oscillation_inside_stability_limit_matches_reference_loop(self):
        # f = 1.45: under 2.7 points per wavelength, yet the recurrence stays bounded
        c = np.full(1000, summed_c(12.0 * 0.45))
        fast = sweep(c, 0.0, 1.0, 0.1 * np.arange(1000))
        slow = oracles.sweep_loop(c, 0.0, 1.0)
        assert np.all(np.abs(slow) < 10.0)
        assert np.max(np.abs(fast - slow)) <= 1e-9


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBlockedSweep:
    """``_sweep`` in blocks of ``_BLOCK // 2`` rows against one solve per segment."""

    B = nv._BLOCK
    R = B // 2  # grid rows of a block

    @staticmethod
    def cs_c(n_points):
        # pe chern-simons just below its ground level (-1.565 Ry): allowed, then forbidden
        problem = make_problem("pe", "chern_simons", 2e-5)
        return langer_c(problem, -1.6, nv.RadialGrid(1e-5, 60.0, n_points))

    # points, so rows = points - 2: one block short or full, one row past a block
    # (a last block of one row after its two carried rows), and two blocks and one row
    @pytest.mark.parametrize("extra", [-1, 0, 1, 2, 3])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_outward_equals_one_solve(self, blocks, extra):
        rho, c = self.cs_c(blocks * self.R + extra)
        seeds = (0.011, 0.012)
        assert _same_bits(sweep(c, *seeds, rho), oracles.sweep_one_solve_per_segment(c, *seeds))

    # just short of two blocks, and just past two and four
    @pytest.mark.parametrize("n_points", [B - 1, B + 3, 2 * B + 3])
    def test_inward_on_reversed_view_equals_one_solve(self, n_points):
        rho, c = self.cs_c(n_points)
        seeds = (1e-150, 1e-150 * math.exp(0.4 * (rho[1] - rho[0])))
        fast = sweep(c[::-1], *seeds, rho[::-1])
        assert _same_bits(fast, oracles.sweep_one_solve_per_segment(c[::-1], *seeds))

    @pytest.mark.parametrize(
        "n, g, spread",
        [
            (3 * B + 7, -9.0, 0.0),  # segments of 2,000 rows, about two to a block
            (200001, -0.01, 0.5),  # segments of ~60,000 rows spanning blocks
        ],
    )
    def test_forbidden_region_segments_and_rescaling(self, n, g, spread):
        rng = np.random.default_rng(n)
        c = summed_c(0.05**2 * g * (1.0 + spread * rng.random(n)))
        rho = 0.05 * np.arange(n)
        fast = sweep(c, 1e-3, 1.01e-3, rho)
        slow = oracles.sweep_one_solve_per_segment(c, 1e-3, 1.01e-3)
        assert np.max(np.abs(slow)) <= nv.RESCALE_THRESHOLD * 10  # it did rescale
        assert abs(slow[-1]) > 1e-100
        assert _same_bits(fast, slow)

    def test_one_row_spanning_several_segments(self):
        # the growth bound of the row at c = -1.2e6, sqrt(-c) = 1095, spans more than
        # three segments of _SEGMENT_GROWTH = 300: four cuts stop on that row, so the
        # three segments between them are empty
        c = np.full(2000, summed_c(-1.2))
        c[1000] = -1.2e6
        rho = 0.01 * np.arange(c.shape[0])
        assert _same_bits(sweep(c, 1e-3, 1.01e-3, rho),
                          oracles.sweep_one_solve_per_segment(c, 1e-3, 1.01e-3))

    def test_writes_only_into_given_buffers(self):
        rho, c = self.cs_c(2 * self.R + 3)
        out = np.full(c.shape[0] + 5, 7.0)
        band = np.empty((3, nv._BLOCK + 2), order="F")
        t = np.empty(nv._BLOCK + 2)
        u = nv._sweep(c, 0.011, 0.012, rho, out, band, t)
        assert np.shares_memory(u, out) and u.shape == c.shape
        assert np.all(out[c.shape[0] :] == 7.0)
        assert _same_bits(u, oracles.sweep_one_solve_per_segment(c, 0.011, 0.012))


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_samples_raise(self, bad):
        with pytest.raises(ValueError, match="samples must be finite"):
            nv.count_nodes(np.array([0.5, 1.0, bad, -1.0, -0.5]))

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
    ws = nv._ShootingWorkspace(problem, grid)
    return ws.shoot(energy, match_index, out=ws.joined).defect


class TestMatchDefect:
    def grid3(self):
        return nv.RadialGrid(1e-6, 40.0, 4001)

    def match_index(self, grid, rho_star):
        return int(round(math.log(rho_star / grid.rho_min) / grid.step))

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

    def test_node_pinned_at_the_match_index_counts_above(self):
        # the outward sweep's value at m changes sign across an eigenvalue of the left
        # problem on [rho_min, rho_m], 0.246 Ry above the level: a shot an ulp from it has
        # a node pinned at m, gets no defect and lies above the level
        problem = make_problem("pe", "chern_simons", 2e-5)
        grid = nv.default_grid(problem, 0, n_points=20001)
        res, _ = nv.solve_state(problem, 0, grid=grid)
        m = res.match_index
        ws = nv._ShootingWorkspace(problem, grid)

        def shoot(energy):
            # the shot and its outward sweep's value at m
            return ws.shoot(energy, m, out=ws.joined), ws.joined[m]

        lo, hi = res.energy, 0.5 * res.energy
        assert shoot(lo)[1] > 0.0 > shoot(hi)[1]
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if shoot(mid)[1] > 0.0:
                lo = mid
            else:
                hi = mid
        assert math.nextafter(lo, math.inf) == hi
        for energy in (lo, hi):
            shot, _ = shoot(energy)
            assert shot.defect is None and shot.slope is None
            # the count runs through m: past the pinned node it reads one
            assert shot.below is False and shot.nodes == (energy == hi)
            assert shot.energy > res.energy


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
        # h = 9.4e-3 in ln rho is 0.94 pmu decay lengths at rho = 100: f < 0 on the
        # outermost rows, where the log grid is coarsest in rho. This solve used to
        # end on a one-node level at -171.44 Ry with exit 2, after 55 shots
        problem = make_problem("pmu", "coulomb3d")
        grid = nv.default_grid(problem, 0, rho_max=100.0, n_points=2001)
        message = r"rho=\d\d\.\d+: f = 1 \+ h\^2 g/12 = -.*; use more points or a smaller rho_max"
        with pytest.raises(nv.GridTooCoarseError, match=message):
            nv.solve_state(problem, 0, grid=grid)

    @pytest.mark.parametrize("n_points", [8001, 32001, 200001])
    def test_named_fine_grid_lies_within_tol_of_the_closed_form(self, n_points):
        # the summed sweep adds no h^2 g/12 to 1, so a finer grid loses no bits of g:
        # in the textbook form pmu's 2D ground level (743 Ry) lay 1.4e-7 Ry off on 8,001
        # points and 2.8e-6 Ry on 128,001, flagged converged
        problem = make_problem("pmu", "coulomb2d")
        grid = nv.default_grid(problem, 0, n_points=n_points)
        res, _ = nv.solve_state(problem, 0, grid=grid)
        exact = oracles.coulomb2d_energy(md.make_atom("pmu").zeta, 0)
        assert res.converged and res.grid == grid
        assert abs(res.energy - exact) <= nv.BISECTION_TOL
        assert abs(res.energy - exact) <= 1.25 * abs(res.energy_error_ry or 0.0) + nv.BISECTION_TOL

    @pytest.mark.parametrize("kind,lam", [("coulomb2d", None), ("chern_simons", 2e-5)])
    def test_named_rho_min_past_the_seed_series_rejected(self, kind, lam):
        # MAX_RHO_MIN_KAPPA ground-level decay lengths out, and no farther, whatever the
        # node count: past it the seed's truncated series moves the level
        problem = make_problem("pmu", kind, lam)
        e = nv.closed_form_energy(problem, 0) or nv.estimate_cs_ground_energy(problem)
        edge = nv.MAX_RHO_MIN_KAPPA / math.sqrt(-e)
        for nodes in (0, 2):
            assert nv.default_grid(problem, nodes, rho_min=edge).rho_min == edge
            with pytest.raises(nv.GridTooCoarseError, match=r"^grid starts past the state: "
                               rf"rho_min={2 * edge:.6g} is 0\.02 decay lengths from the origin, "
                               rf"above 0\.01; use rho_min <= {edge:.6g}$"):
                nv.default_grid(problem, nodes, rho_min=2 * edge)

    @pytest.mark.parametrize("ell", [7, 10])
    def test_default_3d_grid_solves_high_ell(self, ell):
        # f = 1 - h^2 (l + 1/2)^2 / 12 near the origin: no high ell moves rho_min out
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

    @pytest.mark.parametrize("kind,lam", [
        ("coulomb3d", None), ("coulomb2d", None),
        ("chern_simons", 2e-5), ("chern_simons_jordan", 2e-4),
    ])
    def test_default_grid_starts_1e5_decay_lengths_out(self, kind, lam):
        # one rule for every kind, ell and node count, and one point count, 4,001,
        # unless the quarter would step more than EDGE_STEP decay lengths of the
        # bracket's bottom at the box's edge: then the fewest points that keep it there
        for ell in (0, 3, 12):
            for nodes in (0, 2):
                problem = make_problem("pmu", kind, lam, ell)
                e = nv.closed_form_energy(problem, nodes) or nv.estimate_cs_ground_energy(problem)
                grid = nv.default_grid(problem, nodes)
                assert grid.rho_min == 1e-5 / math.sqrt(-e)
                kappa_lo = math.sqrt(-nv.default_bracket(problem, nodes, nv.BISECTION_TOL)[0])
                span = math.log(grid.rho_max / grid.rho_min)

                def edge(n):
                    return 4.0 * span / (n - 1) * grid.rho_max * kappa_lo

                assert nv.DEFAULT_POINTS == 4001 and (grid.n_points - 1) % 4 == 0
                if kind.startswith("coulomb") or nodes == 0:
                    assert grid.n_points == nv.DEFAULT_POINTS
                if grid.n_points == nv.DEFAULT_POINTS:
                    assert edge(grid.n_points) <= nv.EDGE_STEP
                else:
                    assert edge(grid.n_points) <= nv.EDGE_STEP < edge(grid.n_points - 4)

    def test_cs_ground_same_scale_as_reference(self, solve_cached):
        # informational: the reference table lists -2.2417 for this cell
        _, res, _ = solve_cached("pe", "chern_simons", 2e-6)
        assert res.converged
        assert res.energy == pytest.approx(-2.2417, rel=0.05)

    def test_wavefunction_contract(self, solve_cached):
        from scipy.integrate import simpson

        problem, res, wf = solve_cached("pe", "coulomb2d")
        rho = wf.grid.points()
        # int u^2 drho = int rho u^2 dx
        assert abs(simpson(rho * wf.u**2, dx=wf.grid.step) - 1.0) < 1e-10
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

    def test_converged_is_a_plain_bool_when_defect_misses(self, monkeypatch):
        # the bracket closes on a level whose defect misses DEFECT_TOL, here set
        # below any defect, and the flag must still serialize
        monkeypatch.setattr(nv, "DEFECT_TOL", 0.0)
        problem = make_problem("pmu", "coulomb2d")
        res, _ = nv.solve_state(problem, 0)
        assert res.bracket_width <= nv.BISECTION_TOL
        assert abs(res.match_defect) > nv.DEFECT_TOL
        assert type(res.converged) is bool
        assert json.dumps(res.converged) == "false"

    def test_iteration_budget_flags_nonconverged(self, monkeypatch):
        # the budget caps search steps; without it this search runs 5, see below
        monkeypatch.setattr(nv, "MAX_SEARCH_STEPS", 3)
        problem = z1_problem("coulomb3d")
        grid = nv.RadialGrid(1e-6, 40.0, 20001)
        res, _ = nv.solve_state(problem, 0, grid=grid, bisection_tol=1e-300)
        assert not res.converged
        assert res.iterations == 3

    def test_tolerance_below_resolution_stops(self, shots):
        # no sweep tells apart energies a few ulps apart: the search stops once its
        # bracket is RESOLUTION_ULPS wide instead of halving it down to one ulp.
        # Each coarse level that stops there with its node target and defect passes
        # its energy up (measured: 3 shots on this grid, 20 sweeps in all)
        problem = z1_problem("coulomb3d")
        grid = nv.RadialGrid(1e-6, 40.0, 4001)
        res, _ = nv.solve_state(problem, 0, grid=grid, bisection_tol=1e-300)
        assert not res.converged
        assert res.bracket_width <= nv.RESOLUTION_ULPS * math.ulp(res.energy)
        assert abs(res.energy + 1.0) <= 1e-11
        assert res.energy_error_ry is not None
        assert res.iterations == len([n for n, _, _ in shots if n == 4001]) <= 19
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

    def test_trial_above_the_box_edge_matches_at_half_the_box(self, solve_cached):
        # the chern-simons well is still -0.62 Ry deep at the edge of its 60-wide box,
        # below the default bracket's top: a trial there has no turning point in the
        # box and matches at rho_max/2. The index midpoint of a log grid sits at
        # sqrt(rho_min rho_max), about rho = 0.02
        problem, res, _ = solve_cached("pe", "chern_simons", 2e-5)
        ws = nv._ShootingWorkspace(problem, res.grid)
        top = nv.default_bracket(problem, 0, nv.BISECTION_TOL)[1]
        assert ws.u_eff[-1] < top < 0.0
        shot = ws.shoot(top, out=ws.joined)
        assert ws.rho[shot.m] == pytest.approx(0.5 * res.grid.rho_max, rel=res.grid.step)
        assert not shot.below and shot.nodes > 0

    def test_deep_level_defect_changes_sign_once(self, solve_cached):
        # sweep roundoff must not add roots near a deep level: a spurious
        # crossing lets the search stop up to 4e-8 Ry away from it
        problem, res, _ = solve_cached("pe", "chern_simons", 2e-4)
        ws = nv._ShootingWorkspace(problem, res.grid)
        m = nv._outer_turning_point(ws.u_eff, res.energy, ws.h)
        energies = res.energy + 1e-8 * np.arange(-8, 9)
        defects = [ws.shoot(e, m, out=ws.joined).defect for e in energies]
        signs = np.sign(defects)
        assert np.count_nonzero(signs[1:] != signs[:-1]) == 1


class TestIndependentK0Reference:
    """K0 levels against Chebyshev collocation of the Langer form, which shares no
    discretisation, seed or Bessel code with the program (``oracles.chebyshev_levels``)."""

    @pytest.mark.parametrize("lam", [2e-6, 2e-5, 2e-4])
    @pytest.mark.parametrize("atom", ["pe", "pmu", "tmu"])
    @pytest.mark.parametrize("kind", ["chern_simons", "chern_simons_jordan"])
    def test_ell0_levels_within_their_error_estimate(self, solve_cached, kind, atom, lam):
        # a grid starting 80 steps out, which truncated the origin seed, read the pe
        # chern-simons lambda 2e-5 ground level -2.74e-8 Ry off and its one-node level
        # -1.55e-7, both flagged converged
        problem = make_problem(atom, kind, lam)
        kappa = math.sqrt(-nv.estimate_cs_ground_energy(problem))
        reference = oracles.chebyshev_levels(problem, kappa)
        for nodes in (0, 1):
            _, res, _ = solve_cached(atom, kind, lam, nodes=nodes)
            assert res.converged and res.nodes == nodes
            bound = 1.25 * abs(res.energy_error_ry) + nv.BISECTION_TOL
            assert abs(res.energy - reference[nodes]) <= bound

    def test_collocation_agrees_with_closed_forms(self):
        # the oracle itself: Coulomb levels, 3D ell 1 and 2D ell 2, within 1e-11 Ry
        for kind, ell in (("coulomb3d", 1), ("coulomb2d", 2)):
            problem = make_problem("pe", kind, ell=ell)
            kappa = math.sqrt(-nv.closed_form_energy(problem, 0))
            levels = oracles.chebyshev_levels(problem, kappa)
            exact = [nv.closed_form_energy(problem, k) for k in (0, 1)]
            assert levels[:2] == pytest.approx(exact, rel=0.0, abs=1e-11)


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
        # the wavefunction is the returned level's: its grid and its node count
        assert wf.grid == res.grid
        assert nv.count_nodes(wf.u) == res.nodes == nodes
        assert res.bracket_width <= nv.BISECTION_TOL

    @pytest.mark.parametrize("kind,lam", [("coulomb2d", None), ("chern_simons", 2e-5)])
    def test_wavefunction_is_the_returned_shot(self, solve_cached, kind, lam):
        # the search keeps the joined sweeps of its better end instead of
        # shooting the returned energy again
        problem, res, wf = solve_cached("pe", kind, lam)
        u = np.empty(res.grid.n_points)
        shot = nv._ShootingWorkspace(problem, res.grid).shoot(res.energy, res.match_index, out=u)
        assert shot.defect == res.match_defect
        assert np.array_equal(nv._normalize_samples(u, res.grid.step, res.grid.points()), wf.u)


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
        ws = nv._ShootingWorkspace(problem, res.grid)
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


def cascade(n_points):
    """The grid sizes a solve on ``n_points`` cascades through, finest first:
    quartered while ``n - 1`` is a multiple of 4 and the quarter keeps ``MIN_POINTS``."""
    sizes = [n_points]
    while (sizes[-1] - 1) % 4 == 0 and (sizes[-1] - 1) // 4 + 1 >= nv.MIN_POINTS:
        sizes.append((sizes[-1] - 1) // 4 + 1)
    return sizes


# the grids a solve on each grid size cascades through, finest first; the
# default grid's first
CASCADE = {
    nv.DEFAULT_POINTS: [4001, 1001],
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
        n, *warm_below, coarsest = cascade(warm.grid.n_points)
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
            assert cascade(n) == expected
            ws = nv._ShootingWorkspace(z1_problem("coulomb3d"), nv.RadialGrid(1e-3, 40.0, n))
            chain = []
            while ws is not None:
                chain.append(ws.grid.n_points)
                assert (ws.grid.rho_min, ws.grid.rho_max) == (1e-3, 40.0)
                ws = ws.quartered()
            assert chain == expected

    def test_level_that_raises_starts_its_parent_cold(self, shots):
        # a box reaching rho = 200: at the bracket's bottom, -1.5 Ry, f < 0 on the
        # outermost rows of 1,001 points (h kappa rho = 4.6), so that level raises on
        # its first inward sweep, and 4,001 points (h kappa rho = 1.2) start cold
        problem = z1_problem("coulomb3d")
        res, _ = nv.solve_state(problem, 0, grid=nv.RadialGrid(1e-6, 200.0, 16001))
        assert res.converged and res.energy_error_ry is not None
        assert abs(res.energy + 1.0) <= 1e-8
        sweeps = sweeps_per_grid(shots)
        assert sweeps == {1001: 1, 4001: sweeps[4001], 16001: sweeps[16001]}
        first = next(e for n, e, _ in shots if n == 4001)
        assert first == nv.default_bracket(problem, 0, nv.BISECTION_TOL)[0]
        assert sweeps[16001] <= 6

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
        # the widest gaps measured on the uniform grids of an earlier version
        ("pe", "chern_simons_jordan", 2e-4, 1),
        ("tmu", "coulomb2d", None, 0),
    ])
    def test_widest_measured_gaps_stay_inside_the_pad(self, shots, atom, kind, lam, nodes):
        # each warm level's first shot is the energy below it; no shot leaves its pad,
        # the same at every level. On the default grid named, so that every level of
        # its cascade searches
        problem = make_problem(atom, kind, lam)
        res, _ = nv.solve_state(problem, nodes, grid=nv.default_grid(problem, nodes))
        assert res.converged
        for n in cascade(res.grid.n_points)[:-1]:
            energies = [e for m, e, _ in shots if m == n]
            pad = max(nv.WARM_BRACKET_REL * abs(energies[0]), nv.BISECTION_TOL)
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

    def test_error_estimate_sign_and_size_where_step_error_dominates(self):
        # pe's 3D ground level on a grid from rho = 1e-24, h = 0.0147: exact - E_h =
        # +3.7e-10 Ry, a few hundred times the search tolerance of 1e-12
        problem = make_problem("pe", "coulomb3d")
        grid = nv.default_grid(problem, 0, rho_min=1e-24, n_points=4001)
        res, _ = nv.solve_state(problem, 0, grid=grid, bisection_tol=1e-12)
        error = oracles.coulomb3d_energy(md.make_atom("pe").zeta, 0) - res.energy
        assert error > 1e-10
        assert res.energy_error_ry == pytest.approx(error, rel=0.25)

    def test_quarter_grid_too_coarse_falls_back(self):
        # f < 0 on the outermost rows of the 1,001-point grid (see above), so the grid
        # of the request starts cold
        problem = z1_problem("coulomb3d")
        grid = nv.RadialGrid(1e-6, 200.0, 4001)
        res, _ = nv.solve_state(problem, 0, grid=grid)
        assert res.converged and res.energy_error_ry is None
        assert abs(res.energy + 1.0) <= 1e-8
        assert res.sweeps == cold(problem, 0, grid).sweeps + 1

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
        # a bracket tol wide about E_4h misses pmu's 2D ground level, 2.0e-7 Ry above
        # it: the upper end halves toward zero and the search converges from there
        problem, warm, _ = solve_cached("pmu", "coulomb2d")
        monkeypatch.setattr(nv, "WARM_BRACKET_REL", 0.0)
        shots.clear()
        res, _ = nv.solve_state(problem, 0)
        assert res.converged
        # the same energy of the grid below: the estimates differ by the energies' gap/255
        assert abs(res.energy - warm.energy) <= nv.BISECTION_TOL
        assert abs(res.energy_error_ry - warm.energy_error_ry) <= nv.BISECTION_TOL / 255.0
        widened = [e for n, e, _ in shots if n == res.grid.n_points and e > 0.6 * warm.energy]
        assert widened == [pytest.approx(0.5 * (warm.energy - 255.0 * warm.energy_error_ry + 1e-8))]

    @pytest.mark.parametrize("kind,lams,levels", [
        ("coulomb3d", [None], [(0, 0), (1, 1), (2, 0)]),
        ("coulomb2d", [None], [(0, 0), (1, 1), (2, 0)]),
        ("chern_simons", [2e-6, 2e-4], [(0, 0), (1, 1), (2, 0)]),
        ("chern_simons_jordan", [5e-5, 2e-4], [(0, 0)]),
    ])
    def test_4001_point_grids_solve(self, kind, lams, levels):
        # the benchmark's warm-up solves run on such grids; their quarter grids have
        # 1001 points
        for atom in md.ATOM_NAMES:
            for lam in lams:
                for ell, nodes in levels:
                    problem = make_problem(atom, kind, lam, ell=ell)
                    grid = nv.default_grid(problem, nodes, n_points=4001)
                    res, _ = nv.solve_state(problem, nodes, grid=grid)
                    assert np.isfinite(res.energy)


@pytest.fixture
def levels(monkeypatch):
    """Log of the cascade's searches as ``(grid points, energy)``."""
    log = []
    search = nv._search

    def recording(ws, *args, **kwargs):
        found = search(ws, *args, **kwargs)
        log.append((ws.grid.n_points, found.shot.energy))
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
        # over the property range (ell 0-3, nodes 0-3): both solves run the same
        # cascade on the same points, so they agree field for field
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
                assert free == pinned


class TestFinish:
    """A solve finishes on the grid it is given, or on the default grid."""

    @pytest.mark.parametrize("kind,lam,ell,nodes", [
        ("coulomb3d", None, 0, 0), ("coulomb2d", None, 2, 1),
        ("chern_simons", 2e-5, 0, 1), ("chern_simons_jordan", 2e-4, 0, 0),
    ])
    def test_no_grid_named_is_the_default_grid_named(self, levels, kind, lam, ell, nodes):
        problem = make_problem("tmu", kind, lam, ell)
        free, free_wf = nv.solve_state(problem, nodes)
        free_levels = list(levels)
        levels.clear()
        pinned, pinned_wf = nv.solve_state(problem, nodes, grid=nv.default_grid(problem, nodes))
        assert free == pinned and free_wf.u.tobytes() == pinned_wf.u.tobytes()
        assert free_levels == levels and [n for n, _ in levels] == cascade(free.grid.n_points)[::-1]
        assert len(levels) == 2

    def test_explicit_grid_finishes_on_itself(self, levels):
        # every level of a named grid searches, and the last one is the grid
        problem = make_problem("pe", "chern_simons", 2e-6, ell=2)
        for grid in (nv.default_grid(problem, 0), nv.default_grid(problem, 0, n_points=50001)):
            levels.clear()
            res, wf = nv.solve_state(problem, 0, grid=grid)
            assert res.grid == wf.grid == grid
            assert [n for n, _ in levels] == CASCADE[grid.n_points][::-1]

    @pytest.mark.parametrize("kind,lam", [("chern_simons", 2e-5), ("coulomb2d", None)])
    def test_coarser_levels_view_the_potential_of_the_grid(self, monkeypatch, kind, lam):
        # evaluated once, on the grid's own points; every coarser level's view of
        # every fourth point is the potential at its own points, bit for bit
        evaluated = []
        potential = nv.effective_potential

        def counting(problem, rho):
            evaluated.append(np.size(rho))
            return potential(problem, rho)

        monkeypatch.setattr(nv, "effective_potential", counting)
        problem = make_problem("tmu", kind, lam, ell=1)
        grid = nv.default_grid(problem, 0, n_points=50001)
        ws = nv._ShootingWorkspace(problem, grid)
        chain = [ws]
        while (coarse := chain[-1].quartered()) is not None:
            chain.append(coarse)
        assert evaluated == [50001] and len(chain) == 3
        for level in chain:
            assert level.u_eff.tobytes() == potential(problem, level.grid.points()).tobytes()


class TestSpectrumProperties:
    def test_order_of_accuracy(self):
        # from 1,001 points: on the log grid 1,501 points halved reach the
        # roundoff floor of f (about 1e-11 Ry here), where no order shows
        problem = z1_problem("coulomb3d")
        coarse = nv.RadialGrid(1e-6, 40.0, 1001)
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
    def test_2d_coulomb(self, solve_cached, atom):
        # the Langer form has no singular term, so the 2D grid serves as the 3D one does
        problem, res, _ = solve_cached(atom, "coulomb2d")
        fd = oracles.fd_lowest_energies(problem, res.grid, 1)[0]
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


def own_buffers(ws):
    """The six buffers a shooting workspace allocates."""
    return [ws._right, ws._c, ws.joined, ws.spare, ws._band, ws._t]


class TestScratchMemory:
    """A solve's grid-sized buffers are its workspaces' own: its shots allocate
    none, and it keeps none once it returns."""

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
        ws = nv._ShootingWorkspace(problem, res.grid)
        ws.shoot(res.energy, out=ws.joined)
        for match_index in (None, res.match_index):
            peak = self.traced_peak(lambda: ws.shoot(res.energy, match_index, out=ws.joined))
            # 9.26 MB, 5.8 arrays, when every shot allocated its own
            assert peak < 8 * res.grid.n_points

    @pytest.mark.parametrize("points", [nv.DEFAULT_POINTS, 200001])
    def test_solve_allocates_its_potential_and_one_grid_array(self, points):
        # the peak holds the one evaluation of the potential, the grid's points and
        # the buffers of the workspaces of the grid and its quarters, whatever the
        # shots: measured 0.68 MB at 4,001 points and 15.0 MB at 200,001, at most
        # 0.95 arrays above the potential's own peak and the buffers
        problem = make_problem("pe", "chern_simons", 2e-5)
        grid = nv.default_grid(problem, 0, n_points=points)
        nv.solve_state(problem, 0, grid=grid)
        levels = [nv._ShootingWorkspace(problem, grid)]
        while (coarse := levels[-1].quartered()) is not None:
            levels.append(coarse)
        buffers = sum(b.nbytes for ws in levels for b in own_buffers(ws))
        rho = grid.points()
        potential = self.traced_peak(lambda: md.effective_potential(problem, rho))
        peak = self.traced_peak(lambda: nv.solve_state(problem, 0, grid=grid))
        assert peak <= potential + buffers + 1.5 * 8 * points

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

        pair = [nv._ShootingWorkspace(p, g) for p, g in zip(problems, grids)]
        alternate = []
        for trial in trials:
            # both shoot before either's joined sweeps are read: memory the two
            # shared would hold the second's
            shots = [shoot(ws, e, *trial) for ws, e in zip(pair, energies)]
            alternate.append([(shot, ws.joined.tobytes()) for shot, ws in zip(shots, pair)])
        for k, (p, g, e) in enumerate(zip(problems, grids, energies)):
            ws = nv._ShootingWorkspace(p, g)
            alone = [(shoot(ws, e, *trial), ws.joined.tobytes()) for trial in trials]
            assert alone == [row[k] for row in alternate]

    def test_a_quarter_shoots_between_its_grids_shots(self):
        # a coarse level's buffers are its own, so its sweeps survive the finer
        # grid's shots: the two shoot alternately, each as it shoots alone
        problem = make_problem("pe", "chern_simons", 2e-5)
        fine = nv._ShootingWorkspace(problem, nv.default_grid(problem, 0))
        coarse = fine.quartered()
        for a in own_buffers(coarse):
            assert not any(np.shares_memory(a, b) for b in own_buffers(fine))
        energy = nv.solve_state(problem, 0)[0].energy
        trials = [energy * (1.0 + k * 1e-3) for k in range(-2, 3)]

        def shoot(ws, e):
            ws.joined.fill(np.nan)
            return ws.shoot(e, out=ws.joined)

        alternate = []
        for e in trials:
            shots = [shoot(ws, e) for ws in (coarse, fine)]
            alternate.append([(shot, ws.joined.tobytes()) for shot, ws in zip(shots, (coarse, fine))])
        for k, alone in enumerate((fine.quartered(), nv._ShootingWorkspace(problem, fine.grid))):
            assert [(shoot(alone, e), alone.joined.tobytes()) for e in trials] == [
                row[k] for row in alternate
            ]

    def test_a_full_grid_block_holds_four_grid_buffers_and_the_band(self):
        # the inward sweep, c and the search's two joined buffers, into which shots
        # sweep outward, then a sweep block's band rows and unknowns, as wide as a
        # block or two rows a point: 0.38 MB at 4,001 points, 6.7 MB at 200,001
        problem = make_problem("pe", "chern_simons", 2e-5)
        for points, width in [(nv.DEFAULT_POINTS, 2 * nv.DEFAULT_POINTS), (200001, nv._BLOCK + 2)]:
            grid = nv.default_grid(problem, 0, n_points=points)
            buffers = own_buffers(nv._ShootingWorkspace(problem, grid))
            assert [b.shape for b in buffers] == [(points,)] * 4 + [(3, width), (width,)]
            assert buffers[4].flags.f_contiguous
            for k, a in enumerate(buffers):
                assert not any(np.shares_memory(a, b) for b in buffers[k + 1 :])

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
    )
    def test_forked_process_solves_apart_from_its_parent(self):
        # were any buffer shared between the two processes rather than copied on
        # write, their solves would overwrite each other's sweeps. Both solve at once,
        # in opposite orders, and must reproduce the sequential solves bit for bit.
        states = mixed_states() * 2
        sequential = [solve_mixed(s) for s in states]
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
        _, second = nv.solve_state(problem, 0, grid=grid)
        assert not np.shares_memory(first.u, second.u)
        assert first.u.tobytes() == second.u.tobytes()

    def test_a_threads_block_is_freed_when_it_ends(self):
        # what a solve still holds when it returns is its result: the wavefunction, one
        # grid array, and a few small objects (measured 1.06 arrays at 4,001 points and
        # 1.00 at 200,001)
        problem = make_problem("pe", "chern_simons", 2e-5)
        for points in (nv.DEFAULT_POINTS, 200001):
            grid = nv.default_grid(problem, 0, n_points=points)
            nv.solve_state(problem, 0, grid=grid)
            tracemalloc.start()
            try:
                _, wf = nv.solve_state(problem, 0, grid=grid)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert held < 1.25 * wf.u.nbytes
