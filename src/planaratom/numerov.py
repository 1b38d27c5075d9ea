"""Bound-state solver: Numerov integration plus node-counted shooting.

The radial problem is ``u''(rho) + [E - U_eff(rho)] u(rho) = 0`` with the
energy ``E`` carried in rydberg (twice the Hartree value). Eigenvalues are
found by one search on a bracket ``[E_lo, E_hi]`` (see
:func:`default_bracket`: 1.5x the closed form for Coulomb kinds, the
self-consistent depth estimate of the ground level for the K0 kinds, and
widened when it misses). Every trial energy is one shooting step
(``_ShootingWorkspace.shoot``): an outward and an inward sweep, the nodes
of the outward one counted up to the match index, and the log-derivative
mismatch (the defect) of the two at that index. Below the eigenvalue a
trial has too few nodes or a positive defect, above it too many nodes or a
negative defect; that sign keeps the bracket. The shot also carries the
defect's slope: for two sweeps joined at ``m`` with ``u`` continuous, the
Wronskian gives ``dD/dE = -int u^2 drho / u(m)^2`` (J. W. Cooley, Math.
Comp. 15 (1961) 363), one sum over the joined sweeps the shot writes.

The search is ``rtsafe`` (Numerical Recipes, section 9.4), Newton steps
kept inside the bracket:

1. Node stage: until the upper end has the target node count, each trial
   is matched at its own outermost classical turning point.
2. Newton stage: the match index is then fixed at the turning point of
   the upper end. Past it every energy in the bracket is classically
   forbidden, so the inward sweep has no node there, and the defect is
   continuous and strictly decreasing across the bracket with a single
   root. Each trial is the Newton step from the end with the smaller
   defect, aimed an eighth of the tolerance past the root, so that a step
   landing across it closes the bracket. A step that leaves the bracket,
   or is longer than half the step before last (rtsafe's test that the
   steps shrink fast enough), becomes a midpoint, cut to twice the Newton
   step when that is shorter: inside the defect's roundoff, where Newton
   steps creep, that steps across the root.

The ends of the starting bracket are presumed: one is shot only when a
step would leave through it or none is possible yet. An end shot on the
wrong side of the level widens the bracket, the bottom doubled or the top
halved, at most ``MAX_WIDENINGS`` times.

The search stops when two shots of opposite sign lie within
``bisection_tol`` and the one with the smaller defect is within
``DEFECT_TOL``; it goes on past the tolerance while that defect is larger
and the bracket can still shrink, and takes at most ``MAX_SEARCH_STEPS``
shots. A small step alone never stops it. Nor does it shoot into a bracket
narrower than ``RESOLUTION_ULPS`` units in the last place of its energy,
which no sweep resolves: it stops there, unconverged when ``bisection_tol``
is narrower still. The returned energy is the end with the smaller defect,
and its two sweeps, joined at the match index, are the wavefunction. It is
flagged converged when the bracket is within ``bisection_tol``, its defect
within ``DEFECT_TOL`` and the node count on target.

:func:`solve_state` runs that search on a cascade of grids, in one loop
from the coarsest level up. The grid is quartered (every fourth point, same
``rho_min`` and ``rho_max``, the potential subsampled, so no point's is
evaluated twice) for as long as ``n_points - 1`` is a multiple of 4 and the
quarter keeps ``MIN_POINTS``: a 200,001-point grid solves on 3,126, 12,501,
50,001 and 200,001 points. The coarsest grid runs the search from the
default bracket; that cold search takes about as many shots on any grid, so
it runs where shots are cheapest. Each finer grid starts from the energy
``E_4h`` of the grid below it, with one shot at ``E_4h``, matched at the
turning point of the bracket's top, in the presumed bracket from ``E_4h -
pad`` to ``min(E_4h + pad, E_4h/2)``, ``pad = max(WARM_BRACKET_REL
WARM_BRACKET_GROWTH^d |E_4h|, bisection_tol)`` for the grid ``d``
quarterings below the requested one. The top binds only on levels shallower
than ``2 pad``, in practice ``2 bisection_tol``: it keeps their bracket
below zero, where a Newton step aimed past the root would otherwise shoot a
positive energy, at which ``f`` leaves Numerov's range on a box sized for so
shallow a level. The rest takes two shots when ``E_4h`` lies within about
the tolerance of ``E_h`` and three when a first Newton step must close the
distance; a bracket that misses is widened like any other. A grid passes its
energy up when its search stopped with the bracket at ``bisection_tol`` or
at the resolution floor, its defect within ``DEFECT_TOL`` and the node count
of its joined sweeps on target; the sweeps are not normalized, which changes
no sign, and that count is the result's when the solve finishes there.
Otherwise, or when its search raises a :class:`SolverError` (as when a high
``ell`` puts a coarse grid's first swept row past the stable range), the
next finer grid starts cold, from the default bracket and with no estimate;
on the requested grid the error is raised. When a grid cannot bracket the
level, each finer grid makes one gated shot at the top every grid widens to
in place of its search: the first that finds the level below that top
starts cold, and when none does the :class:`BracketingError` is raised.

A grid the caller names is the grid the state finishes on. With none named,
the default grid is a ceiling: the solve finishes on the first level that
passes one of two stop tests, and no finer level sweeps. Both read only
converged levels (bracket within ``bisection_tol``, defect within
``DEFECT_TOL``, node count on target), the level ``h`` and the unbroken run
of converged levels below it, ``4h`` and ``16h``, with their energies ``E``
and final bracket widths ``w``; each energy lies within its own bracket of
the search's root. Let ``r`` be the ratio of successive levels' step
errors: 99-192 measured on K0 and Coulomb levels, and 16 or more for any
method of order 2 or higher.

1. ``|E_h - E_4h| <= bisection_tol``. Level ``h``'s step error is then at
   most ``3 bisection_tol/(r - 1)``, a fifth of the tolerance or less.
2. With ``d1 = E_4h - E_16h`` and ``d2 = E_h - E_4h``, the roots of levels
   ``4h`` and ``16h`` differ by at least ``lo1 = |d1| - w_4h - w_16h``, and
   those of ``h`` and ``4h`` by at most ``hi2 = |d2| + w_h + w_4h``. When
   ``d1 d2 > 0`` and ``lo1 >= 16 hi2``, the ratio observed on the
   three levels is at least a second-order method's, and the Richardson
   bound with that observed order (P. J. Roache, J. Fluids Eng. 116 (1994)
   405), ``hi2/(lo1/hi2 - 1)``, bounds level ``h``'s step error. The test
   holds when the bound is at most ``bisection_tol/4``, so that it and the
   search's own bracket stay within ``1.25 bisection_tol`` of the exact
   energy. Its premise is that the ratio on the finer pair is no smaller
   than on the coarser one. Measured at ``bisection_tol = 1e-12`` on the
   levels of an 800,001-point grid of the default box, for the 42 ell-0
   states of one ``cs-concurrent`` benchmark seed: on ground levels the
   ratio reads 105.6-105.8 on 3,126, 12,501 and 50,001 points and 184-191
   on 12,501, 50,001 and 200,001, and ``d2/(r - 1)`` exceeds ``E_800,001 -
   E_50,001`` on every one. On ``chern_simons`` one-node levels it falls
   from 103 to 99 and the estimate is 15% short; there the bound reads
   about twice the tolerance, and the test does not hold. Default
   ``chern_simons_jordan`` ell-0 levels pass it on 50,001 points (the bound
   0.05 to 0.19 of the tolerance on 192 of them); ``chern_simons`` ground
   levels read about 7 times the tolerance there and keep 200,001.

The potential of a grid that quarters is evaluated first on the quarter
grid's own points, which are every fourth point of it bit for bit, and on
its other three quarters only when that grid is first shot; the coarser
grids below view every fourth point of the quarter's. A potential that
overflows or divides by zero on a grid is a
:class:`NonFinitePotentialError` naming the first such point, with no
numpy warning. The grid finished on and the one below it give the
Richardson estimate ``EigenResult.energy_error_ry = (E_h - E_4h)/255`` of
``E_exact - E_h`` for an O(h^4) method. It covers the step error only: a
2D grid's start (``rho_min = 80 h`` moves with h, so the pair is not pure
h^4) and the search tolerance are not in it.

Near the origin every potential here is singular; sweeps are seeded with a
short Frobenius expansion of the regular solution (power law ``rho^s`` with
``s = l + 1`` in 3D and ``s = l + 1/2`` in 2D, plus series corrections),
which keeps the eigenvalue error at the ``O(h^4)`` bulk level. For the 2D
kinds the first grid point is placed a fixed number of steps away from the
origin — the ``-1/(4 rho^2)`` term makes the true solution's curvature
unbounded there, and a uniform grid starting much closer than one step
cannot represent it. :func:`check_origin_gap` rejects a 2D grid whose
first point sits more than ``MAX_KAPPA_RHO_MIN`` ground-level decay lengths
out, where the seed no longer describes the state.

Each sweep solves the three-term recurrence as a lower-triangular band
system with LAPACK (``dtbtrs``), the two seeds on its right-hand side. It
is solved in blocks of ``_BLOCK`` rows, one call each, whose two band rows
are built from ``f`` into a small buffer just before the call, so that they
and the block's stretch of the solution are still in cache. Every block
after the first of a segment starts with two identity rows carrying the
last two values solved, so each row is computed with the same operations
as in one solve of the whole segment, bit for bit. Each row is divided by
its diagonal ``f_k`` beforehand, so the system has a unit diagonal and the
forward substitution multiplies and adds only, which takes the division
off its critical path. The rounding of the stored
ratios costs accuracy: against a long-double loop an outward sweep is off
by 4.6e-10 of max|u| for pe ``chern_simons`` ground and 1.6e-9 for tmu
``chern_simons_jordan`` at lambda 1e-4 (unscaled rows: 1.2e-10, 1.6e-10).
A bound on the per-step growth cuts the sweep into segments only where it
could overflow, and values are rescaled between segments, so deep
classically forbidden regions are safe; default grids need one segment.
Seeds too large for the growth that follows, as the outward seed
``rho_min^(l+1)`` of a very high ``ell`` is, still overflow, and the sweep
raises :class:`SweepOverflowError`; so it does, before solving, for a seed
that is itself not finite. A grid past Numerov's stability limit
(``f = 1 + h^2 g / 12`` outside ``(0, 1.5)`` on a swept row) raises
:class:`GridTooCoarseError`; inside that range ``f_k`` is a safe divisor.

A solve allocates nothing the size of its grid per shot or per sweep. A
shot sweeps outward straight into the buffer its caller names and sweeps
inward into the workspace's own, then joins the two in the first at the
match index. That buffer, the inward sweep, ``f`` and the other of the two
joined buffers the search keeps live in one block of scratch memory
(``_ShootingWorkspace``): four grid-sized buffers and the band rows of a
sweep block, 6.6 MB at 200,001 points. Every grid of the cascade shares it,
because each one's search ends before the next finer one's starts. Only the
finished grid's joined sweeps are normalized, into the one new array a
solve returns. Each thread keeps one block (``_Scratch``), grown when a
solve needs more, and every solve of the thread works in it:
:func:`solve_state` is never re-entered on a thread. The node count works
on the samples' sign bits, an eighth of their size.
"""

from __future__ import annotations

import math
import mmap
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .model import CHERN_SIMONS_KINDS, EffectivePotentialParams, effective_potential
from .specfun import EULER_GAMMA

# Fewest points of a RadialGrid, the coarse grids of the cascade included.
MIN_POINTS = 1000

# Magnitude past which a sweep rescales the values it has computed.
RESCALE_THRESHOLD = 1e100

# Seed value at the outer edge for the inward sweep; the overall scale is
# irrelevant by linearity, this just leaves growth headroom.
INWARD_SEED = 1e-150

# First grid point sits this many steps from the origin for 2D kinds.
ORIGIN_STEP_MULTIPLE = 80.0

# Largest kappa * rho_min of a 2D grid, kappa = sqrt(-E) of the ground level
# from the closed form or estimate_cs_ground_energy. Measured against grids
# starting at 0.05 (ell 0-2, nodes 0-3), energies at 0.5 move by at most
# 2.6e-5 relative for Coulomb 2D, 1.5e-4 for chern-simons and 1.9e-3 for the
# weak jordan variant; at 1 a Coulomb 2D one moves by 2e-3, still flagged
# converged. Default grids stay below 0.19 for lambda in [2e-6, 2e-4] (ell
# 0-3, nodes 0-3) and below 0.37 for any lambda >= 1e-20.
MAX_KAPPA_RHO_MIN = 0.5

# Number of Frobenius correction terms used in outward seeds.
SEED_SERIES_TERMS = 6

# Largest |match_defect| of a result flagged converged.
DEFECT_TOL = 1e-6

# Default final bracket width of the search, in rydberg.
BISECTION_TOL = 1e-8

# Most shots of one search; a search that runs out is flagged unconverged.
MAX_SEARCH_STEPS = 200

# Most widenings of a starting bracket that misses the state.
MAX_WIDENINGS = 3

# Half-width of the warm-start bracket on the requested grid, relative to the
# energy of the grid below it, and its factor for each quartering further down.
# Where |E_4h - E_h| exceeds 1e-8 Ry, |E_4h - E_h|/|E| measured at most 3.3e-7
# on the requested grid, 6.3e-5 one quartering down and 3.0e-3 two down
# (default grids of four kinds, ell 0-3, nodes 0-3, and 256 benchmark
# chern-simons states): no level widened. A factor of 16 misses the last.
WARM_BRACKET_REL = 3e-6
WARM_BRACKET_GROWTH = 64.0

# Narrowest bracket the search shoots into, in units in the last place of its
# energy. Closer energies give sweeps that differ at most in the rounding of a
# few f = 1 + h^2 g / 12: on a 20,001-point z1 coulomb3d grid seven shots about
# 60 ulps apart gave the same defect to the last bit. 1e-12 Ry stays in reach
# of levels above -64 Ry.
RESOLUTION_ULPS = 128

# Points kept past the match index so 5-point derivative stencils fit.
_STENCIL_PAD = 4


class SolverError(RuntimeError):
    """The solver could not produce the requested state; the message says why."""


class BracketingError(SolverError):
    """The requested state could not be bracketed.

    ``bracket`` is the last ``(E_lo, E_hi)`` tried, in rydberg, and ``scan``
    the node-count scan across it, a list of ``(energy, nodes)`` pairs; the
    message reports both.
    """

    def __init__(self, message, bracket, scan):
        super().__init__(message)
        self.bracket = bracket
        self.scan = scan


class DegenerateSeedError(SolverError):
    """Both sweeps vanish at the matching point."""


class GridTooCoarseError(SolverError):
    """The grid cannot resolve the state.

    Either a swept row has ``f = 1 + h^2 g / 12`` outside ``(0, 1.5)``,
    Numerov's stable range, or a 2D grid starts past ``MAX_KAPPA_RHO_MIN``
    decay lengths from the origin.
    """


class SweepOverflowError(SolverError):
    """A sweep's values overflow a double: its seeds leave too little headroom."""


class NonFinitePotentialError(SolverError):
    """The effective potential overflows or is undefined somewhere on the grid."""


class NormalizationError(SolverError):
    """The samples have a zero or non-finite norm."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform mesh in the dimensionless radial coordinate."""

    rho_min: float
    rho_max: float
    n_points: int

    def __post_init__(self):
        if not (0.0 < self.rho_min < self.rho_max < math.inf):
            raise ValueError("need 0 < rho_min < rho_max < inf")
        if self.n_points < MIN_POINTS:
            raise ValueError(f"n_points must be at least {MIN_POINTS}")

    @property
    def step(self) -> float:
        return (self.rho_max - self.rho_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.rho_min, self.rho_max, self.n_points)


@dataclass(frozen=True)
class EigenResult:
    """Converged (or flagged) eigenvalue with search diagnostics.

    ``grid`` is the grid the state finished on: the one the caller named,
    or with none named a level of the default grid's cascade (see the module
    docstring). ``iterations`` counts the shots of the search on ``grid``,
    bracket ends and widenings included; ``sweeps`` every Numerov sweep of
    the solve and ``points_swept`` the grid points they cover, both counting
    every grid of the cascade that swept. ``match_index`` is the grid index
    where the returned wavefunction's two sweeps are joined and
    ``match_defect`` is measured. ``energy_error_ry`` estimates ``E_exact -
    energy`` from the energy of the grid below, ``(E_h - E_4h)/255``; None
    when the search on ``grid`` started cold.
    """

    energy: float
    nodes: int
    converged: bool
    match_defect: float
    bracket_width: float
    iterations: int
    sweeps: int
    points_swept: int
    match_index: int
    grid: RadialGrid
    energy_error_ry: float | None


@dataclass(frozen=True)
class WaveFunction:
    """Reduced radial function samples, normalized to ``int u^2 drho = 1``.

    ``energy`` is the eigenvalue (rydberg) the samples belong to;
    ``mean_radius`` builds the origin series at it.
    """

    grid: RadialGrid
    u: np.ndarray
    energy: float


def indicial_exponent(problem: EffectivePotentialParams) -> float:
    """Regular-solution power at the origin: l+1 in 3D, l+1/2 in 2D."""
    if problem.dimension == 3:
        return problem.ell + 1.0
    return problem.ell + 0.5


def small_rho_solution(
    problem: EffectivePotentialParams, energy_ry: float, rho: np.ndarray
) -> np.ndarray:
    """Regular solution near the origin from its Frobenius expansion.

    For Coulomb kinds the expansion is a plain power series in rho; for the
    K0 kinds the potential contributes a ``rho^2 (p + q ln rho)`` correction
    (the K0 log is milder than 1/rho). Used to seed outward sweeps and as
    the boundary ratio of the finite-difference cross-check.
    """
    rho = np.asarray(rho, dtype=float)
    s = indicial_exponent(problem)
    if problem.potential.kind in CHERN_SIMONS_KINDS:
        pref = problem.k0_prefactor
        a = problem.k0_argument_scale
        q = pref / (4.0 * s + 2.0)
        w0 = pref * (math.log(0.5 * a) + EULER_GAMMA)
        p = (w0 - energy_ry - (2.0 * s + 3.0) * q) / (4.0 * s + 2.0)
        return rho**s * (1.0 + rho * rho * (p + q * np.log(rho)))
    c = problem.coulomb_coefficient
    poly = np.ones_like(rho)
    power = np.ones_like(rho)
    a_km1, a_km2 = 1.0, 0.0
    for k in range(1, SEED_SERIES_TERMS + 1):
        a_k = -(c * a_km1 + energy_ry * a_km2) / (k * (2.0 * s + k - 1.0))
        power = power * rho
        poly = poly + a_k * power
        a_km2, a_km1 = a_km1, a_k
    return rho**s * poly


# Growth that one banded solve may span before its values are checked
# against RESCALE_THRESHOLD (about e^230): 300 nats, well inside the e^709
# range of a double, in the sqrt(12)-nat units of _sweep's growth bound.
_SEGMENT_GROWTH = 300.0 / math.sqrt(12.0)


# Rows of one LAPACK call of _sweep: its band rows (two of 8,192 doubles) and stretch of
# the solution stay in a core's L2 cache between their writing and the solve.
_BLOCK = 8192


def _sweep(f, u0, u1, rho0, step, out, band) -> np.ndarray:
    """Numerov recurrence as a lower-triangular banded solve.

    ``f = 1 + h^2 g / 12`` in sweep order, row ``k`` at ``rho = rho0 + k
    step`` (``step`` is negative for an inward sweep); the seeds sit at the
    first two rows. Row ``k >= 2`` of the system reads ``u_k - (12 - 10
    f_{k-1})/f_k u_{k-1} + f_{k-2}/f_k u_{k-2} = 0`` (the recurrence divided
    by ``f_k``, so no division is left in the substitution), the seed terms
    move to the right-hand side, and LAPACK's ``dtbtrs`` solves it by
    forward substitution with a unit diagonal. scipy's wrapper holds the
    GIL through the call, so the sweeps of concurrent solves take turns. The
    recurrence is stable only for ``0 < f < 1.5``: past 1.5 (``h^2 g > 6``,
    under 2.6 points per wavelength) a spurious mode grows with alternating
    sign, and a row outside that range raises :class:`GridTooCoarseError`,
    naming its ``rho``. Inside it, one
    step grows the solution by about ``arccosh((6 - 5f)/f) <= sqrt(12 (1/f -
    1))`` nats (the rate of the growing mode for constant ``f``, none for
    ``f >= 1``); the sweep is cut where that bound adds up to 300 nats
    (``_SEGMENT_GROWTH``), and a segment whose peak passes
    ``RESCALE_THRESHOLD`` rescales all values before it, so deep
    classically forbidden regions never overflow. Default grids need one
    segment. A segment that still overflows, from seeds too large for its
    growth, raises :class:`SweepOverflowError`, as does, before any solve, a
    seed that is not finite.

    Each segment is solved in blocks of ``_BLOCK`` rows, one
    ``dtbtrs`` call each, whose band rows are built from ``f`` into
    ``band`` (an F-ordered ``(3, _BLOCK + 2)`` array). The first
    block of a segment carries the seed terms on its right-hand side. Every
    later block starts with two identity rows holding the last two values
    solved (band entry ``(1, 0)`` zero), so the substitution computes each
    row with the same operations, in the same order, as one solve of the
    whole segment. The values go to ``out[:len(f)]``, a view of which is
    returned.
    """
    n = f.shape[0]
    u = out[:n]
    u[0], u[1] = u0, u1
    diag = f[2:]
    worst = diag.min()
    if not (worst > 0.0 and diag.max() < 1.5):
        k = 2 + int(np.argmin((diag > 0.0) & (diag < 1.5)))
        raise GridTooCoarseError(
            f"grid too coarse for Numerov at rho={rho0 + k * step:.6g}: f = 1 + h^2 g/12 = "
            f"{f[k]:.3g} must be finite and in (0, 1.5) for a stable recurrence; refine it or "
            "raise rho_min"
        )

    def overflow(k, why):
        return SweepOverflowError(
            f"sweep overflows a double by rho={rho0 + k * step:.6g}: it starts from {u0:.3g} "
            f"and {u1:.3g} at rho={rho0:.6g}, {why}"
        )

    if not (abs(u0) < math.inf and abs(u1) < math.inf):  # inf or NaN
        raise overflow(1, "which are not finite")
    stops = [n - 2]
    # fast path: the worst row's bound on every row stays under one segment; it spares
    # the growth sum on over 90% of the rows swept in the benchmark workloads
    if (n - 2) * math.sqrt(max(1.0 / worst - 1.0, 0.0)) > _SEGMENT_GROWTH:
        # the running growth bound, summed in the rows the solve overwrites later
        growth = u[2:]
        np.divide(1.0, diag, out=growth)
        growth -= 1.0
        np.maximum(growth, 0.0, out=growth)
        np.sqrt(growth, out=growth)
        np.cumsum(growth, out=growth)
        cuts = np.arange(_SEGMENT_GROWTH, growth[-1], _SEGMENT_GROWTH)
        stops = np.searchsorted(growth, cuts).tolist() + stops
    # column j of the whole system holds unknown u_{j+2}; row k is scaled by 1/f_k, so
    # the diagonal is one (never stored, diag="U") and the off-diagonals read
    # (10 f_{k-1} - 12)/f_k and f_{k-2}/f_k. A block's last column's off-diagonals fall
    # outside its matrix.
    start = 0
    for stop in stops:
        if stop <= start:
            continue
        # the first block's right-hand side holds the seed terms
        rhs = u[start + 2 : min(start + _BLOCK, stop) + 2]
        rhs[0] = ((12.0 - 10.0 * f[start + 1]) * u[start + 1] - f[start] * u[start]) / f[start + 2]
        # empty for a one-row segment, where f[start + 3] lies past the end
        rhs[1:2] = -f[start + 1] * u[start + 1] / f[start + 3 : start + 4]
        rhs[2:] = 0.0
        first = start
        while True:
            cols = rhs.shape[0]
            ab = band[:, :cols]
            d = f[first + 2 : first + 2 + cols]
            np.multiply(d[:-1], 10.0, out=ab[1, :-1])
            ab[1, :-1] -= 12.0
            ab[1, :-1] /= d[1:]
            np.divide(d[:-2], d[2:], out=ab[2, :-2])
            if first > start:
                ab[1, 0] = 0.0  # the two carried rows are identity rows
            # f2py solves in place; the slice assignment copies back only if it did not
            rhs[:], info = dtbtrs(ab, rhs, uplo="L", diag="U", overwrite_b=1)
            if info != 0:
                raise SolverError(f"LAPACK dtbtrs failed with info={info}")
            done = first + cols
            if done >= stop:
                break
            # the next block: the last two values solved, then the rows after them
            first = done - 2
            rhs = u[first + 2 : min(first + 2 + _BLOCK, stop) + 2]
            rhs[2:] = 0.0
        peak = max(u[start + 2 : stop + 2].max(), -u[start + 2 : stop + 2].min())
        if not peak < math.inf:  # inf or NaN
            raise overflow(stop + 1, "too large for the growth that follows")
        if peak > RESCALE_THRESHOLD:
            u[: stop + 2] /= peak
        start = stop
    return u


def count_nodes(u: np.ndarray) -> int:
    """Strict sign changes over interior points; grid-exact zeros count once."""
    u = np.asarray(u, dtype=float)
    # min and max propagate NaN, so the two catch every non-finite sample
    if u.size and not (np.isfinite(u.min()) and np.isfinite(u.max())):
        raise ValueError("wavefunction samples must be finite")
    interior = u[1:-1]
    negative = np.signbit(interior)
    # zeros, -0.0 among them, carry no sign: drop them before comparing neighbours
    nonzero = interior != 0.0
    if not nonzero.all():
        negative = negative[nonzero]
    return int(np.count_nonzero(negative[1:] != negative[:-1]))


def _derivative_5pt(u: np.ndarray, i: int, h: float) -> float:
    return (-u[i + 2] + 8.0 * u[i + 1] - 8.0 * u[i - 1] + u[i - 2]) / (12.0 * h)


def _outer_turning_point(u_eff: np.ndarray, energy: float) -> int:
    """Index of the outermost classical turning point at ``energy``, the last
    ``i`` with ``u_eff[i] < energy <= u_eff[i + 1]``; the midpoint if there is none."""
    crossings = np.flatnonzero((u_eff[:-1] < energy) & (u_eff[1:] >= energy))
    return int(crossings[-1]) if crossings.size else (u_eff.shape[0] - 1) // 2


class _Shot(NamedTuple):
    """One shooting trial: its energy, match index, node count up to the
    match index, the defect's slope ``dD/dE`` and defect (both None when
    gated off target or pinned on a node), see
    :meth:`_ShootingWorkspace.shoot`."""

    energy: float
    m: int
    nodes: int
    slope: float | None
    defect: float | None


def _scratch_size(n_points: int) -> int:
    """Doubles of a :class:`_ShootingWorkspace`'s scratch memory on ``n_points``."""
    return 4 * n_points + 3 * (_BLOCK + 2)


def _new_block(size: int) -> np.ndarray:
    """``size`` doubles in a private anonymous mapping of their own, unmapped
    when the array is freed. Through malloc, freeing a block this large
    raises glibc's mmap and trim thresholds past the size of a grid array,
    and its arenas then keep that much freed memory resident. Private, so a
    forked process writes to copies of the pages, not to its parent's."""
    return np.frombuffer(mmap.mmap(-1, 8 * size, flags=mmap.MAP_PRIVATE), dtype=float)


class _Scratch(threading.local):
    """The scratch block that every :func:`solve_state` call of one thread
    works in.

    :meth:`at_least` returns the thread's block, replaced by a new one of
    ``size`` doubles when it is smaller, which drops the old. A solve runs
    from start to end on its thread and never calls another, so the solves
    of a thread take turns in the block and those of two threads never
    share one. A thread's block is freed when the thread ends. The CLI
    solves in its calling thread, which keeps its block from one command to
    the next.
    """

    block: np.ndarray | None = None

    def at_least(self, size: int) -> np.ndarray:
        if self.block is None or self.block.shape[0] < size:
            self.block = _new_block(size)
        return self.block


_SCRATCH = _Scratch()


def _potential(problem, rho) -> np.ndarray:
    """:func:`effective_potential` at ``rho``, which must be finite there. An
    overflow or a division by zero there is this error, with no numpy warning."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u_eff = effective_potential(problem, rho)
    finite = np.isfinite(u_eff)
    if not finite.all():
        bad = rho.flat[np.argmin(finite)]
        raise NonFinitePotentialError(f"effective potential is not finite at rho={bad:.6g}")
    return u_eff


class _ShootingWorkspace:
    """Per-problem state shared across energy trials of one solve.

    ``memory``, at least :func:`_scratch_size` doubles, holds every
    grid-sized buffer of a shot and of the search: the inward sweep, ``f``,
    the band rows of a sweep block, and ``joined`` and ``spare``, the
    joined sweeps that :func:`_search` keeps, into one of which each shot
    sweeps outward. A shot allocates nothing the size of the grid.

    The workspace of the requested grid is given no potential. On a grid
    that does not quarter it evaluates its own on the first use of
    :attr:`u_eff`. On one that quarters, its coarse level (see
    :meth:`quartered`) evaluates its own grid's points, all that the coarser
    grids read, and the first use of :attr:`u_eff` takes every fourth point
    from there and evaluates the other three quarters, in blocks of
    ``_BLOCK`` rows of four points: a solve that finishes on a coarser grid
    never evaluates them.
    """

    def __init__(self, problem, grid, memory, node_target=0, u_eff=None):
        self.problem = problem
        self.grid = grid
        self.node_target = node_target
        self.h = grid.step
        self._u_eff, self._coarse = u_eff, None
        self.h2_12 = self.h * self.h / 12.0
        self.sweeps = 0
        self.points_swept = 0
        n = grid.n_points
        self.memory = memory
        self._right, self._f, self.joined, self.spare = (
            memory[k * n : (k + 1) * n] for k in range(4)
        )
        self._band = memory[4 * n : 4 * n + 3 * (_BLOCK + 2)].reshape(_BLOCK + 2, 3).T

    @property
    def u_eff(self) -> np.ndarray:
        """The effective potential on the grid."""
        if self._u_eff is None:
            coarse = self._coarse or self.quartered()
            if coarse is None:
                self._u_eff = _potential(self.problem, self.grid.points())
                return self._u_eff
            u_eff = np.empty(self.grid.n_points)
            u_eff[::4] = coarse.u_eff
            # rows of four points from index 0 up: the last point is the coarse grid's;
            # np.linspace computes index k as k step + rho_min, and so does this
            fours = u_eff[:-1].reshape(-1, 4)
            for start in range(0, fours.shape[0], _BLOCK):
                rest = fours[start : start + _BLOCK, 1:]
                rows = np.arange(4 * start, 4 * (start + rest.shape[0]), dtype=float)
                rho = rows.reshape(-1, 4)[:, 1:] * self.h
                rho += self.grid.rho_min
                rest[...] = _potential(self.problem, rho)
            self._u_eff, self._coarse = u_eff, None
        return self._u_eff

    def quartered(self) -> _ShootingWorkspace | None:
        """Workspace on every fourth point of this grid, the next coarser grid of
        the cascade; None when ``n_points - 1`` is not a multiple of 4 or the
        quarter would have fewer than ``MIN_POINTS``: there the cascade ends.

        Its grid's step is four times this one's, exactly: a power of two
        scales the division. So ``np.linspace`` puts its point ``k`` on this
        grid's point ``4k``, bit for bit, and both grids end on ``rho_max``.
        It views every fourth point of this workspace's potential; while this
        one has none, it evaluates its own grid's points, and this workspace
        keeps it to read them back. It works in this workspace's memory, so
        its search, and the searches on the grids it quarters in turn, must
        end before this workspace shoots.
        """
        n = self.grid.n_points
        if (n - 1) % 4 or (n - 1) // 4 + 1 < MIN_POINTS:
            return None
        grid = RadialGrid(self.grid.rho_min, self.grid.rho_max, (n - 1) // 4 + 1)
        u_eff = _potential(self.problem, grid.points()) if self._u_eff is None else self._u_eff[::4]
        self._coarse = _ShootingWorkspace(self.problem, grid, self.memory, self.node_target, u_eff)
        return self._coarse

    def _f_of(self, energy, u_eff) -> np.ndarray:
        """``f = 1 + h^2 (energy - u_eff) / 12`` in the workspace's buffer."""
        f = self._f[: u_eff.shape[0]]
        np.subtract(energy, u_eff, out=f)
        f *= self.h2_12
        f += 1.0
        return f

    def shoot(self, energy, match_index=None, gated=False, *, out) -> _Shot:
        """One shooting trial: sweep outward into ``out``, sweep inward, and
        join the two in ``out`` at the match index.

        The match index ``m`` is ``match_index`` if given, else the
        outermost classical turning point, clamped away from the ends.
        ``nodes`` is counted on the outward sweep up to ``m``. With
        ``gated`` the inward sweep is skipped (``defect`` None, ``out``
        holding the outward sweep alone) when ``nodes`` differs from
        ``node_target``. ``defect`` is also None when the outward sweep has
        a node pinned at the match point, see :meth:`_defect_at`. A trial
        that sweeps inward leaves both sweeps in ``out``, joined at ``m``
        and unnormalized; the inward one is swept into the workspace's
        buffer, which the next trial overwrites. A trial with a defect also
        carries its slope, ``dD/dE = -int u^2 drho / u(i)^2`` over the
        log-derivative scale of :meth:`_defect_at` at the index ``i`` it
        used: the Wronskian identity for two sweeps joined with ``u``
        continuous (J. W. Cooley, Math. Comp. 15 (1961) 363).
        """
        n, rho_min, h = self.grid.n_points, self.grid.rho_min, self.h
        m = _outer_turning_point(self.u_eff, energy) if match_index is None else int(match_index)
        m = min(max(m, _STENCIL_PAD + 2), n - _STENCIL_PAD - 3)
        f = self._f_of(energy, self.u_eff[: m + _STENCIL_PAD + 1])
        # bit for bit the grid's first two points; a seed that overflows is
        # _sweep's to report
        with np.errstate(over="ignore", invalid="ignore"):
            seeds = small_rho_solution(self.problem, energy, np.array([rho_min, rho_min + h]))
        u_left = _sweep(f, float(seeds[0]), float(seeds[1]), rho_min, h, out, self._band)
        self.sweeps += 1
        self.points_swept += f.shape[0]
        nodes = count_nodes(u_left[: m + 1])
        if gated and nodes != self.node_target:
            return _Shot(energy, m, nodes, None, None)
        kappa_sq = self.u_eff[-1] - energy
        kappa = math.sqrt(kappa_sq) if kappa_sq > 0.0 else 1.0
        # the inward sweep's f in sweep order, from the outer edge in
        f = self._f_of(energy, self.u_eff[m - _STENCIL_PAD :][::-1])
        seed = INWARD_SEED * math.exp(kappa * h)
        u_right = _sweep(f, INWARD_SEED, seed, self.grid.rho_max, -h, self._right, self._band)[::-1]
        self.sweeps += 1
        self.points_swept += f.shape[0]
        defect, i, scale = self._defect_at(u_left, u_right, m)
        ul, ur = u_left[m], u_right[_STENCIL_PAD]
        if ul == 0.0 and ur == 0.0:
            raise DegenerateSeedError("both sweeps vanish at the matching point")
        # the outward sweep stays in out[: m + 1]; the inward one, scaled, follows it
        np.multiply(u_right[_STENCIL_PAD + 1 :], ul / ur if ur != 0.0 else 1.0, out=out[m + 1 :])
        slope = None
        if defect is not None:
            # einsum, not np.dot: a BLAS dot this long wakes OpenBLAS's thread
            # pool, which slows the library's concurrent callers, such as two
            # client threads solving at once
            slope = -h * np.einsum("i,i->", out, out) / (out[i] * out[i] * scale)
        return _Shot(energy, m, nodes, slope, defect)

    def sign(self, shot: _Shot) -> int:
        """+1 if ``shot`` lies below the target eigenvalue, -1 above.

        Node counting decides alone when the count is off target;
        otherwise the sign of the defect.
        """
        if shot.nodes != self.node_target:
            return 1 if shot.nodes < self.node_target else -1
        if shot.defect is None:
            # outward node sitting on the match point: just past the
            # left-problem eigenvalue, hence above the target energy
            return -1
        return 1 if shot.defect > 0.0 else -1

    def _defect_at(self, u_left, u_right, m):
        """Log-derivative mismatch at the match index, nudging off nodes.

        ``u_left`` covers grid indices [0, m+pad], ``u_right`` covers
        [m-pad, N-1]. Returns the defect, the index it was measured at and
        its log-derivative scale; the defect is None when the outward sweep
        has a node pinned at every candidate index (energy sits on a
        left-problem eigenvalue).
        """
        left_scale = np.max(np.abs(u_left[max(0, m - 16) : m + 3]))
        start = m - _STENCIL_PAD
        for shift in (0, -1, 1, -2, 2):
            i = m + shift
            ul = u_left[i]
            ur = u_right[i - start]
            if abs(ul) > 1e-9 * left_scale and ur != 0.0:
                dl = _derivative_5pt(u_left, i, self.h) / ul
                dr = _derivative_5pt(u_right, i - start, self.h) / ur
                # normalize by the log-derivative scale so the tolerance is
                # meaningful for shallow and deep wells alike
                scale = max(1.0, abs(dl), abs(dr))
                return (dl - dr) / scale, i, scale
        return None, m, 1.0


def closed_form_energy(problem: EffectivePotentialParams, nodes: int) -> float | None:
    """Exact Coulomb spectrum in rydberg; None for the K0 kinds."""
    zeta = problem.atom.zeta
    n_principal = nodes + problem.ell + 1
    if problem.potential.kind == "coulomb3d":
        return -zeta / n_principal**2
    if problem.potential.kind == "coulomb2d":
        return -4.0 * zeta / (2.0 * n_principal - 1.0) ** 2
    return None


def estimate_cs_ground_energy(problem: EffectivePotentialParams) -> float:
    """Crude self-consistent depth estimate for the K0 well.

    Sizes the default grid and starts the default bracket; it lies below
    the solved ground level (a solved/estimate ratio of 0.36-0.87 for pe,
    pmu and tmu, both K0 kinds, lambda from 1e-9 to 2e-4). Raises
    :class:`SolverError` when its start, five times the prefactor, overflows
    a double: a jordan prefactor ``lambda/(pi alpha)`` from about 3.6e307 Ry
    (pe lambda 8.3e305).
    """
    pref = problem.k0_prefactor
    a = problem.k0_argument_scale
    eta = -pref * 5.0
    if eta == -math.inf:
        raise SolverError(
            f"the K0 well's depth estimate overflows a double: its prefactor is {pref:.6g} Ry"
        )
    for _ in range(40):
        kappa = math.sqrt(-eta)
        arg = max(a / (2.0 * kappa), 1e-290)
        k0_log = max(-math.log(0.5 * arg) - EULER_GAMMA, 1e-12)
        new = -pref * k0_log
        if abs(new - eta) < 1e-12 * abs(new):
            eta = new
            break
        eta = new
    return eta


def default_grid(
    problem: EffectivePotentialParams,
    node_target: int = 0,
    rho_min: float | None = None,
    rho_max: float | None = None,
    n_points: int | None = None,
) -> RadialGrid:
    """Per-problem default mesh; explicit arguments override the recipe.

    Coulomb kinds size the box from the closed form: at least 30 decay
    lengths ``1/kappa``, and 15 past the level's outer classical turning
    point, which the centrifugal term pushes out at high ``ell``. The K0
    kinds size it from a self-consistent depth estimate. 3D problems keep
    a tiny ``rho_min`` (the regular solution is analytic there). For ``ell
    >= 5`` it moves out just far enough that the centrifugal term leaves
    ``f >= 1/2`` on the first swept row: ``rho_min + 2h = h
    sqrt(l(l+1)/6)``. 2D problems start a fixed number of steps out, see
    the module docstring.
    """
    if node_target < 0:
        raise ValueError("node_target must be non-negative")
    kind = problem.potential.kind
    zeta = problem.atom.zeta
    if kind in CHERN_SIMONS_KINDS:
        eta_est = estimate_cs_ground_energy(problem)
        kappa = math.sqrt(-eta_est)
        box = max(60.0, 40.0 / kappa) * (1.0 + node_target)
        n_default = 200001
    else:
        e_est = closed_form_energy(problem, node_target)
        kappa = math.sqrt(-e_est)
        # the level's outer turning point, the larger root of e_est = U_eff(rho)
        c = problem.centrifugal_coefficient
        turning = (math.sqrt(zeta) + math.sqrt(zeta + e_est * c)) / -e_est
        box = max(30.0 / kappa, 40.0 / math.sqrt(zeta), turning + 15.0 / kappa)
        n_default = 50001 if kind == "coulomb3d" else 100001
    if rho_max is None:
        rho_max = box
    if n_points is None:
        n_points = n_default
    if rho_min is None:
        if problem.dimension == 2:
            rho_min = ORIGIN_STEP_MULTIPLE * rho_max / (n_points - 1)
        else:
            centrifugal = math.sqrt(problem.ell * (problem.ell + 1) / 6.0)
            rho_min = max(1e-6, rho_max / (n_points - 1) * (centrifugal - 2.0))
    return RadialGrid(rho_min=rho_min, rho_max=rho_max, n_points=n_points)


def default_bracket(
    problem: EffectivePotentialParams, node_target: int, bisection_tol: float
) -> tuple[float, float]:
    """Default starting bracket: 1.5x the closed form for Coulomb; for K0
    kinds from :func:`estimate_cs_ground_energy`, below the ground level and
    so below every excited level of the well, up to ``max(-1e-4, estimate/4)``
    Ry. That top lies above the ground level, which every 2D ell-0 K0 well
    binds: its solved/estimate ratio stays at or below 0.87 (pe, pmu and
    tmu, both K0 kinds, lambda from 1e-9 to 2e-4). ``solve_state`` widens a
    bracket that misses."""
    e_est = closed_form_energy(problem, node_target)
    if e_est is not None:
        return (1.5 * e_est, -bisection_tol)
    eta = estimate_cs_ground_energy(problem)
    return (eta, max(-1e-4, 0.25 * eta))


def simpson_u2(u: np.ndarray, h: float, rho: np.ndarray | None = None) -> float:
    """Composite-Simpson ``int u^2 drho``, or ``int rho u^2 drho`` given
    ``rho``, over samples ``h`` apart; at least three of them.

    An even number of samples takes scipy's end correction for the last
    interval (``scipy.integrate.simpson``, Cartwright's formula). The sums
    run over strided views with ``einsum``, so nothing the size of ``u`` is
    allocated.
    """
    factors = (u, u) if rho is None else (rho, u, u)
    spec = ",".join("i" * len(factors)) + "->"

    def total(part):
        return np.einsum(spec, *(a[part] for a in factors))

    def y(k):
        return math.prod(float(a[k]) for a in factors)

    n = u.shape[0]
    last = n - 1 if n % 2 else n - 2  # the end of the odd-length Simpson part
    odd, even = total(slice(1, last, 2)), total(slice(2, last, 2))
    out = h / 3.0 * (y(0) + 4.0 * odd + 2.0 * even + y(last))
    if n % 2 == 0:
        out += h * (5.0 / 12.0 * y(-1) + 2.0 / 3.0 * y(-2) - 1.0 / 12.0 * y(-3))
    return float(out)


def _normalize_samples(u: np.ndarray, h: float) -> np.ndarray:
    """``u`` scaled to ``int u^2 drho = 1``, its first lobe (the first sample
    past 1% of the peak) positive, in a new array."""
    norm_sq = simpson_u2(u, h)
    if norm_sq <= 0.0 or not np.isfinite(norm_sq):
        raise NormalizationError("cannot normalize a zero or non-finite wavefunction")
    out = u / math.sqrt(norm_sq)
    cut = 0.01 * max(out.max(), -out.min())
    # argmax finds the first True, or returns 0 when there is none
    up, down = np.argmax(out > cut), np.argmax(out < -cut)
    if out[down] < -cut and (down < up or out[up] <= cut):
        np.negative(out, out=out)
    return out


def check_arguments(node_target: int, bisection_tol: float) -> None:
    """Raise ValueError unless ``node_target >= 0`` and ``bisection_tol`` is positive and finite."""
    if node_target < 0:
        raise ValueError("node_target must be non-negative")
    if not 0.0 < bisection_tol < math.inf:
        raise ValueError("bisection_tol must be positive and finite")


def solve_state(
    problem: EffectivePotentialParams,
    node_target: int = 0,
    grid: RadialGrid | None = None,
    bisection_tol: float = BISECTION_TOL,
) -> tuple[EigenResult, WaveFunction]:
    """Find the bound state with ``node_target`` radial nodes.

    Searches the levels of the grid's cascade in one loop, coarsest first,
    and returns the eigenvalue (rydberg) with search diagnostics and the
    normalized matched wavefunction, both on the level the loop stopped on:
    ``grid``, or with None the first level of :func:`default_grid`'s
    cascade that converged within ``bisection_tol`` of the level below it,
    or whose checked Richardson bound from the two converged levels below
    it is at most ``bisection_tol/4``; the grid itself when none does. The
    result's node count and ``converged`` are that level's, and its
    ``sweeps`` and ``points_swept`` sum every level's. The module docstring
    describes both stop tests and their premise, the warm brackets, and the
    search, whose final bracket is ``bisection_tol`` Ry wide. Raises
    :class:`BracketingError` when no sign change is found after
    ``MAX_WIDENINGS`` widenings, and :class:`SolverError` when the scratch
    block of the grid cannot be mapped; an exhausted step budget returns a
    result flagged ``converged=False`` instead.
    """
    check_arguments(node_target, bisection_tol)
    tol, ceiling = bisection_tol, grid is None
    if ceiling:
        grid = default_grid(problem, node_target)
    size = _scratch_size(grid.n_points)
    try:
        memory = _SCRATCH.at_least(size)
    except (OSError, OverflowError) as exc:
        raise SolverError(f"cannot map {8e-6 * size:.6g} MB of scratch memory for "
                          f"{grid.n_points} points: {exc}") from None
    bracket = default_bracket(problem, node_target, tol)
    levels = [_ShootingWorkspace(problem, grid, memory, node_target)]
    while (coarse := levels[-1].quartered()) is not None:
        levels.append(coarse)
    # the energy a level passes up, the run of converged levels ending on it as
    # (energy, bracket width) pairs, and the error of the last level that missed the state
    e_coarse, run, missed = None, (), None
    for depth, ws in reversed(list(enumerate(levels))):
        start, e_coarse, warm = e_coarse, None, bracket
        try:
            # every level widens to the same top: one shot there shows the level above it
            if missed and ws.sign(ws.shoot(missed.bracket[1], gated=True, out=ws.spare)) > 0:
                raise missed
            missed = None
            if start is not None:
                pad = max(WARM_BRACKET_REL * WARM_BRACKET_GROWTH**depth * abs(start), tol)
                warm = (start - pad, min(start + pad, 0.5 * start))
            found = _search(ws, warm, tol, start)
        except SolverError as err:
            if depth == 0:
                raise
            # a level that missed the state passes its error on; any other starts the next cold
            run, missed = (), err if isinstance(err, BracketingError) else None
            continue
        # counted on the unnormalized sweeps: scaling them changes no sign
        nodes = count_nodes(found.u)
        passes = found.done and nodes == node_target
        converged = bool(passes and found.width <= tol)
        e_coarse = found.shot.energy if passes else None
        run = run + ((e_coarse, found.width),) if converged else ()
        if ceiling and _finishes(run, tol):
            break
    # a new array: the next solve of this thread overwrites the scratch block
    u = _normalize_samples(found.u, ws.grid.step)
    final = found.shot
    result = EigenResult(
        energy=final.energy,
        nodes=nodes,
        converged=converged,
        match_defect=final.defect if final.defect is not None else math.inf,
        bracket_width=found.width,
        iterations=found.iterations,
        sweeps=sum(level.sweeps for level in levels),
        points_swept=sum(level.points_swept for level in levels),
        match_index=final.m,
        grid=ws.grid,
        energy_error_ry=None if start is None else (final.energy - start) / 255.0,
    )
    return result, WaveFunction(grid=ws.grid, u=u, energy=final.energy)


def _finishes(run, tol) -> bool:
    """Whether a default solve finishes on the last level of ``run``, a run of
    consecutive converged levels, ``(energy, bracket width)`` each and
    coarsest first, whose last three have grids ``16h``, ``4h`` and ``h``:
    the two stop tests of the module docstring, the second with the checked
    Richardson bound ``hi2/(lo1/hi2 - 1) <= tol/4``."""
    if len(run) < 2:
        return False
    (e_4h, w_4h), (e_h, w_h) = run[-2:]
    if abs(e_h - e_4h) <= tol:
        return True
    if len(run) < 3:
        return False
    e_16h, w_16h = run[-3]
    d1, d2 = e_4h - e_16h, e_h - e_4h
    lo1, hi2 = abs(d1) - w_4h - w_16h, abs(d2) + w_h + w_4h
    return d1 * d2 > 0.0 and lo1 >= 16.0 * hi2 and hi2 / (lo1 / hi2 - 1.0) <= 0.25 * tol


class _Found(NamedTuple):
    """Where a search stopped: the end it returns, that end's joined
    unnormalized sweeps (a view of the workspace's memory), the final
    bracket's width, the shots made, and whether it stopped with its bracket
    at the target width or the resolution floor and the end's defect
    within ``DEFECT_TOL``."""

    shot: _Shot
    u: np.ndarray
    width: float
    iterations: int
    done: bool


def _search(ws, bracket, tol, e_coarse=None) -> _Found:
    """The search of the module docstring on ``ws`` from ``bracket`` down to ``tol``.

    ``e_coarse`` is the energy of the level below that the bracket was built
    around, None for a cold start; the first trial shoots it.
    """
    node_target = ws.node_target
    lo, hi = bracket  # presumed ends, shot only when a step would leave through them
    below = above = kept = None  # the nearest shots below and above the level
    m = None if e_coarse is None else _outer_turning_point(ws.u_eff, hi)
    energy = lo if e_coarse is None else e_coarse
    step = step_old = hi - lo  # lengths of the last two steps, as in rtsafe
    widenings = iterations = 0
    # joined sweeps of `kept`, the end with the smaller defect, and of the latest trial
    u, spare = ws.joined, ws.spare
    while True:
        shot = ws.shoot(energy, m, gated=True, out=spare)
        iterations += 1
        level_above = ws.sign(shot) > 0
        if (energy == hi and level_above) or (energy == lo and not level_above):
            if widenings == MAX_WIDENINGS:
                energies = -np.geomspace(-lo, -hi, 8)
                scan = [(e, ws.shoot(e, gated=True, out=spare).nodes) for e in energies]
                message = (
                    f"state with {node_target} nodes not bracketed in [{lo:.6g}, {hi:.6g}] Ry; "
                    "node-count scan: " + "; ".join(f"E={e:.6g} Ry: {k} nodes" for e, k in scan)
                )
                if level_above:
                    message += (
                        f"; at the top of the bracket the node count is still {scan[-1][1]}, "
                        f"so the level lies above {hi:.6g} Ry and may not be bound"
                    )
                raise BracketingError(message, (lo, hi), scan)
            widenings += 1
            if level_above:
                # trials past the old top turn further out: match at the new top's point
                hi, m = 0.5 * hi, None
            else:
                lo *= 2.0
        if level_above:
            below = shot
        else:
            above = shot
        if m is None and above is not None and above.defect is not None:
            # from here on every trial matches at the upper end's turning point,
            # forbidden ground for the whole bracket
            m = above.m
        ends = [s for s in (below, above) if s is not None and s.defect is not None]
        best = min(ends, key=lambda s: abs(s.defect), default=None)
        if best is shot:
            u, spare, kept = spare, u, shot
        e_lo = lo if below is None else below.energy
        e_hi = hi if above is None else above.energy
        # no sweep resolves a bracket narrower than RESOLUTION_ULPS of its energy
        target = max(tol, RESOLUTION_ULPS * math.ulp(e_hi))
        done = below and above and best and e_hi - e_lo <= target and abs(best.defect) <= DEFECT_TOL
        if done or iterations >= MAX_SEARCH_STEPS:
            break
        # a Newton step from the better end, aimed target/8 past the root so that a
        # step landing across it closes the bracket
        dx = -best.defect / best.slope if best else math.nan
        energy = best.energy + dx + math.copysign(0.125 * target, dx) if best else math.nan
        newton = e_lo < energy < e_hi
        if newton and abs(dx) <= 0.5 * step_old:
            step, step_old = abs(dx), step
        elif below is None or above is None:
            energy = lo if below is None else hi
        else:
            # bisection, cut to twice a Newton step that shrinks too slowly: inside
            # the defect's roundoff that steps across the root instead of creeping
            base, toward = (e_hi, -1.0) if best is above else (e_lo, 1.0)
            step, step_old = min(0.5 * (e_hi - e_lo), 2.0 * abs(dx) if newton else math.inf), step
            energy = base + toward * step
            if not e_lo < energy < e_hi:
                break

    # the returned energy is the end with the smaller defect, and its joined
    # sweeps are the wavefunction. An end whose sweeps were overwritten is shot
    # again; a search that stopped before an end reached the target node count
    # may have no end with a defect, and then the midpoint is shot.
    final = best
    if best is None:
        final = ws.shoot(0.5 * (e_lo + e_hi), m, out=u)
    elif best is not kept:
        final = ws.shoot(best.energy, best.m, out=u)
    return _Found(final, u, e_hi - e_lo, iterations, bool(done))


def check_origin_gap(problem: EffectivePotentialParams, grid: RadialGrid) -> None:
    """Raise :class:`GridTooCoarseError` when a 2D grid starts past the state.

    The CLI checks every grid it builds; :func:`solve_state` itself takes
    any grid, so a caller may trade accuracy for speed. The first point must
    sit within ``MAX_KAPPA_RHO_MIN`` ground-level decay lengths ``1/kappa``
    of the origin. The ground level's, whatever the node target: an excited
    level's innermost node sits about 1.45 of them out, so its own, longer,
    decay length would let the grid start on that node.
    The message names the largest ``rho_min`` allowed and the points that
    put ``rho_min = ORIGIN_STEP_MULTIPLE * h`` there.
    """
    if problem.dimension != 2:
        return
    e_est = closed_form_energy(problem, 0)
    kappa = math.sqrt(-(e_est if e_est is not None else estimate_cs_ground_energy(problem)))
    if kappa * grid.rho_min <= MAX_KAPPA_RHO_MIN:
        return
    rho_min = MAX_KAPPA_RHO_MIN / kappa
    points = math.ceil(ORIGIN_STEP_MULTIPLE * grid.rho_max / rho_min) + 1
    raise GridTooCoarseError(
        f"grid starts past the state: rho_min={grid.rho_min:.6g} is {kappa * grid.rho_min:.3g} "
        f"decay lengths from the origin, above {MAX_KAPPA_RHO_MIN:g}; use rho_min <= "
        f"{rho_min:.6g}, which with rho_max={grid.rho_max:.6g} takes at least {points} points"
    )
