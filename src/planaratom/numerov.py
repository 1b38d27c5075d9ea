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
negative defect; that sign keeps the bracket.

1. Node stage: midpoints, each matched at its own outermost classical
   turning point, until both ends have the target node count and a defect.
2. Interpolation stage: the match index is fixed at the turning point of
   the upper end, and the lower end is shot again there. Past it every energy in the bracket is classically
   forbidden, so the inward sweep has no node there, the node count up to
   it is the target throughout the bracket, and the defect is continuous
   and strictly decreasing across the bracket with a single root. Each
   step shoots the inverse quadratic (or secant) estimate of that root,
   falling back to the midpoint when the estimate leaves the bracket or
   the bracket has not halved in two steps, and steps at least
   ``bisection_tol/2`` past the end with the smaller defect so the far end
   closes in too (R. P. Brent, *Algorithms for Minimization without
   Derivatives*, 1973).

The search stops when the bracket is within ``bisection_tol`` and the end
with the smaller defect is within ``DEFECT_TOL``, goes on past the
tolerance while that defect is larger and the bracket can still shrink,
and takes at most ``MAX_SEARCH_STEPS`` steps. The returned energy is that
end, and its two sweeps, joined at the match index, are the wavefunction.
It is flagged converged when the bracket is within ``bisection_tol``, its
defect within ``DEFECT_TOL`` and the node count on target. A bracket that
misses is widened at most ``MAX_WIDENINGS`` times.

:func:`solve_state` runs that search twice. The quarter-grid stage runs it
from the default bracket on every fourth point of the grid (same
``rho_min`` and ``rho_max``, the potential subsampled, so it is evaluated
once per state). Its energy ``E_4h`` starts the search on the full grid in
``E_4h +- max(WARM_BRACKET_REL |E_4h|, bisection_tol)``, a few shots wide
and widened like any bracket when it misses; most of the node stage then
runs on a quarter of the points. The pair gives the Richardson estimate
``EigenResult.energy_error_ry = (E_h - E_4h)/255`` of ``E_exact - E_h`` for
an O(h^4) method. It covers the step error only: a 2D grid's start
(``rho_min = 80 h`` moves with h, so the pair is not pure h^4) and the
search tolerance are not in it. The search starts cold, from the default
bracket and with no estimate, when ``n_points - 1`` is not a multiple of 4,
the quarter grid would have fewer than the ``MIN_POINTS`` any grid needs,
or its search raises a
:class:`SolverError` (as when a high ``ell`` puts the quarter grid's first
swept row past the stable range) or does not converge.

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

Each sweep solves the three-term recurrence as one lower-triangular band
system with LAPACK (``dtbtrs``), the two seeds on its right-hand side. Each
row is divided by its diagonal ``f_k`` beforehand, so the system has a unit
diagonal and the forward substitution multiplies and adds only, which
takes the division off its critical path. The rounding of the stored
ratios costs accuracy: against a long-double loop an outward sweep is off
by 4.6e-10 of max|u| for pe ``chern_simons`` ground and 1.6e-9 for tmu
``chern_simons_jordan`` at lambda 1e-4 (unscaled rows: 1.2e-10, 1.6e-10).
A bound on the per-step growth cuts the sweep into segments only where it
could overflow, and values are rescaled between segments, so deep
classically forbidden regions are safe; default grids need one segment. A
grid past Numerov's stability limit (``f = 1 + h^2 g / 12`` outside ``(0,
1.5)`` on a swept row) raises :class:`GridTooCoarseError`; inside that
range ``f_k`` is a safe divisor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import simpson
from scipy.linalg.lapack import dtbtrs

from .model import CHERN_SIMONS_KINDS, EffectivePotentialParams, effective_potential
from .specfun import EULER_GAMMA

# Fewest points of a RadialGrid, the quarter grid of the warm start included.
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

# Most search steps of one search; a search that runs out is flagged unconverged.
MAX_SEARCH_STEPS = 200

# Most widenings of a starting bracket that misses the state.
MAX_WIDENINGS = 3

# Half-width of the warm-start bracket relative to the quarter-grid energy.
# |E_4h - E_h|/|E| measured at most 3.6e-7 on default grids (four kinds, ell
# 0-3, nodes 0-3) and 4.7e-7 on benchmark chern-simons inputs.
WARM_BRACKET_REL = 3e-6

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
        if not (0.0 < self.rho_min < self.rho_max):
            raise ValueError("need 0 < rho_min < rho_max")
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

    ``iterations`` counts the steps of the search on ``grid`` (trial
    energies inside the bracket); ``sweeps`` every Numerov sweep of the
    solve and ``points_swept`` the grid points they cover, both counting the
    quarter-grid stage too. ``match_index`` is the grid index where the
    returned wavefunction's two sweeps are joined and ``match_defect`` is
    measured. ``energy_error_ry`` estimates ``E_exact - energy`` from the
    quarter-grid energy, ``(E_h - E_4h)/255``; None when the search started
    cold (see the module docstring).
    """

    energy: float
    nodes: int
    ell: int
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


def _sweep(f: np.ndarray, u0: float, u1: float, rho: np.ndarray) -> np.ndarray:
    """Numerov recurrence as a lower-triangular banded solve.

    ``f = 1 + h^2 g / 12`` and ``rho`` in sweep order; seeds sit at the
    first two entries. Row ``k >= 2`` of the system reads ``u_k - (12 - 10
    f_{k-1})/f_k u_{k-1} + f_{k-2}/f_k u_{k-2} = 0`` (the recurrence divided
    by ``f_k``, so no division is left in the substitution), the seed terms
    move to the right-hand side, and LAPACK's ``dtbtrs`` solves it by
    forward substitution with a unit diagonal outside the GIL. The
    recurrence is stable only for ``0 < f < 1.5``: past 1.5 (``h^2 g > 6``,
    under 2.6 points per wavelength) a spurious mode grows with alternating
    sign, and a row outside that range raises :class:`GridTooCoarseError`,
    naming its ``rho``. Inside it, one
    step grows the solution by about ``arccosh((6 - 5f)/f) <= sqrt(12 (1/f -
    1))`` nats (the rate of the growing mode for constant ``f``, none for
    ``f >= 1``); the sweep is cut where that bound adds up to 300 nats
    (``_SEGMENT_GROWTH``), one solve per segment, and a segment whose peak
    passes ``RESCALE_THRESHOLD`` rescales all values before it, so deep
    classically forbidden regions never overflow. Default grids need one
    segment.
    """
    n = f.shape[0]
    u = np.zeros(n)
    u[0], u[1] = u0, u1
    diag = f[2:]
    worst = diag.min()
    if not (worst > 0.0 and diag.max() < 1.5):
        k = 2 + int(np.argmin((diag > 0.0) & (diag < 1.5)))
        raise GridTooCoarseError(
            f"grid too coarse for Numerov at rho={rho[k]:.6g}: f = 1 + h^2 g/12 = {f[k]:.3g} "
            "must be finite and in (0, 1.5) for a stable recurrence; refine it or raise rho_min"
        )
    stops = [n - 2]
    # fast path: the worst row's bound on every row stays under one segment; it spares
    # the growth sum on over 90% of the rows swept in the benchmark workloads
    if (n - 2) * math.sqrt(max(1.0 / worst - 1.0, 0.0)) > _SEGMENT_GROWTH:
        growth = np.cumsum(np.sqrt(np.maximum(1.0 / diag - 1.0, 0.0)))
        cuts = np.arange(_SEGMENT_GROWTH, growth[-1], _SEGMENT_GROWTH)
        stops = np.searchsorted(growth, cuts).tolist() + stops
    # column j holds unknown u_{j+2}; row k is scaled by 1/f_k, so the diagonal is one
    # (never stored, diag="U") and the off-diagonals read (10 f_{k-1} - 12)/f_k and
    # f_{k-2}/f_k. The last column's off-diagonals fall outside the matrix.
    ab = np.empty((3, n - 2), order="F")
    np.multiply(diag[:-1], 10.0, out=ab[1, :-1])
    ab[1, :-1] -= 12.0
    ab[1, :-1] /= diag[1:]
    np.divide(diag[:-2], diag[2:], out=ab[2, :-2])
    start = 0
    for stop in stops:
        if stop <= start:
            continue
        rhs = u[start + 2 : stop + 2]
        rhs[0] = ((12.0 - 10.0 * f[start + 1]) * u[start + 1] - f[start] * u[start]) / f[start + 2]
        # empty for a one-row segment, where f[start + 3] lies past the end
        rhs[1:2] = -f[start + 1] * u[start + 1] / f[start + 3 : start + 4]
        # f2py solves in place; the slice assignment copies back only if it did not
        rhs[:], info = dtbtrs(ab[:, start:stop], rhs, uplo="L", diag="U", overwrite_b=1)
        if info != 0:
            raise SolverError(f"LAPACK dtbtrs failed with info={info}")
        peak = max(rhs.max(), -rhs.min())
        if peak > RESCALE_THRESHOLD:
            u[: stop + 2] /= peak
        start = stop
    return u


def count_nodes(u: np.ndarray) -> int:
    """Strict sign changes over interior points; grid-exact zeros count once."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("wavefunction samples must be finite")
    s = np.sign(u[1:-1])
    s = s[s != 0.0]
    if s.size < 2:
        return 0
    return int(np.count_nonzero(s[1:] != s[:-1]))


def _derivative_5pt(u: np.ndarray, i: int, h: float) -> float:
    return (-u[i + 2] + 8.0 * u[i + 1] - 8.0 * u[i - 1] + u[i - 2]) / (12.0 * h)


def _outer_turning_point(g: np.ndarray) -> int:
    """Index of the outermost classical turning point; the midpoint if there is none."""
    crossings = np.nonzero((g[:-1] > 0.0) & (g[1:] <= 0.0))[0]
    return int(crossings[-1]) if crossings.size else (g.shape[0] - 1) // 2


class _Shot(NamedTuple):
    """One shooting trial: its energy, match index, node count up to the
    match index and defect (None when gated off target or pinned on a node,
    see :meth:`_ShootingWorkspace.shoot`)."""

    energy: float
    m: int
    nodes: int
    defect: float | None


class _ShootingWorkspace:
    """Per-problem state shared across energy trials of one solve."""

    def __init__(self, problem, grid, node_target=0, u_eff=None):
        self.problem = problem
        self.grid = grid
        self.node_target = node_target
        self.rho = grid.points()
        self.h = grid.step
        if u_eff is None:
            u_eff = np.asarray(effective_potential(problem, self.rho), dtype=float)
            if not np.all(np.isfinite(u_eff)):
                raise NonFinitePotentialError("effective potential is not finite on the grid")
        self.u_eff = u_eff
        self.h2_12 = self.h * self.h / 12.0
        self.sweeps = 0
        self.points_swept = 0

    def quartered(self) -> _ShootingWorkspace | None:
        """Workspace on every fourth point of this grid, reusing its potential.

        None when ``n_points - 1`` is not a multiple of 4 or the quarter grid
        would have fewer than ``MIN_POINTS``, which :class:`RadialGrid` rejects.
        """
        n = self.grid.n_points
        if (n - 1) % 4 or (n - 1) // 4 + 1 < MIN_POINTS:
            return None
        grid = RadialGrid(self.grid.rho_min, self.grid.rho_max, (n - 1) // 4 + 1)
        return _ShootingWorkspace(self.problem, grid, self.node_target, self.u_eff[::4])

    def shoot(self, energy, match_index=None, gated=False, out=None) -> _Shot:
        """One shooting trial: sweep outward and inward, match in between.

        The match index ``m`` is ``match_index`` if given, else the
        outermost classical turning point, clamped away from the ends.
        ``nodes`` is counted on the outward sweep up to ``m``. With
        ``gated`` the inward sweep is skipped (``defect`` None) when
        ``nodes`` differs from ``node_target``. ``defect`` is also None
        when the outward sweep has a node pinned at the match point, see
        :meth:`_defect_at`. Given ``out``, a trial that sweeps inward writes
        both sweeps there, joined at ``m`` and unnormalized; the sweeps
        themselves never outlive the call (held across trials, they
        fragment the heap and raise the process's resident memory).
        """
        g = energy - self.u_eff
        m = _outer_turning_point(g) if match_index is None else int(match_index)
        m = min(max(m, _STENCIL_PAD + 2), g.shape[0] - _STENCIL_PAD - 3)
        f = 1.0 + self.h2_12 * g[: m + _STENCIL_PAD + 1]
        seeds = small_rho_solution(self.problem, energy, self.rho[:2])
        u_left = _sweep(f, float(seeds[0]), float(seeds[1]), self.rho)
        self.sweeps += 1
        self.points_swept += f.shape[0]
        nodes = count_nodes(u_left[: m + 1])
        if gated and nodes != self.node_target:
            return _Shot(energy, m, nodes, None)
        kappa_sq = self.u_eff[-1] - energy
        kappa = math.sqrt(kappa_sq) if kappa_sq > 0.0 else 1.0
        f = 1.0 + self.h2_12 * g[m - _STENCIL_PAD :]
        rho = self.rho[m - _STENCIL_PAD :][::-1]
        u_right = _sweep(f[::-1], INWARD_SEED, INWARD_SEED * math.exp(kappa * self.h), rho)[::-1]
        self.sweeps += 1
        self.points_swept += f.shape[0]
        defect = self._defect_at(u_left, u_right, m)
        if out is not None:
            ul, ur = u_left[m], u_right[_STENCIL_PAD]
            if ul == 0.0 and ur == 0.0:
                raise DegenerateSeedError("both sweeps vanish at the matching point")
            out[: m + 1] = u_left[: m + 1]
            np.multiply(u_right[_STENCIL_PAD + 1 :], ul / ur if ur != 0.0 else 1.0, out=out[m + 1 :])
        return _Shot(energy, m, nodes, defect)

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
        [m-pad, N-1]. Returns None when the outward sweep has a node pinned
        at every candidate index (energy sits on a left-problem eigenvalue).
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
                return (dl - dr) / max(1.0, abs(dl), abs(dr))
        if u_left[m] == 0.0 and u_right[_STENCIL_PAD] == 0.0:
            raise DegenerateSeedError("both sweeps vanish at the matching point")
        return None


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
    the solved ground level (a solved/estimate ratio of 0.36-0.80 for pe
    and tmu, both K0 kinds, lambda from 2e-6 to 2e-4).
    """
    pref = problem.k0_prefactor
    a = problem.k0_argument_scale
    eta = -pref * 5.0
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

    Coulomb kinds size the box from the closed-form tail constant; the K0
    kinds from a self-consistent depth estimate. 3D problems keep a tiny
    ``rho_min`` (the regular solution is analytic there). For ``ell >= 5``
    it moves out just far enough that the centrifugal term leaves ``f >=
    1/2`` on the first swept row: ``rho_min + 2h = h sqrt(l(l+1)/6)``. 2D
    problems start a fixed number of steps out, see the module docstring.
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
        box = max(30.0 / kappa, 40.0 / math.sqrt(zeta))
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
    so below every excited level of the well (``solve_state`` widens a
    bracket that misses)."""
    e_est = closed_form_energy(problem, node_target)
    if e_est is not None:
        return (1.5 * e_est, -bisection_tol)
    return (estimate_cs_ground_energy(problem), -1e-4)


def _normalize_samples(u: np.ndarray, h: float) -> np.ndarray:
    norm_sq = simpson(u * u, dx=h)
    if norm_sq <= 0.0 or not np.isfinite(norm_sq):
        raise NormalizationError("cannot normalize a zero or non-finite wavefunction")
    out = u / math.sqrt(norm_sq)
    peak = np.max(np.abs(out))
    first_lobe = np.nonzero(np.abs(out) > 0.01 * peak)[0]
    if first_lobe.size and out[first_lobe[0]] < 0.0:
        out = -out
    return out


def solve_state(
    problem: EffectivePotentialParams,
    node_target: int = 0,
    grid: RadialGrid | None = None,
    bisection_tol: float = BISECTION_TOL,
) -> tuple[EigenResult, WaveFunction]:
    """Find the bound state with ``node_target`` radial nodes.

    Returns the eigenvalue (rydberg) with search diagnostics and the
    normalized matched wavefunction; the module docstring describes the
    search, whose final bracket is ``bisection_tol`` Ry wide. Raises
    :class:`BracketingError` when no sign change is found after
    ``MAX_WIDENINGS`` widenings; an exhausted step budget returns a result
    flagged ``converged=False`` instead.
    """
    if node_target < 0:
        raise ValueError("node_target must be non-negative")
    if not 0.0 < bisection_tol < math.inf:
        raise ValueError("bisection_tol must be positive and finite")
    if grid is None:
        grid = default_grid(problem, node_target)
    ws = _ShootingWorkspace(problem, grid, node_target)
    bracket, e_coarse = default_bracket(problem, node_target, bisection_tol), None
    quarter = ws.quartered()
    if quarter is not None:
        try:
            coarse, _ = _search(quarter, bracket, bisection_tol)
        except SolverError:
            coarse = None
        if coarse is not None and coarse.converged:
            e_coarse = coarse.energy
        ws.sweeps += quarter.sweeps
        ws.points_swept += quarter.points_swept
    if e_coarse is not None:
        pad = max(WARM_BRACKET_REL * abs(e_coarse), bisection_tol)
        bracket = (e_coarse - pad, e_coarse + pad)
    return _search(ws, bracket, bisection_tol, e_coarse)


def _search(ws, bracket, tol, e_coarse=None) -> tuple[EigenResult, WaveFunction]:
    """The search of the module docstring on ``ws`` from ``bracket`` down to ``tol``.

    ``e_coarse`` is the quarter-grid energy the bracket was built around,
    None for a cold start; it sets ``EigenResult.energy_error_ry``.
    """
    problem, grid, node_target = ws.problem, ws.grid, ws.node_target
    lo, hi = bracket
    below, above = ws.shoot(lo, gated=True), ws.shoot(hi, gated=True)
    widenings = 0
    while (ws.sign(below) < 0 or ws.sign(above) > 0) and widenings < MAX_WIDENINGS:
        if ws.sign(below) < 0:
            below = ws.shoot(2.0 * below.energy, gated=True)
        if ws.sign(above) > 0:
            above = ws.shoot(0.5 * above.energy, gated=True)
        widenings += 1
    if ws.sign(below) < 0 or ws.sign(above) > 0:
        lo, hi = below.energy, above.energy
        scan = [(-e, ws.shoot(-e, gated=True).nodes) for e in np.geomspace(-lo, -hi, 8)]
        message = (
            f"state with {node_target} nodes not bracketed in [{lo:.6g}, {hi:.6g}] Ry; "
            "node-count scan: " + "; ".join(f"E={e:.6g} Ry: {k} nodes" for e, k in scan)
        )
        if ws.sign(above) > 0:
            message += (
                f"; at the top of the bracket the node count is still {scan[-1][1]}, "
                f"so the level lies above {hi:.6g} Ry and may not be bound"
            )
        raise BracketingError(message, (lo, hi), scan)

    m = None  # the fixed match index of the interpolation stage
    recent = []  # (energy, defect) of the latest shots matched at m, newest last
    widths = []  # bracket width before each search step
    iterations = 0
    # joined sweeps of `kept`, the end with the smaller defect, and of the latest trial
    u, spare = np.empty(grid.n_points), np.empty(grid.n_points)
    kept = shot = None
    while True:
        if m is None and below.defect is not None and above.defect is not None:
            # both ends on target: from here on every shot matches at the
            # upper end's turning point, forbidden ground for the whole bracket
            m = above.m
            if below.m != m:
                below = shot = ws.shoot(below.energy, m, gated=True, out=spare)
            recent = [(s.energy, s.defect) for s in (below, above)]
        ends = [s for s in (below, above) if s.defect is not None]
        best = min(ends, key=lambda s: abs(s.defect), default=None)
        if best is not None and best is shot:
            u, spare, kept = spare, u, shot
        width = above.energy - below.energy
        if best is not None and width <= tol and abs(best.defect) <= DEFECT_TOL:
            break
        if iterations >= MAX_SEARCH_STEPS:
            break
        energy = 0.5 * (below.energy + above.energy)
        halved = len(widths) < 2 or width <= 0.5 * widths[-2]
        if m is not None and len(ends) == 2 and halved:
            energy = _safeguarded_trial(recent, below, above, best, tol, energy)
        if not below.energy < energy < above.energy:
            break
        shot = ws.shoot(energy, m, gated=True, out=spare)
        if m is not None and shot.defect is not None:
            recent = [*recent[-2:], (shot.energy, shot.defect)]
        if ws.sign(shot) > 0:
            below = shot
        else:
            above = shot
        widths.append(width)
        iterations += 1

    # the returned energy is the end with the smaller defect, and its joined
    # sweeps are the wavefunction. An end from before the search (a start or
    # widening shot) was not joined and is shot again; a search that stopped
    # before both ends reached the target node count may have no end with a
    # defect, and then the midpoint is shot as before.
    final = best
    if best is None:
        final = ws.shoot(0.5 * (below.energy + above.energy), m, out=u)
    elif best is not kept:
        final = ws.shoot(best.energy, best.m, out=u)
    u = _normalize_samples(u, grid.step)
    nodes = count_nodes(u)
    defect = final.defect if final.defect is not None else math.inf
    converged = bool(width <= tol and abs(defect) <= DEFECT_TOL and nodes == node_target)
    result = EigenResult(
        energy=final.energy,
        nodes=nodes,
        ell=problem.ell,
        converged=converged,
        match_defect=defect,
        bracket_width=width,
        iterations=iterations,
        sweeps=ws.sweeps,
        points_swept=ws.points_swept,
        match_index=final.m,
        grid=grid,
        energy_error_ry=None if e_coarse is None else (final.energy - e_coarse) / 255.0,
    )
    return result, WaveFunction(grid=grid, u=u, energy=final.energy)


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


def _safeguarded_trial(pts, below, above, best, tol, midpoint):
    """Next trial energy of the interpolation stage.

    Inverse quadratic interpolation of the defect's root through the three
    ``(energy, defect)`` pairs ``pts``, the secant through the last two
    when there are not three distinct defects; ``midpoint`` when the
    estimate leaves the bracket. While the bracket is wider than ``tol``
    the trial sits at least ``tol/2`` past the ``best`` end, so a shot that
    lands across the root closes the far end to within ``tol``.
    """
    if len(pts) == 3 and len({f for _, f in pts}) == 3:
        trial = sum(
            x * math.prod(fj / (fj - fi) for j, (_, fj) in enumerate(pts) if j != i)
            for i, (x, fi) in enumerate(pts)
        )
    else:
        (x0, f0), (x1, f1) = pts[-2:]
        if f0 == f1:
            return midpoint
        trial = x1 - f1 * (x1 - x0) / (f1 - f0)
    lo, hi = below.energy, above.energy
    if hi - lo > tol and lo < trial < hi:
        far = hi if best is below else lo
        step = max(abs(trial - best.energy), 0.5 * tol)
        trial = best.energy + math.copysign(step, far - best.energy)
    return trial if lo < trial < hi else midpoint

