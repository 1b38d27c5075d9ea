"""Bound-state solver: Numerov integration plus node-counted shooting.

The radial problem is ``u''(rho) + [E - U_eff(rho)] u(rho) = 0`` with the
energy ``E`` carried in rydberg (twice the Hartree value). Eigenvalues are
found in two fused stages on a bracket ``[E_lo, E_hi]`` (see
:func:`default_bracket`: 1.5x the closed form for Coulomb kinds, the
self-consistent depth estimate of the ground level for the K0 kinds, and
widened when it misses):

1. node counting on the outward sweep isolates the sub-bracket where the
   count of the targeted state transitions from ``node_target`` to
   ``node_target + 1``;
2. within it, bisection on the sign of the log-derivative mismatch between
   the outward and inward sweeps at the outermost classical turning point.

Both stages reduce to one sign predicate: below the eigenvalue the outward
sweep has too few nodes or a positive mismatch, above it too many nodes or
a negative mismatch. The mismatch is strictly decreasing in ``E`` between
its poles, so the bisection is rigorous. Every trial energy, the final
assembly and :func:`match_defect` go through one shooting step
(``_ShootingWorkspace.shoot``). Bisection runs until the bracket is within
``SolverConfig.bisection_tol`` and then on while the mismatch at its
midpoint exceeds ``DEFECT_TOL`` and the bracket can still shrink, within
``SolverConfig.max_bisections``. The returned energy is that midpoint; it
is flagged converged when the bracket is within ``bisection_tol``, its own
mismatch within ``DEFECT_TOL`` and the node count on target. The other
``SolverConfig`` fields set the starting bracket and the widening budget.

Near the origin every potential here is singular; sweeps are seeded with a
short Frobenius expansion of the regular solution (power law ``rho^s`` with
``s = l + 1`` in 3D and ``s = l + 1/2`` in 2D, plus series corrections),
which keeps the eigenvalue error at the ``O(h^4)`` bulk level. For the 2D
kinds the first grid point is placed a fixed number of steps away from the
origin — the ``-1/(4 rho^2)`` term makes the true solution's curvature
unbounded there, and a uniform grid starting much closer than one step
cannot represent it.

The three-term recurrence is evaluated as blocked prefix products of 2x2
transfer matrices (vectorized, log-depth within a block). Blocks are
chained by a scalar pass over their end matrices, which renormalizes the
running pair so deep classically forbidden regions never overflow; each
chunk of blocks is then filled in one vectorized step. A plain-loop
reference implementation is kept for the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import eigh_tridiagonal

from .model import CHERN_SIMONS_KINDS, EffectivePotentialParams, effective_potential
from .specfun import EULER_GAMMA

# Magnitude that triggers mid-sweep renormalization in the loop fallback.
RESCALE_THRESHOLD = 1e100

# Seed value at the outer edge for the inward sweep; the overall scale is
# irrelevant by linearity, this just leaves growth headroom.
INWARD_SEED = 1e-150

# First grid point sits this many steps from the origin for 2D kinds.
ORIGIN_STEP_MULTIPLE = 80.0

# Number of Frobenius correction terms used in outward seeds.
SEED_SERIES_TERMS = 6

# Largest |match_defect| of a result flagged converged.
DEFECT_TOL = 1e-6

# Points kept past the match index so 5-point derivative stencils fit.
_STENCIL_PAD = 4


class BracketingError(RuntimeError):
    """The requested state could not be bracketed; carries a scan report."""


class DegenerateSeedError(RuntimeError):
    """Both sweeps vanish at the matching point."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform mesh in the dimensionless radial coordinate."""

    rho_min: float
    rho_max: float
    n_points: int

    def __post_init__(self):
        if not (0.0 < self.rho_min < self.rho_max):
            raise ValueError("need 0 < rho_min < rho_max")
        if self.n_points < 1000:
            raise ValueError("n_points must be at least 1000")

    @property
    def step(self) -> float:
        return (self.rho_max - self.rho_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.rho_min, self.rho_max, self.n_points)

    def halved_step(self) -> "RadialGrid":
        """Same endpoints, twice the resolution (nested points)."""
        return replace(self, n_points=2 * self.n_points - 1)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the eigenvalue search.

    ``energy_bracket`` is the starting bracket in rydberg (``None`` uses
    :func:`default_bracket`); ``bisection_tol`` the final bracket width;
    ``max_bisections`` and ``max_widenings`` the iteration budgets.
    """

    energy_bracket: tuple[float, float] | None = None
    bisection_tol: float = 1e-8
    max_bisections: int = 200
    max_widenings: int = 3

    def __post_init__(self):
        if self.bisection_tol <= 0:
            raise ValueError("bisection_tol must be positive")
        if self.energy_bracket is not None:
            lo, hi = self.energy_bracket
            if not (lo < hi < 0):
                raise ValueError("energy bracket must satisfy E_lo < E_hi < 0")


@dataclass(frozen=True)
class EigenResult:
    """Converged (or flagged) eigenvalue with search diagnostics."""

    energy: float
    nodes: int
    ell: int
    converged: bool
    match_defect: float
    bracket_width: float
    iterations: int
    grid: RadialGrid


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


# Block length for the vectorized recurrence. Prefix products are only
# formed within one block, which caps their dynamic range; roundoff of the
# log-depth scan grows with the squared condition of the partial products,
# so blocks must stay short compared to the solution's e-folding scale
# (256 steps is well under one e-fold for every default grid here).
_SCAN_BLOCK = 256

# Blocks whose prefix products are built together in one vectorized pass;
# bounds the scratch memory of a sweep to a few arrays of 16384 doubles.
# Numpy releases the GIL only inside each call, so longer calls let
# concurrent sweeps overlap: forty 200,001-point sweeps on two threads of a
# two-core Xeon took 0.57 s with 32 blocks per chunk and 0.37 s with 64,
# while one thread ran at the same speed.
_SCAN_CHUNK_BLOCKS = 64


def _block_prefix_products(a: np.ndarray, b: np.ndarray):
    """Running products ``P_j = M_j ... M_1`` along each row of ``(a, b)``.

    Rows are independent blocks; index doubling along the row gives every
    row the same arithmetic as if it were scanned on its own.
    """
    p00, p01 = a.copy(), b.copy()
    p10, p11 = np.ones_like(a), np.zeros_like(a)
    width = a.shape[1]
    shift = 1
    while shift < width:
        q00, q01 = p00[:, shift:], p01[:, shift:]
        q10, q11 = p10[:, shift:], p11[:, shift:]
        r00, r01 = p00[:, :-shift], p01[:, :-shift]
        r10, r11 = p10[:, :-shift], p11[:, :-shift]
        n00 = q00 * r00 + q01 * r10
        n01 = q00 * r01 + q01 * r11
        n10 = q10 * r00 + q11 * r10
        n11 = q10 * r01 + q11 * r11
        p00[:, shift:] = n00
        p01[:, shift:] = n01
        p10[:, shift:] = n10
        p11[:, shift:] = n11
        shift *= 2
    return p00, p01, p10, p11


def _sweep(f: np.ndarray, u0: float, u1: float) -> np.ndarray:
    """Numerov recurrence via blocked prefix products of transfer matrices.

    ``f = 1 + h^2 g / 12`` in sweep order; seeds sit at the first two
    entries. Within a block the running products ``P_j = M_j ... M_1`` of
    ``M_k = [[a_k, b_k], [1, 0]]`` are built by index doubling, many blocks
    at once. A scalar pass chains the blocks of a chunk through their end
    matrices, recording each block's starting pair and where the running
    pair grows past the overflow guard; one vectorized step then fills the
    whole chunk, and the recorded renormalizations are applied in order,
    so arbitrarily deep forbidden regions are safe.
    """
    n = f.shape[0]
    u = np.empty(n)
    u[0], u[1] = u0, u1
    if n == 2:
        return u
    m = n - 2
    n_blocks = -(-m // _SCAN_BLOCK)
    # zero padding of the last block: a prefix product never reads ahead
    a_all = np.zeros(n_blocks * _SCAN_BLOCK)
    b_all = np.zeros(n_blocks * _SCAN_BLOCK)
    a_all[:m] = (12.0 - 10.0 * f[1:-1]) / f[2:]
    b_all[:m] = -f[:-2] / f[2:]
    a_all = a_all.reshape(n_blocks, _SCAN_BLOCK)
    b_all = b_all.reshape(n_blocks, _SCAN_BLOCK)
    pos = 1  # index of the leading value of the current (u_k, u_{k-1}) pair
    uk, ukm1 = u1, u0
    for first in range(0, n_blocks, _SCAN_CHUNK_BLOCKS):
        chunk = slice(first, first + _SCAN_CHUNK_BLOCKS)
        p00, p01, p10, p11 = _block_prefix_products(a_all[chunk], b_all[chunk])
        rows = p00.shape[0]
        start = pos + 1
        length = min(rows * _SCAN_BLOCK, m - (pos - 1))
        # last filled column of each row; only the sweep's final row is short
        last = np.full(rows, _SCAN_BLOCK - 1)
        last[-1] = (length - 1) % _SCAN_BLOCK
        at_end = (np.arange(rows), last)
        uk_rows, ukm1_rows, rescales = [], [], []
        for e00, e01, e10, e11 in zip(*(p[at_end].tolist() for p in (p00, p01, p10, p11))):
            uk_rows.append(uk)
            ukm1_rows.append(ukm1)
            uk, ukm1 = e00 * uk + e01 * ukm1, e10 * uk + e11 * ukm1
            pos = min(pos + _SCAN_BLOCK, start + length - 1)
            if abs(uk) + abs(ukm1) > RESCALE_THRESHOLD:
                rescales.append(pos)
                uk /= RESCALE_THRESHOLD
                ukm1 /= RESCALE_THRESHOLD
        p00 *= np.array(uk_rows)[:, None]
        p01 *= np.array(ukm1_rows)[:, None]
        p00 += p01
        u[start : start + length] = p00.reshape(-1)[:length]
        for end in rescales:
            u[: end + 1] /= RESCALE_THRESHOLD
    return u


def _sweep_loop(f: np.ndarray, u0: float, u1: float) -> np.ndarray:
    """Reference recurrence (plain loop), used by the tests as an oracle."""
    n = f.shape[0]
    u = np.empty(n)
    u[0], u[1] = u0, u1
    for k in range(1, n - 1):
        u[k + 1] = ((12.0 - 10.0 * f[k]) * u[k] - f[k - 1] * u[k - 1]) / f[k + 1]
        if abs(u[k + 1]) > RESCALE_THRESHOLD:
            u[: k + 2] /= RESCALE_THRESHOLD
    return u


def numerov_sweep(geff, grid: RadialGrid, u0: float, u1: float, direction: str) -> np.ndarray:
    """Integrate ``u'' + g(rho) u = 0`` across the grid from two seed values.

    Parameters
    ----------
    geff : callable
        Vectorized ``rho -> g(rho)`` (for bound problems ``g = E - U_eff``).
    grid : RadialGrid
        The mesh; the result is returned in grid order for both directions.
    u0, u1 : float
        Seed values at the two starting points (innermost pair for
        ``outward``, outermost pair for ``inward``).
    direction : str
        ``"outward"`` or ``"inward"``.
    """
    if direction not in ("outward", "inward"):
        raise ValueError(f"direction must be outward or inward, got {direction!r}")
    rho = grid.points()
    g = np.asarray(geff(rho), dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("g is not finite everywhere on the grid")
    h = grid.step
    f = 1.0 + (h * h / 12.0) * g
    if direction == "inward":
        u = _sweep(f[::-1], u0, u1)
        return u[::-1]
    return _sweep(f, u0, u1)


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


class _ShootingWorkspace:
    """Per-problem state shared across energy trials of one solve."""

    def __init__(self, problem, grid, node_target=0):
        self.problem = problem
        self.grid = grid
        self.node_target = node_target
        self.rho = grid.points()
        self.h = grid.step
        self.u_eff = np.asarray(effective_potential(problem, self.rho), dtype=float)
        if not np.all(np.isfinite(self.u_eff)):
            raise ValueError("effective potential is not finite on the grid")
        self.h2_12 = self.h * self.h / 12.0

    def shoot(self, energy, match_index=None, gated=False):
        """One shooting trial: sweep outward and inward, match in between.

        The match index ``m`` is ``match_index`` if given, else the
        outermost classical turning point, clamped away from the ends. The
        outward sweep covers grid indices [0, m+pad] and the inward sweep
        [m-pad, N-1], in grid order. Returns ``(m, nodes, u_left, u_right,
        defect)`` with ``nodes`` counted on the outward sweep up to ``m``.
        With ``gated`` the inward sweep is skipped (``u_right`` and
        ``defect`` None) when ``nodes`` differs from ``node_target``.
        ``defect`` is also None when the outward sweep has a node pinned at
        the match point, see :meth:`_defect_at`.
        """
        g = energy - self.u_eff
        m = _outer_turning_point(g) if match_index is None else int(match_index)
        m = min(max(m, _STENCIL_PAD + 2), g.shape[0] - _STENCIL_PAD - 3)
        f = 1.0 + self.h2_12 * g[: m + _STENCIL_PAD + 1]
        seeds = small_rho_solution(self.problem, energy, self.rho[:2])
        u_left = _sweep(f, float(seeds[0]), float(seeds[1]))
        nodes = count_nodes(u_left[: m + 1])
        if gated and nodes != self.node_target:
            return m, nodes, u_left, None, None
        kappa_sq = self.u_eff[-1] - energy
        kappa = math.sqrt(kappa_sq) if kappa_sq > 0.0 else 1.0
        f = 1.0 + self.h2_12 * g[m - _STENCIL_PAD :]
        u_right = _sweep(f[::-1], INWARD_SEED, INWARD_SEED * math.exp(kappa * self.h))[::-1]
        return m, nodes, u_left, u_right, self._defect_at(u_left, u_right, m)

    def classify(self, energy):
        """Sign predicate for bisection: +1 below the target eigenvalue, -1 above.

        Node counting decides alone when the count is off target (the
        inward sweep is skipped then); otherwise the sign of the defect.
        """
        _, nodes, _, _, defect = self.shoot(energy, gated=True)
        return self._sign(nodes, defect)

    def _sign(self, nodes, defect):
        if nodes != self.node_target:
            return 1 if nodes < self.node_target else -1
        if defect is None:
            # outward node sitting on the match point: just past the
            # left-problem eigenvalue, hence above the target energy
            return -1
        return 1 if defect > 0.0 else -1

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

    def assemble(self, energy):
        """Glue the outward and inward sweeps at the match point, unnormalized.

        Returns ``(u, defect, sign)``: the glued samples, the match defect
        (inf when there is no usable match point) and the bisection sign of
        ``energy`` as :meth:`classify` gives it.
        """
        m, nodes, u_left, u_right, defect = self.shoot(energy)
        sign = self._sign(nodes, defect)
        ul, ur = u_left[m], u_right[_STENCIL_PAD]
        if ul == 0.0 and ur == 0.0:
            raise DegenerateSeedError("both sweeps vanish at the matching point")
        scale = ul / ur if ur != 0.0 else 1.0
        u = np.empty(self.grid.n_points)
        u[: m + 1] = u_left[: m + 1]
        u[m + 1 :] = scale * u_right[_STENCIL_PAD + 1 :]
        return u, (defect if defect is not None else math.inf), sign


def match_defect(
    energy_ry: float,
    problem: EffectivePotentialParams,
    grid: RadialGrid,
    match_index: int,
) -> float:
    """Log-derivative mismatch of the two sweeps at ``match_index``.

    The raw difference ``u'_L/u_L - u'_R/u_R`` is normalized by the larger
    log-derivative magnitude (floored at 1), which keeps it dimensionless
    without moving its zeros. Continuous and strictly decreasing in the
    energy between its poles; crosses zero exactly at the eigenvalues.
    """
    if not (0 < match_index < grid.n_points - 1):
        raise ValueError("match_index must be strictly interior")
    if not energy_ry < 0:
        raise ValueError("bound-state energies are negative")
    *_, defect = _ShootingWorkspace(problem, grid).shoot(energy_ry, match_index)
    if defect is None:
        raise DegenerateSeedError("no usable matching point near the requested index")
    return defect


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
    ``rho_min`` (the regular solution is analytic there); 2D problems
    start a fixed number of steps out, see the module docstring.
    """
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
            rho_min = 1e-6
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
        raise ValueError("cannot normalize a zero or non-finite wavefunction")
    out = u / math.sqrt(norm_sq)
    peak = np.max(np.abs(out))
    first_lobe = np.nonzero(np.abs(out) > 0.01 * peak)[0]
    if first_lobe.size and out[first_lobe[0]] < 0.0:
        out = -out
    return out


def solve_state(
    problem: EffectivePotentialParams,
    node_target: int = 0,
    config: SolverConfig | None = None,
    grid: RadialGrid | None = None,
) -> tuple[EigenResult, WaveFunction]:
    """Find the bound state with ``node_target`` radial nodes.

    Returns the eigenvalue (rydberg) with search diagnostics and the
    normalized matched wavefunction. Raises :class:`BracketingError` when no
    sign change is found after the configured widenings; an exhausted
    iteration budget returns a result flagged ``converged=False`` instead.
    """
    if node_target < 0:
        raise ValueError("node_target must be non-negative")
    if config is None:
        config = SolverConfig()
    if grid is None:
        grid = default_grid(problem, node_target)
    ws = _ShootingWorkspace(problem, grid, node_target)

    lo, hi = (
        config.energy_bracket
        if config.energy_bracket is not None
        else default_bracket(problem, node_target, config.bisection_tol)
    )
    s_lo = ws.classify(lo)
    s_hi = ws.classify(hi)
    widenings = 0
    while (s_lo < 0 or s_hi > 0) and widenings < config.max_widenings:
        if s_lo < 0:
            lo *= 2.0
            s_lo = ws.classify(lo)
        if s_hi > 0:
            hi *= 0.5
            s_hi = ws.classify(hi)
        widenings += 1
    if s_lo < 0 or s_hi > 0:
        report = [
            f"E={-e:.6g} Ry: {ws.shoot(-e, gated=True)[1]} nodes"
            for e in np.geomspace(-lo, -hi, 8)
        ]
        raise BracketingError(
            f"state with {node_target} nodes not bracketed in [{lo:.6g}, {hi:.6g}] Ry; "
            "node-count scan: " + "; ".join(report)
        )

    # Bisect down to bisection_tol; past it, keep bisecting while the
    # midpoint's match defect exceeds DEFECT_TOL and the bracket can still
    # shrink. The midpoint the loop stops on is the returned energy.
    iterations = 0
    while True:
        energy = 0.5 * (lo + hi)
        if hi - lo > config.bisection_tol and iterations < config.max_bisections:
            sign = ws.classify(energy)
        else:
            u_raw, defect, sign = ws.assemble(energy)
            if (
                abs(defect) <= DEFECT_TOL
                or iterations >= config.max_bisections
                or not lo < energy < hi
            ):
                break
        if sign >= 0:
            lo = energy
        else:
            hi = energy
        iterations += 1

    u = _normalize_samples(u_raw, grid.step)
    nodes = count_nodes(u)
    width = hi - lo
    converged = (
        width <= config.bisection_tol and abs(defect) <= DEFECT_TOL and nodes == node_target
    )
    result = EigenResult(
        energy=energy,
        nodes=nodes,
        ell=problem.ell,
        converged=converged,
        match_defect=defect,
        bracket_width=width,
        iterations=iterations,
        grid=grid,
    )
    return result, WaveFunction(grid=grid, u=u, energy=energy)


def fd_lowest_energies(
    problem: EffectivePotentialParams,
    grid: RadialGrid,
    n_states: int = 1,
) -> np.ndarray:
    """Independent check: three-point finite-difference diagonalization.

    Builds the tridiagonal discretization of ``-d^2/drho^2 + U_eff`` on the
    same mesh, with the inner boundary closed by the regular-solution ratio
    at the first grid point (Dirichlet at the outer edge), and returns the
    lowest eigenvalues in rydberg. The boundary ratio depends weakly on the
    energy, so it is iterated a few times from the previous eigenvalue.
    """
    rho = grid.points()
    h = grid.step
    u_eff = np.asarray(effective_potential(problem, rho), dtype=float)
    inner = u_eff[1:-1]
    off = np.full(inner.shape[0] - 1, -1.0 / (h * h))

    def lowest(energy_guess):
        seed = small_rho_solution(problem, energy_guess, rho[:2])
        ratio = float(seed[0] / seed[1])
        diag = 2.0 / (h * h) + inner
        diag[0] -= ratio / (h * h)
        return eigh_tridiagonal(
            diag, off, eigvals_only=True, select="i", select_range=(0, n_states - 1)
        )

    vals = lowest(0.0)
    for _ in range(3):
        vals = lowest(float(vals[0]))
    return vals
