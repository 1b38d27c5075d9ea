"""Bound-state solver: Numerov integration plus node-counted shooting.

The radial problem is ``u''(rho) + [E - U_eff(rho)] u(rho) = 0`` with the
energy ``E`` carried in rydberg (twice the Hartree value). It is solved on a
mesh uniform in ``x = ln rho`` (:class:`RadialGrid`) for ``phi = u/sqrt(rho)``,
the Langer form (R. E. Langer, Phys. Rev. 51 (1937) 669): ``phi''(x) =
[rho^2 (U_eff - E) + 1/4] phi``. The ``1/4`` cancels the 2D centrifugal
``-1/(4 rho^2)`` at ell 0, so no term is singular, and the regular solution
is ``phi ~ rho^(s - 1/2)`` near the origin (``s = l + 1`` in 3D, ``l + 1/2``
in 2D). A default grid starts ``RHO_MIN_KAPPA`` decay lengths ``1/kappa``
from the origin, below which too little of the state lies to matter, and
has ``DEFAULT_POINTS`` points, more on a box too wide for its quarter
(``EDGE_STEP``).

Eigenvalues are found by one search on a bracket ``[E_lo, E_hi]`` (see
:func:`default_bracket`: 1.5x the closed form for Coulomb kinds, the
self-consistent depth estimate of the ground level for the K0 kinds, and
widened when it misses). Every trial energy is one shooting step
(``_ShootingWorkspace.shoot``): an outward and an inward sweep, the nodes
of the outward one counted up to and including the match index, and the
log-derivative mismatch (the defect) of the two at that index. Below the eigenvalue a
trial has too few nodes or a positive defect, above it too many nodes, a
negative defect or a node pinned at the match index; the shot records that
side, which keeps the bracket. The shot also carries the
defect's slope: for two sweeps joined at ``m`` with ``u`` continuous, the
Wronskian gives ``dD/dE = -int u^2 drho / u(m)^2`` (J. W. Cooley, Math.
Comp. 15 (1961) 363), one sum ``int rho^2 phi^2 dx`` over the joined sweeps
the shot writes.

The search is ``rtsafe`` (Numerical Recipes, section 9.4), Newton steps
kept inside the bracket:

1. Node stage: until the upper end has the target node count, each trial
   is matched at its own outermost classical turning point, or at
   ``rho_max/2`` when none lies in the box.
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
from the coarsest level up, and finishes on the grid it was given, or on
the default grid. The grid is quartered (every fourth point, same
``rho_min`` and ``rho_max``) for as long as ``n_points - 1`` is a multiple
of 4 and the quarter keeps ``MIN_POINTS``: a default grid of 4,001 points
solves on 1,001 and 4,001. The potential is evaluated once, on the grid given, and
each coarser level views every fourth point of it, which are its own points
bit for bit. The coarsest grid runs the search from the default bracket;
that cold search takes about as many shots on any grid, so it runs where
shots are cheapest. Each finer grid starts from the energy ``E_4h`` of the
grid below it, with one shot at ``E_4h``, matched at the turning point of
the bracket's top, in the presumed bracket from ``E_4h - pad`` to
``min(E_4h + pad, E_4h/2)``, ``pad = max(WARM_BRACKET_REL |E_4h|,
bisection_tol)``. The top's ``E_4h/2`` binds only on levels shallower than
``2 pad``, in practice ``2 bisection_tol``: it keeps the bracket below
zero, where ``f`` leaves Numerov's range on a box sized for so shallow a
level. The rest takes two shots when ``E_4h`` lies within
about the tolerance of ``E_h`` and three when a first Newton step must close
the distance; a bracket that misses is widened like any other. A grid passes
its energy up when its search stopped with the bracket at ``bisection_tol``
or at the resolution floor, its defect within ``DEFECT_TOL`` and the node
count of its joined sweeps on target; the sweeps are not normalized, which
changes no sign, and that count is the result's on the finished grid.
Otherwise, or when its search raises a :class:`SolverError`, the next finer
grid starts cold, from the default bracket and with no estimate; on the
finished grid the error is raised. When a grid cannot bracket the level,
each finer grid makes one gated shot at the top every grid widens to in
place of its search: the first that finds the level below that top starts
cold, and when none does the :class:`BracketingError` is raised.

A potential that overflows or divides by zero on a grid is a
:class:`NonFinitePotentialError` naming the first such point, with no
numpy warning. The grid finished on and the one below it give the
Richardson estimate ``EigenResult.energy_error_ry = (E_h - E_4h)/255`` of
``E_exact - E_h`` for an O(h^4) method. It covers the step error only: the
search tolerance and the box's ends are not in it. The sweep's roundoff
stays below it on any grid: the summed form keeps every bit of ``h^2 g``
(see :func:`_sweep`), so a finer grid is a better one.

Sweeps are seeded with a short Frobenius expansion of the regular solution
(:func:`small_rho_solution`), scaled so that the outward sweep starts from
``phi = 1``: its second value is ``e^((s - 1/2) h)`` times the series'
ratio, which neither underflows nor overflows at any ``ell``. The inward
sweep starts from ``INWARD_SEED`` at ``rho_max`` and grows by the growing
root of the recurrence for a constant ``f``, the decay of a state past its
turning point.

Each sweep steps Numerov's recurrence in its summed form (J. M. Blatt,
J. Comput. Phys. 1 (1967) 382): it carries ``w = f phi`` and its first
difference, each row adding ``c w``, ``c = h^2 g/f``, to the difference,
so that no ``h^2 g`` is added to 1. The textbook form ``f_{k+1} phi_{k+1} =
(12 - 10 f_k) phi_k - f_{k-1} phi_{k-1}`` rounds away the low bits of
``h^2 g`` in ``f``: against a long-double loop it lost 2.3e-10 of the pe
``chern_simons`` ground level's peak on 4,001 points and 1.1e-7 on 64,001,
the summed form 6e-15 on both. The two unknowns of each row, interleaved,
form a lower-triangular band system with a unit diagonal, which LAPACK
(``dtbtrs``) solves by forward substitution, multiplies and adds only. It
is solved in blocks of ``_BLOCK`` unknowns, one call each, whose band rows
are built from ``c`` into a small buffer just before the call, so that they
and the block's unknowns are still in cache. Every block starts with two
identity rows carrying the last two values solved, so each row is computed
with the same operations as in one solve of the whole segment, bit for
bit. A bound on the per-step growth cuts the sweep into
segments only where it could overflow, and values are rescaled between
segments, so deep classically forbidden regions and the ``rho^(l + 1/2)``
growth of a high ``ell`` are safe. A segment that still overflows raises
:class:`SweepOverflowError`; so does, before solving, a seed that is itself
not finite. A grid past Numerov's stability limit (``f = 1 + h^2 g / 12``
outside ``(0, 1.5)`` on a swept row, which happens first on the outermost
rows, where the grid is coarsest in ``rho``) raises
:class:`GridTooCoarseError`.

A solve allocates nothing the size of its grid per shot or per sweep. A
shot sweeps outward straight into the buffer its caller names and sweeps
inward into the workspace's own, then joins the two in the first at the
match index. That buffer, the inward sweep, ``c`` and the other of the two
joined buffers the search keeps are allocated with the grid's workspace
(``_ShootingWorkspace``): four grid-sized buffers and the band rows and
unknowns of a sweep block. Every grid of the cascade has a workspace of its
own, and so has every solve, so no two searches share a buffer. Only the
finished grid's joined sweeps are turned into ``u`` and normalized, into
the one array a solve keeps after it returns. The node count works on the
samples' sign bits, an eighth of their size.
"""

from __future__ import annotations

import math
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

# Points of a default grid whose box EDGE_STEP does not widen. On x = ln rho a
# level's step error on 4,001 points is about 1e-12 of its energy (255 energy_error_ry
# of the cascade, default grids of four kinds, ell 0-3, nodes 0-3), and 4,001 points
# quarter once, to 1,001.
DEFAULT_POINTS = 4001

# Largest step in rho, in decay lengths 1/kappa_lo of the default bracket's bottom
# E_lo = -kappa_lo^2, at the box's edge of a default grid's quarter. Below it, every
# trial energy of that bracket keeps f = 1 + h^2 g/12 within [2/3, 4/3] on the edge's
# rows, Numerov's stable range with room; a wider box takes more points than
# DEFAULT_POINTS. 4,001 points keep it on every Coulomb box of the property range
# and on the nodeless K0 ones.
EDGE_STEP = 2.0

# A default grid starts this many decay lengths 1/kappa from the origin, kappa =
# sqrt(-E) of the closed form or of estimate_cs_ground_energy. The norm below it
# is of order (kappa rho_min)^(2s + 1): measured at most 2e-10 of the state's
# (2D ell 0), and the mean radius moves by as much.
RHO_MIN_KAPPA = 1e-5

# Farthest from the origin, in decay lengths of the ground level, that a named
# rho_min may start a grid: past it the seed's truncated series moves the level. At
# 1e-2 the levels measured moved by at most 5.6e-10 Ry (pmu coulomb2d ground, 743 Ry),
# at 3e-2 pe chern_simons lambda 2e-5 ground by 1.4e-8 Ry.
MAX_RHO_MIN_KAPPA = 1e-2

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

# Half-width of a warm-start bracket, relative to the energy of the grid below.
# Where |E_4h - E_h| exceeds 1e-8 Ry, |E_4h - E_h|/|E| measured at most 8.5e-8
# from a default grid's quarter to the grid (four kinds, ell 0-3, nodes 0-3).
WARM_BRACKET_REL = 3e-6

# Narrowest bracket the search shoots into, in units in the last place of its
# energy. Closer energies give sweeps that differ at most in the rounding of a
# few f = 1 + h^2 g / 12: on a 20,001-point z1 coulomb3d grid seven shots about
# 60 ulps apart gave the same defect to the last bit. 1e-12 Ry stays in reach
# of levels above -64 Ry.
RESOLUTION_ULPS = 128

# Points each sweep runs past the match index into the other's range. The
# 5-point stencil at the match index needs 2; the value also sets how close
# to either end of the grid the match index is clamped.
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


class GridTooCoarseError(SolverError):
    """The grid cannot resolve the state: a swept row has ``f = 1 + h^2 g / 12``
    outside ``(0, 1.5)``, Numerov's stable range, or a named ``rho_min``
    starts it past ``MAX_RHO_MIN_KAPPA`` decay lengths from the origin."""


class SweepOverflowError(SolverError):
    """A sweep's values overflow a double: its seeds leave too little headroom."""


class NonFinitePotentialError(SolverError):
    """The effective potential overflows or is undefined somewhere on the grid."""


class NormalizationError(SolverError):
    """The samples have a zero or non-finite norm."""


@dataclass(frozen=True)
class RadialGrid:
    """Mesh uniform in ``x = ln rho`` from ``rho_min`` to ``rho_max``, the
    dimensionless radial coordinate; ``step`` is its step in ``x``."""

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
        return (math.log(self.rho_max) - math.log(self.rho_min)) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        """The ``rho`` of each point: ``np.linspace`` puts point ``4k`` of a grid
        on point ``k`` of its quarter, bit for bit, and so does ``exp``."""
        x = np.linspace(math.log(self.rho_min), math.log(self.rho_max), self.n_points)
        return np.exp(x, out=x)


@dataclass(frozen=True)
class EigenResult:
    """Converged (or flagged) eigenvalue with search diagnostics.

    ``grid`` is the grid the state finished on: the one the caller named,
    or :func:`default_grid`'s. ``iterations`` counts the shots of the search
    on ``grid``, bracket ends and widenings included; ``sweeps`` every
    Numerov sweep of the solve and ``points_swept`` the grid points they
    cover, both counting every grid of the cascade that swept. ``match_index`` is the grid index
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
    """Reduced radial function ``u`` at the grid's points, normalized to
    ``int u^2 drho = 1``; its eigenvalue is the :class:`EigenResult`'s."""

    grid: RadialGrid
    u: np.ndarray


def indicial_exponent(problem: EffectivePotentialParams) -> float:
    """Regular-solution power at the origin: l+1 in 3D, l+1/2 in 2D."""
    if problem.dimension == 3:
        return problem.ell + 1.0
    return problem.ell + 0.5


def small_rho_solution(
    problem: EffectivePotentialParams, energy_ry: float, rho: np.ndarray
) -> np.ndarray:
    """Frobenius series of the regular solution near the origin over its power
    law: ``u = rho^s small_rho_solution(rho)``, ``s`` the indicial exponent.

    For Coulomb kinds the series is a plain power series in rho; for the K0
    kinds the potential contributes a ``rho^2 (p + q ln rho)`` correction
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
        return 1.0 + rho * rho * (p + q * np.log(rho))
    c = problem.coulomb_coefficient
    poly = np.ones_like(rho)
    power = np.ones_like(rho)
    a_km1, a_km2 = 1.0, 0.0
    for k in range(1, SEED_SERIES_TERMS + 1):
        a_k = -(c * a_km1 + energy_ry * a_km2) / (k * (2.0 * s + k - 1.0))
        power = power * rho
        poly = poly + a_k * power
        a_km2, a_km1 = a_km1, a_k
    return poly


# Growth in nats that one banded solve may span before its values are checked
# against RESCALE_THRESHOLD (about e^230), well inside the e^709 range of a double.
_SEGMENT_GROWTH = 300.0


# Unknowns of one LAPACK call of _sweep, two to a grid row: its band rows (two of 8,192
# doubles) and unknowns stay in a core's L2 cache between their writing and the solve.
_BLOCK = 8192


def _sweep(c, u0, u1, rho, out, band, t) -> np.ndarray:
    """Numerov recurrence in its summed form as a lower-triangular banded solve.

    ``c = q/f`` in sweep order, ``q = h^2 g`` and ``f = 1 + q/12``, row ``k``
    at the point ``rho[k]`` (``rho`` runs inward for an inward sweep); the
    seeds ``u0`` and ``u1`` are ``phi`` at the first two rows. The
    recurrence ``w_{k+1} - 2 w_k + w_{k-1} = -c_k w_k`` for ``w = f phi`` is
    stepped in the summed form (J. M. Blatt, J. Comput. Phys. 1 (1967) 382):
    the first difference ``d_k = w_{k+1} - w_k`` is carried, ``d_k = d_{k-1}
    - c_k w_k`` and ``w_{k+1} = w_k + d_k``, so that ``q`` is never added to
    ``1`` or ``2``, whose ulp would round away its low bits on a fine grid.
    The unknowns ``d_1, w_2, d_2, w_3, ...`` interleaved form a system with
    two subdiagonals and a unit diagonal, which LAPACK's ``dtbtrs`` solves by
    forward substitution: multiplies and adds only. scipy's wrapper holds
    the GIL through the call, so the sweeps of concurrent solves take turns.
    ``phi_k = w_k (1 - c_k/12)``.

    The recurrence is stable only for ``0 < f < 1.5``, that is ``c < 4``:
    past 1.5 (``q > 6``, under 2.6 points per wavelength) a spurious mode
    grows with alternating sign, and a row past the seeds' outside that
    range raises :class:`GridTooCoarseError`, naming its ``rho``. Inside it, one step
    grows the solution by about ``arccosh(1 - c/2) <= sqrt(-c)`` nats (the
    rate of the growing mode for constant ``c``, none for ``c >= 0``); the
    sweep is cut where that bound adds up to 300 nats (``_SEGMENT_GROWTH``),
    and a segment whose peak passes ``RESCALE_THRESHOLD`` rescales all
    values before it, so deep classically forbidden regions never overflow.
    A segment that still overflows, from seeds too large for its growth,
    raises :class:`SweepOverflowError`, as does, before any solve, a seed
    that is not finite.

    Each segment is solved in blocks of ``_BLOCK // 2`` rows, one
    ``dtbtrs`` call each, on ``t`` (``min(_BLOCK + 2, 2 len(c))`` doubles or
    more) with band rows built into ``band`` (F-ordered, 3 rows as wide). Every
    block starts with two identity rows carrying the last ``d`` and ``w``
    solved, the seeds' for the first, so the substitution computes each row
    with the same operations, in the same order, as one solve of the whole
    segment. ``phi`` goes to ``out[:len(c)]``, a view of which is returned.
    """
    n = c.shape[0]
    phi = out[:n]
    # the rows after the seeds'; NaN fails too
    if not c[2:].max() < 4.0:
        k = 2 + int(np.argmin(c[2:] < 4.0))
        with np.errstate(divide="ignore"):  # c is 12 where q overflows: f is inf
            f = 12.0 / (12.0 - c[k])
        raise GridTooCoarseError(
            f"grid too coarse for Numerov at rho={rho[k]:.6g}: f = 1 + h^2 g/12 = "
            f"{f:.3g} must be finite and in (0, 1.5) for a stable "
            "recurrence; use more points or a smaller rho_max"
        )

    def overflow(k, why):
        return SweepOverflowError(
            f"sweep overflows a double by rho={rho[k]:.6g}: it starts from {u0:.3g} "
            f"and {u1:.3g} at rho={rho[0]:.6g}, {why}"
        )

    if not (abs(u0) < math.inf and abs(u1) < math.inf):  # inf or NaN
        raise overflow(1, "which are not finite")
    phi[0], phi[1] = u0, u1
    # d_0 and w_1, w = phi/(1 - c/12)
    w0, w1 = u0 / (1.0 - c[0] / 12.0), u1 / (1.0 - c[1] / 12.0)
    t[0], t[1] = w1 - w0, w1
    stops = [n - 2]
    worst = c[1:-1].min()
    # fast path: the worst row's bound on every row stays under one segment; it spares
    # the growth sum on most of the rows swept in the benchmark workloads
    if (n - 2) * math.sqrt(max(-worst, 0.0)) > _SEGMENT_GROWTH:
        # the running growth bound, summed in the rows the solve overwrites later
        growth = phi[2:]
        np.negative(c[1:-1], out=growth)
        np.maximum(growth, 0.0, out=growth)
        np.sqrt(growth, out=growth)
        np.cumsum(growth, out=growth)
        cuts = np.arange(_SEGMENT_GROWTH, growth[-1], _SEGMENT_GROWTH)
        stops = np.searchsorted(growth, cuts).tolist() + stops
    # column j of a block holds its unknown x_j: a d for even j, a w for odd j. Row
    # j + 1 reads x_{j+1} - x_{j-1} + c x_j = 0 for odd j (d_k = d_{k-1} - c_k w_k) and
    # x_{j+1} - x_{j-1} - x_j = 0 for even j (w_{k+1} = w_k + d_k); the diagonal is one
    # (never stored, diag="U"), and the two carried rows are identity rows. A block's
    # last column's off-diagonals fall outside it.
    width = min(_BLOCK + 2, 2 * n)
    band[2, :width] = -1.0
    band[1, 2:width:2] = -1.0
    band[1, 0] = 0.0
    start = 0
    for stop in stops:
        if stop <= start:
            continue
        first = start
        while first < stop:
            rows = min(_BLOCK // 2, stop - first)
            tb = t[: 2 * rows + 2]
            tb[2:] = 0.0
            ab = band[:, : 2 * rows + 2]
            ab[1, 1::2] = c[first + 1 : first + rows + 2]
            # f2py solves in place; the slice assignment copies back only if it did not
            tb[:], info = dtbtrs(ab, tb, uplo="L", diag="U", overwrite_b=1)
            if info != 0:
                raise SolverError(f"LAPACK dtbtrs failed with info={info}")
            # phi_k = w_k (1 - c_k/12) for the block's rows, the factor in the unused diagonal
            scale = band[0, :rows]
            np.multiply(c[first + 2 : first + rows + 2], -1.0 / 12.0, out=scale)
            scale += 1.0
            np.multiply(tb[3::2], scale, out=phi[first + 2 : first + rows + 2])
            t[0], t[1] = tb[-2], tb[-1]
            first += rows
        peak = max(phi[start + 2 : stop + 2].max(), -phi[start + 2 : stop + 2].min())
        if not peak < math.inf:  # inf or NaN
            raise overflow(stop + 1, "too large for the growth that follows")
        if peak > RESCALE_THRESHOLD:
            phi[: stop + 2] /= peak
            t[:2] /= peak
        start = stop
    return phi


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


def _outer_turning_point(u_eff: np.ndarray, energy: float, h: float) -> int:
    """Index of the outermost classical turning point at ``energy``, the last
    ``i`` with ``u_eff[i] < energy <= u_eff[i + 1]``; with none, that of
    ``rho_max/2`` on a grid of step ``h`` in ``ln rho``."""
    crossings = np.flatnonzero((u_eff[:-1] < energy) & (u_eff[1:] >= energy))
    return int(crossings[-1]) if crossings.size else u_eff.shape[0] - 1 - round(math.log(2.0) / h)


class _Shot(NamedTuple):
    """One shooting trial: its energy, match index, node count up to the
    match index, the defect's slope ``dD/dE`` and defect (both None when
    gated off target or pinned on a node), and whether it lies below the
    level: by the node count when it is off target, else by the defect's
    sign, positive below; a shot on target with no defect, pinned on a node
    at the match index, lies above. See :meth:`_ShootingWorkspace.shoot`."""

    energy: float
    m: int
    nodes: int
    slope: float | None
    defect: float | None
    below: bool


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

    It allocates every grid-sized buffer of a shot and of the search, before
    the grid's points: the inward sweep, ``c``, and ``joined`` and
    ``spare``, the joined sweeps that :func:`_search` keeps, into one of
    which each shot sweeps outward, ``n_points`` doubles each; then a sweep
    block's band rows and unknowns, ``min(_BLOCK + 2, 2 n_points)`` wide. A
    shot allocates nothing the size of the grid. Buffers that cannot be
    allocated are a :class:`SolverError` naming their size. ``u_eff`` is
    the potential at the grid's points, evaluated here unless given.
    """

    def __init__(self, problem, grid, node_target=0, u_eff=None):
        n = grid.n_points
        width = min(_BLOCK + 2, 2 * n)
        try:
            self._right, self._c, self.joined, self.spare = np.empty((4, n))
            self._band, self._t = np.empty((3, width), order="F"), np.empty(width)
        except (MemoryError, ValueError):  # ValueError: too big for numpy to address
            raise SolverError(
                f"cannot allocate {8e-6 * (4 * n + 4 * width):.6g} MB for {n} points"
            ) from None
        self.problem = problem
        self.grid = grid
        self.node_target = node_target
        self.h = grid.step
        self.rho = grid.points()
        self.u_eff = _potential(problem, self.rho) if u_eff is None else u_eff
        self.h2 = self.h * self.h
        # phi_1/phi_0 of the regular solution's power law rho^(s - 1/2)
        try:
            self._power_ratio = math.exp((indicial_exponent(problem) - 0.5) * self.h)
        except OverflowError:  # past a double's range: a seed that _sweep rejects
            self._power_ratio = math.inf
        self.sweeps = 0
        self.points_swept = 0

    def quartered(self) -> _ShootingWorkspace | None:
        """Workspace on every fourth point of this grid, the next coarser grid of
        the cascade; None when ``n_points - 1`` is not a multiple of 4 or the
        quarter would have fewer than ``MIN_POINTS``: there the cascade ends.

        Its grid's step is four times this one's, exactly: a power of two
        scales the division. So its point ``k`` is this grid's point ``4k``,
        bit for bit, and it views every fourth point of this workspace's
        potential. Its buffers are its own.
        """
        n = self.grid.n_points
        if (n - 1) % 4 or (n - 1) // 4 + 1 < MIN_POINTS:
            return None
        grid = RadialGrid(self.grid.rho_min, self.grid.rho_max, (n - 1) // 4 + 1)
        return _ShootingWorkspace(self.problem, grid, self.node_target, self.u_eff[::4])

    def _c_of(self, energy, rows) -> np.ndarray:
        """``c = q/(1 + q/12)``, ``q = h^2 (rho^2 (energy - u_eff) - 1/4)``, on
        the grid's ``rows`` (a slice, in sweep order) in the workspace's buffer,
        as ``1/(1/q + 1/12)``: no ``q`` is added to 1."""
        u_eff, rho = self.u_eff[rows], self.rho[rows]
        c = self._c[: u_eff.shape[0]]
        # a c that overflows is _sweep's to report; q = 0 gives 1/q infinite and c = 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.subtract(energy, u_eff, out=c)
            c *= rho
            c *= rho
            c -= 0.25
            c *= self.h2
            np.reciprocal(c, out=c)
            c += 1.0 / 12.0
            np.reciprocal(c, out=c)
        return c

    def shoot(self, energy, match_index=None, gated=False, *, out) -> _Shot:
        """One shooting trial: sweep ``phi`` outward into ``out``, sweep inward,
        and join the two in ``out`` at the match index.

        The match index ``m`` is ``match_index`` if given, else the
        outermost classical turning point, clamped away from the ends.
        ``nodes`` is counted on the outward sweep up to and including ``m``,
        so a node that has just crossed ``m``, where the defect has its
        pole, counts. With
        ``gated`` the inward sweep is skipped (``defect`` None, ``out``
        holding the outward sweep alone) when ``nodes`` differs from
        ``node_target``. A trial that sweeps inward leaves both sweeps in
        ``out``, joined at ``m`` and unnormalized; the inward one is swept
        into the workspace's buffer, which the next trial overwrites.

        The defect is the two sweeps' mismatch of ``d ln u/d rho`` at ``m``,
        each from a 5-point stencil in ``x``, over the larger of 1 and the two
        log-derivatives' magnitudes. It is None, and so is its slope, when
        the outward sweep has a node pinned at ``m`` (``|phi(m)|`` at most
        1e-9 of its peak from 16 points before ``m`` to 2 after it) or the
        inward one is 0 there. A pinned node makes the energy an eigenvalue
        of the left problem on ``[rho_min, rho_m]`` with ``phi(rho_m) = 0``;
        Dirichlet eigenvalues rise as the interval shrinks, so that energy
        lies above the level with the same node count, and the shot counts as
        above. A trial with a defect carries its slope, ``dD/dE = -int u^2
        drho / u(m)^2 = -int rho^2 phi^2 dx / (rho_m phi(m)^2)`` over the same
        scale: the Wronskian identity for two sweeps joined with ``phi``
        continuous (J. W. Cooley, Math. Comp. 15 (1961) 363).
        """
        n, h = self.grid.n_points, self.h
        m = _outer_turning_point(self.u_eff, energy, h) if match_index is None else int(match_index)
        m = min(max(m, _STENCIL_PAD + 2), n - _STENCIL_PAD - 3)
        c = self._c_of(energy, slice(m + _STENCIL_PAD + 1))
        # phi from 1 at rho_min; a series that overflows is _sweep's to report
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            series = small_rho_solution(self.problem, energy, self.rho[:2])
            seed = self._power_ratio * float(series[1] / series[0])
        phi_left = _sweep(c, 1.0, seed, self.rho, out, self._band, self._t)
        self.sweeps += 1
        self.points_swept += c.shape[0]
        nodes = count_nodes(phi_left[: m + 2])
        if gated and nodes != self.node_target:
            return _Shot(energy, m, nodes, None, None, nodes < self.node_target)
        # the inward sweep's c in sweep order, from the outer edge in
        c = self._c_of(energy, slice(None, m - _STENCIL_PAD - 1, -1))
        # from rho_max in by the growing root of the recurrence for a constant c[0]
        # below 0: a state's decay per step past its turning point
        c0 = float(c[0])
        y = 1.0 - 0.5 * c0 if c0 < 0.0 else 1.0
        seed = INWARD_SEED * (y + math.sqrt(y * y - 1.0))
        phi_right = _sweep(c, INWARD_SEED, seed, self.rho[::-1], self._right, self._band,
                           self._t)[::-1]
        self.sweeps += 1
        self.points_swept += c.shape[0]
        ul, ur = phi_left[m], phi_right[_STENCIL_PAD]
        defect = slope = None
        # measured before the join: the stencil reads phi_left[m + 1] and phi_left[m + 2]
        if abs(ul) > 1e-9 * np.max(np.abs(phi_left[max(0, m - 16) : m + 3])) and ur != 0.0:
            # d ln u/d rho = (d ln phi/dx + 1/2)/rho
            dl = (_derivative_5pt(phi_left, m, h) / ul + 0.5) / self.rho[m]
            dr = (_derivative_5pt(phi_right, _STENCIL_PAD, h) / ur + 0.5) / self.rho[m]
            # normalize by the log-derivative scale so the tolerance is
            # meaningful for shallow and deep wells alike
            scale = max(1.0, abs(dl), abs(dr))
            defect = (dl - dr) / scale
        # the outward sweep stays in out[: m + 1]; the inward one, scaled, follows it
        np.multiply(phi_right[_STENCIL_PAD + 1 :], ul / ur if ur != 0.0 else 1.0, out=out[m + 1 :])
        if defect is not None:
            # einsum, not np.dot: a BLAS dot wakes OpenBLAS's thread pool, which
            # slows the library's concurrent callers, such as two client threads
            # solving at once
            rho = self.rho
            slope = -h * np.einsum("i,i,i,i->", rho, rho, out, out) / (ul * ul * rho[m] * scale)
        on_target = nodes == self.node_target
        below = defect > 0.0 if on_target and defect is not None else nodes < self.node_target
        return _Shot(energy, m, nodes, slope, defect, below)


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
    kinds size it from a self-consistent depth estimate. Every grid starts
    ``RHO_MIN_KAPPA/kappa`` from the origin. It has ``DEFAULT_POINTS``
    points, or more when the default box is so wide that its quarter, the
    coarse grid of the cascade, would step more than ``EDGE_STEP`` decay
    lengths of the default bracket's bottom at the box's edge; a named
    ``rho_max`` keeps ``DEFAULT_POINTS``. A ``rho_min`` past
    ``MAX_RHO_MIN_KAPPA`` decay lengths of the ground level is a
    :class:`GridTooCoarseError`: the seed's series is truncated there.
    """
    if node_target < 0:
        raise ValueError("node_target must be non-negative")
    zeta = problem.atom.zeta
    e_ground = closed_form_energy(problem, 0)
    if problem.potential.kind in CHERN_SIMONS_KINDS:
        kappa = kappa_ground = kappa_lo = math.sqrt(-estimate_cs_ground_energy(problem))
        box = max(60.0, 40.0 / kappa) * (1.0 + node_target)
    else:
        e_est = closed_form_energy(problem, node_target)
        kappa, kappa_ground = math.sqrt(-e_est), math.sqrt(-e_ground)
        kappa_lo = math.sqrt(-1.5 * e_est)
        # the level's outer turning point, the larger root of e_est = U_eff(rho)
        c = problem.centrifugal_coefficient
        turning = (math.sqrt(zeta) + math.sqrt(zeta + e_est * c)) / -e_est
        box = max(30.0 / kappa, 40.0 / math.sqrt(zeta), turning + 15.0 / kappa)
    grid = RadialGrid(
        rho_min=RHO_MIN_KAPPA / kappa if rho_min is None else rho_min,
        rho_max=box if rho_max is None else rho_max,
        n_points=DEFAULT_POINTS if n_points is None else n_points,
    )
    if kappa_ground * grid.rho_min > MAX_RHO_MIN_KAPPA:
        raise GridTooCoarseError(
            f"grid starts past the state: rho_min={grid.rho_min:.6g} is "
            f"{kappa_ground * grid.rho_min:.3g} decay lengths from the origin, above "
            f"{MAX_RHO_MIN_KAPPA:g}; use rho_min <= {MAX_RHO_MIN_KAPPA / kappa_ground:.6g}"
        )
    if n_points is None and rho_max is None:
        # the quarter's step at the box's edge, h_q rho_max, within EDGE_STEP/kappa_lo
        steps = math.ceil(math.log(box / grid.rho_min) * kappa_lo * box / EDGE_STEP)
        grid = RadialGrid(grid.rho_min, box, max(DEFAULT_POINTS, 4 * steps + 1))
    return grid


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


def simpson_u2(u: np.ndarray, h: float, weight: np.ndarray) -> float:
    """Composite-Simpson ``int weight u^2 dx`` over samples ``h`` apart; at
    least three of them. On a :class:`RadialGrid` ``int u^2 drho`` is ``int
    rho u^2 dx``.

    An even number of samples takes scipy's end correction for the last
    interval (``scipy.integrate.simpson``, Cartwright's formula). The sums
    run over strided views with ``einsum``, so nothing the size of ``u`` is
    allocated.
    """

    def total(part):
        return np.einsum("i,i,i->", weight[part], u[part], u[part])

    def y(k):
        return float(weight[k]) * float(u[k]) * float(u[k])

    n = u.shape[0]
    last = n - 1 if n % 2 else n - 2  # the end of the odd-length Simpson part
    odd, even = total(slice(1, last, 2)), total(slice(2, last, 2))
    out = h / 3.0 * (y(0) + 4.0 * odd + 2.0 * even + y(last))
    if n % 2 == 0:
        out += h * (5.0 / 12.0 * y(-1) + 2.0 / 3.0 * y(-2) - 1.0 / 12.0 * y(-3))
    return float(out)


def _normalize_samples(phi: np.ndarray, h: float, rho: np.ndarray) -> np.ndarray:
    """``u = sqrt(rho) phi`` at the points ``rho``, ``h`` apart in ``ln rho``,
    scaled to ``int u^2 drho = 1``, its first lobe (the first sample past 1%
    of the peak) positive, in a new array."""
    u = np.sqrt(rho)
    u *= phi
    norm_sq = simpson_u2(u, h, rho)
    if norm_sq <= 0.0 or not np.isfinite(norm_sq):
        raise NormalizationError("cannot normalize a zero or non-finite wavefunction")
    u /= math.sqrt(norm_sq)
    cut = 0.01 * max(u.max(), -u.min())
    # argmax finds the first True, or returns 0 when there is none
    up, down = np.argmax(u > cut), np.argmax(u < -cut)
    if u[down] < -cut and (down < up or u[up] <= cut):
        np.negative(u, out=u)
    return u


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
    normalized matched wavefunction, both on ``grid`` or, with None, on
    :func:`default_grid`'s. The result's node count and ``converged`` are
    that grid's, and its ``sweeps`` and ``points_swept`` sum every level's.
    The module docstring describes the warm brackets and the search, whose
    final bracket is ``bisection_tol`` Ry wide. Raises
    :class:`BracketingError` when no sign change is found after
    ``MAX_WIDENINGS`` widenings, and :class:`SolverError` when the buffers
    of the grid's workspace cannot be allocated; an exhausted step budget
    returns a result flagged ``converged=False`` instead.
    """
    check_arguments(node_target, bisection_tol)
    tol = bisection_tol
    if grid is None:
        grid = default_grid(problem, node_target)
    bracket = default_bracket(problem, node_target, tol)
    levels = [_ShootingWorkspace(problem, grid, node_target)]
    while (coarse := levels[-1].quartered()) is not None:
        levels.append(coarse)
    # the energy a level passes up, and the error of the last level that missed the state
    e_coarse, missed = None, None
    for depth, ws in reversed(list(enumerate(levels))):
        start, e_coarse, warm = e_coarse, None, bracket
        try:
            # every level widens to the same top: one shot there shows the level above it
            if missed and ws.shoot(missed.bracket[1], gated=True, out=ws.spare).below:
                raise missed
            missed = None
            if start is not None:
                pad = max(WARM_BRACKET_REL * abs(start), tol)
                warm = (start - pad, min(start + pad, 0.5 * start))
            found = _search(ws, warm, tol, start)
        except SolverError as err:
            if depth == 0:
                raise
            # a level that missed the state passes its error on; any other starts the next cold
            missed = err if isinstance(err, BracketingError) else None
            continue
        # counted on the unnormalized sweeps: scaling them changes no sign
        nodes = count_nodes(found.u)
        passes = found.done and nodes == node_target
        e_coarse = found.shot.energy if passes else None
    u = _normalize_samples(found.u, ws.h, ws.rho)
    final = found.shot
    result = EigenResult(
        energy=final.energy,
        nodes=nodes,
        converged=bool(passes and found.width <= tol),
        match_defect=final.defect if final.defect is not None else math.inf,
        bracket_width=found.width,
        iterations=found.iterations,
        sweeps=sum(level.sweeps for level in levels),
        points_swept=sum(level.points_swept for level in levels),
        match_index=final.m,
        grid=grid,
        energy_error_ry=None if start is None else (final.energy - start) / 255.0,
    )
    return result, WaveFunction(grid=grid, u=u)


class _Found(NamedTuple):
    """Where a search stopped: the end it returns, that end's joined
    unnormalized sweeps (one of the workspace's two joined buffers), the final
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
    m = None if e_coarse is None else _outer_turning_point(ws.u_eff, hi, ws.h)
    energy = lo if e_coarse is None else e_coarse
    step = step_old = hi - lo  # lengths of the last two steps, as in rtsafe
    widenings = iterations = 0
    # joined sweeps of `kept`, the end with the smaller defect, and of the latest trial
    u, spare = ws.joined, ws.spare
    while True:
        shot = ws.shoot(energy, m, gated=True, out=spare)
        iterations += 1
        level_above = shot.below
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
