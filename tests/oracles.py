"""Independent reference routes used to pin expected values.

K0 comes from its integral representation by adaptive quadrature, the
Coulomb spectra from their closed forms, and the Numerov recurrence from a
plain loop in the program's summed form (:func:`sweep_loop`, and
:func:`numerov_loop_longdouble` in extended precision). :func:`sweep_one_solve_per_segment` and
:func:`bessel_k0_unblocked` are the program's sweep and K0 before they were
split into blocks, each over the whole array at once; the blocked forms
must equal them bit for bit. :func:`count_nodes_one_pass` is the node count
on the samples' signs as floats, which the count on sign bits must equal.
:func:`normalize_samples_scipy` is the program's normalization before it
summed Simpson's rule in place: ``scipy.integrate.simpson`` and the sign
of the first sample past 1% of the peak, found through an index array.
:func:`fd_lowest_energies` diagonalizes a finite-difference
Hamiltonian, a route apart from the shooting search; it takes the
program's ``effective_potential`` and its seed ratio at the origin, so it
checks the search and the sweeps, not the potential.
:func:`chebyshev_levels` solves the same Langer form by Chebyshev
collocation with ``scipy.special.k0``: it shares no discretisation, seed
or special-function code with the program.
"""

import math
import warnings

import numpy as np
from scipy import special
from scipy.integrate import IntegrationWarning, quad, simpson
from scipy.linalg import eigh_tridiagonal, eigvals
from scipy.linalg.lapack import dtbtrs

from planaratom import specfun
from planaratom.model import effective_potential
from planaratom.numerov import (
    _SEGMENT_GROWTH,
    RESCALE_THRESHOLD,
    indicial_exponent,
    small_rho_solution,
)


def _quad_scaled(x: float) -> float:
    upper = math.acosh(1.0 + 745.0 / x) if x > 1e-4 else 40.0
    with warnings.catch_warnings():
        # epsabs is deliberately at the roundoff floor; epsrel governs
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            lambda t: math.exp(-x * (math.cosh(t) - 1.0)),
            0.0,
            upper,
            epsabs=1e-15,
            epsrel=1e-14,
            limit=500,
        )
    return val


def k0_quadrature(x: float) -> float:
    """K0(x) = int_0^inf exp(-x cosh t) dt, evaluated as a scaled integral.

    The integrand is rewritten as exp(-x (cosh t - 1)) * exp(-x) so the
    quadrature works on an O(1) function even for large x.
    """
    return _quad_scaled(x) * math.exp(-x)


def k0_scaled_quadrature(x: float) -> float:
    """exp(x) * K0(x) by the same route, safe beyond the underflow range."""
    return _quad_scaled(x)


def coulomb3d_energy(zeta: float, nodes: int, ell: int = 0) -> float:
    """Exact 3D spectrum in rydberg: -zeta / n^2."""
    n = nodes + ell + 1
    return -zeta / n**2


def coulomb2d_energy(zeta: float, nodes: int, ell: int = 0) -> float:
    """Exact 2D spectrum in rydberg: -4 zeta / (2n - 1)^2."""
    n = nodes + ell + 1
    return -4.0 * zeta / (2 * n - 1) ** 2


def hydrogen_ground_u(rho: np.ndarray, sqrt_zeta: float) -> np.ndarray:
    """Unnormalized exact 3D ground-state reduced function rho e^(-sqrt(zeta) rho)."""
    return rho * np.exp(-sqrt_zeta * rho)


def hydrogen_first_excited_u(rho: np.ndarray) -> np.ndarray:
    """Unnormalized exact 3D first-excited reduced function (zeta = 1)."""
    return rho * (1.0 - rho / 2.0) * np.exp(-rho / 2.0)


def k0_series_full(x: np.ndarray) -> np.ndarray:
    """K0's ascending series summed to all 20 terms over the whole array.

    The plain form of ``specfun._k0_series_array``, out of place and with no
    early stop; the two must agree bitwise for 0 < x <= 2.
    """
    q = 0.25 * x * x
    i0 = np.ones_like(x)
    acc = np.zeros_like(x)
    term = np.ones_like(x)
    harmonic = 0.0
    for k in range(1, 21):
        term = term * q / (k * k)
        harmonic += 1.0 / k
        i0 += term
        acc += term * harmonic
    return -(np.log(0.5 * x) + 0.5772156649015329) * i0 + acc


def numerov_loop_longdouble(q: np.ndarray, u0: float, u1: float) -> np.ndarray:
    """The summed Numerov recurrence of :func:`sweep_loop`, with ``c = q/(1 + q/12)``
    formed from ``q = h^2 g``, stepped one row at a time in ``np.longdouble``,
    without rescaling.

    Rounding in extended precision (64-bit mantissa on x86) sits three
    orders of magnitude below a double sweep's, so the gap between the two
    is the double sweep's own rounding error. Not the textbook form
    ``f_{k+1} u_{k+1} = (12 - 10 f_k) u_k - f_{k-1} u_{k-1}``: in long double
    that one still lost 1.6e-12 of the peak on 64,001 points, where ``1 +
    q/12`` rounds away the low bits of ``q``.
    """
    ql = np.asarray(q, dtype=np.longdouble)
    c = ql / (1 + ql / 12)
    u = np.empty(c.shape[0], dtype=np.longdouble)
    u[0], u[1] = u0, u1
    w_prev, w = u0 / (1 - c[0] / 12), u1 / (1 - c[1] / 12)
    d = w - w_prev
    for k in range(1, c.shape[0] - 1):
        d = d - c[k] * w
        w = w + d
        u[k + 1] = w * (1 - c[k + 1] / 12)
    return u


def sweep_loop(c: np.ndarray, u0: float, u1: float) -> np.ndarray:
    """The summed Numerov recurrence of ``numerov._sweep`` stepped one row at a
    time in double precision, from ``phi`` seeds and ``c = q/(1 + q/12)``,
    rescaled past ``RESCALE_THRESHOLD`` as the program's banded sweep is."""
    n = c.shape[0]
    u = np.empty(n)
    u[0], u[1] = u0, u1
    w_prev, w = u0 / (1.0 - c[0] / 12.0), u1 / (1.0 - c[1] / 12.0)
    d = w - w_prev
    for k in range(1, n - 1):
        d = d - c[k] * w
        w = w + d
        u[k + 1] = w * (1.0 - c[k + 1] / 12.0)
        if abs(u[k + 1]) > RESCALE_THRESHOLD:
            u[: k + 2] /= RESCALE_THRESHOLD
            w, d = w / RESCALE_THRESHOLD, d / RESCALE_THRESHOLD
    return u


def sweep_one_solve_per_segment(c: np.ndarray, u0: float, u1: float) -> np.ndarray:
    """The banded summed Numerov sweep with one ``dtbtrs`` call per growth segment.

    Same band rows, segments, carried rows and rescaling as
    ``numerov._sweep``, each built over the whole sweep at once; ``c`` must
    lie below 4.
    """
    n = c.shape[0]
    u = np.zeros(n)
    u[0], u[1] = u0, u1
    w0, w1 = u0 / (1.0 - c[0] / 12.0), u1 / (1.0 - c[1] / 12.0)
    # d_0, w_1, then d_1, w_2, d_2, ... interleaved
    t = np.zeros(2 * n - 2)
    t[0], t[1] = w1 - w0, w1
    stops = [n - 2]
    if (n - 2) * math.sqrt(max(-c[1:-1].min(), 0.0)) > _SEGMENT_GROWTH:
        growth = np.cumsum(np.sqrt(np.maximum(-c[1:-1], 0.0)))
        cuts = np.arange(_SEGMENT_GROWTH, growth[-1], _SEGMENT_GROWTH)
        stops = np.searchsorted(growth, cuts).tolist() + stops
    ab = np.empty((3, 2 * n - 2), order="F")
    ab[2] = -1.0
    ab[1, 0::2] = -1.0
    ab[1, 1::2] = c[1:]
    start = 0
    for stop in stops:
        if stop <= start:
            continue
        # the segment's unknowns after two identity rows carrying its first d and w
        band = ab[:, 2 * start : 2 * stop + 2].copy(order="F")
        band[1, 0] = 0.0
        rhs = t[2 * start : 2 * stop + 2]
        rhs[2:] = 0.0
        rhs[:], info = dtbtrs(band, rhs, uplo="L", diag="U", overwrite_b=1)
        assert info == 0
        u[start + 2 : stop + 2] = rhs[3::2] * (c[start + 2 : stop + 2] * (-1.0 / 12.0) + 1.0)
        peak = max(u[start + 2 : stop + 2].max(), -u[start + 2 : stop + 2].min())
        if peak > RESCALE_THRESHOLD:
            u[: stop + 2] /= peak
            t[: 2 * stop + 2] /= peak
        start = stop
    return u


def count_nodes_one_pass(u: np.ndarray) -> int:
    """Strict sign changes over the interior samples, zeros skipped, in one pass."""
    s = np.sign(u[1:-1])
    s = s[s != 0.0]
    return int(np.count_nonzero(s[1:] != s[:-1]))


def normalize_samples_scipy(u: np.ndarray, h: float, rho: np.ndarray) -> np.ndarray:
    """``u`` at the points ``rho``, ``h`` apart in ``ln rho``, scaled to ``int u^2
    drho = int rho u^2 d(ln rho) = 1`` by scipy's Simpson rule, its first lobe
    positive."""
    out = u / math.sqrt(simpson(rho * u * u, dx=h))
    first_lobe = np.nonzero(np.abs(out) > 0.01 * np.max(np.abs(out)))[0]
    if first_lobe.size and out[first_lobe[0]] < 0.0:
        out = -out
    return out


def bessel_k0_unblocked(x: np.ndarray) -> np.ndarray:
    """K0 by the program's two regimes, each evaluated over the whole array."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    small = x <= specfun._K0_SWITCH
    large = ~small & (x <= specfun.X_MAX)
    if np.any(small):
        out[small] = specfun._k0_series_array(x[small])
    if np.any(large):
        out[large] = special.k0(x[large])
    return out


def fd_lowest_energies(problem, grid, n_states: int = 1) -> np.ndarray:
    """Three-point finite-difference diagonalization of the Langer form.

    On the grid's points, ``h`` apart in ``x = ln rho``, ``-phi'' + (rho^2
    U_eff + 1/4) phi = E rho^2 phi`` for ``phi = u/sqrt(rho)``: the
    three-point second difference, the inner boundary closed by the
    regular-solution ratio ``phi_0/phi_1`` at the first two points
    (Dirichlet at the outer edge), and the generalized problem made
    symmetric by ``rho^-1`` on both sides. Returns the lowest eigenvalues
    in rydberg. The boundary ratio depends weakly on the energy, so it is
    iterated a few times from the previous eigenvalue.
    """
    rho = grid.points()
    h = grid.step
    q = rho * rho * np.asarray(effective_potential(problem, rho), dtype=float) + 0.25
    inner = rho[1:-1]
    off = -1.0 / (h * h * inner[:-1] * inner[1:])
    power = (rho[0] / rho[1]) ** (indicial_exponent(problem) - 0.5)

    def lowest(energy_guess):
        series = small_rho_solution(problem, energy_guess, rho[:2])
        ratio = power * float(series[0] / series[1])
        diag = 2.0 / (h * h) + q[1:-1]
        diag[0] -= ratio / (h * h)
        # bisection on Sturm counts to an absolute 1e-13 Ry: the rows near the
        # origin make the matrix's norm 1e15 or more, and the default
        # tolerance, eps times that norm, would be as wide as the levels
        return eigh_tridiagonal(
            diag / (inner * inner), off, eigvals_only=True, select="i",
            select_range=(0, n_states - 1), lapack_driver="stebz", tol=1e-13,
        )

    vals = lowest(0.0)
    for _ in range(3):
        vals = lowest(float(vals[0]))
    return vals


def cheb(n: int):
    """Chebyshev differentiation matrix and points ``cos(pi j/n)``, ``j = 0..n``
    (L. N. Trefethen, *Spectral Methods in MATLAB*, SIAM 2000, ``cheb.m``)."""
    t = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dt = t[:, None] - t[None, :]
    d = np.outer(c, 1.0 / c) / (dt + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return d, t


def chebyshev_levels(problem, kappa: float, n: int = 200) -> np.ndarray:
    """Bound levels (rydberg), lowest first, by Chebyshev collocation.

    The Langer form ``-phi'' + (rho^2 V + nu^2) phi = E rho^2 phi`` in ``x =
    ln rho``, ``nu = s - 1/2``, with ``V`` the potential without its
    centrifugal term (``K0`` from ``scipy.special.k0``), on ``n + 1``
    points of ``x`` in ``[ln(1e-10/kappa), ln(100/kappa)]``: ``phi' = nu
    phi`` at the inner edge and ``phi = 0`` at the outer. The generalized
    problem ``(A, diag(rho^2))`` is solved by ``scipy.linalg.eigvals``,
    with no bracket and no shooting; level ``k`` is the ``k``-th negative
    eigenvalue.
    """
    a, b = math.log(1e-10 / kappa), math.log(100.0 / kappa)
    d, t = cheb(n)
    d *= 2.0 / (b - a)
    rho = np.exp(0.5 * (a + b) + 0.5 * (b - a) * t)  # rho[0] is the outer edge
    nu = indicial_exponent(problem) - 0.5
    v = -problem.coulomb_coefficient / rho
    if problem.k0_prefactor:
        v -= problem.k0_prefactor * special.k0(problem.k0_argument_scale * rho)
    op = -(d @ d) + np.diag(rho * rho * v + nu * nu)
    mass = np.diag(rho * rho)
    # the inner edge's row is its boundary condition, with no mass: an infinite eigenvalue
    op[-1] = d[-1]
    op[-1, -1] -= nu
    mass[-1, -1] = 0.0
    energies = eigvals(op[1:, 1:], mass[1:, 1:])
    energies = energies[np.isfinite(energies)]
    real = np.abs(energies.imag) <= 1e-9 * np.abs(energies.real)
    return np.sort(energies.real[real & (energies.real < 0.0)])
