"""Independent reference routes used to pin expected values.

K0 comes from its integral representation by adaptive quadrature, the
Coulomb spectra from their closed forms, and the Numerov recurrence from a
plain loop. :func:`fd_lowest_energies` diagonalizes a finite-difference
Hamiltonian, a route apart from the shooting search; it takes the
program's ``effective_potential`` and its seed ratio at the origin, so it
checks the search and the sweeps, not the potential.
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import eigh_tridiagonal

from planaratom.model import effective_potential
from planaratom.numerov import RESCALE_THRESHOLD, small_rho_solution


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


def numerov_loop_longdouble(f: np.ndarray, u0: float, u1: float) -> np.ndarray:
    """The Numerov recurrence ``f_{k+1} u_{k+1} = (12 - 10 f_k) u_k - f_{k-1} u_{k-1}``
    stepped one row at a time in ``np.longdouble``, without rescaling.

    Rounding in extended precision (64-bit mantissa on x86) sits three
    orders of magnitude below a double sweep's, so the gap between the two
    is the double sweep's own rounding error.
    """
    fl = np.asarray(f, dtype=np.longdouble)
    u = np.empty(fl.shape[0], dtype=np.longdouble)
    u[0], u[1] = u0, u1
    for k in range(1, fl.shape[0] - 1):
        u[k + 1] = ((12 - 10 * fl[k]) * u[k] - fl[k - 1] * u[k - 1]) / fl[k + 1]
    return u


def sweep_loop(f: np.ndarray, u0: float, u1: float) -> np.ndarray:
    """The Numerov recurrence stepped one row at a time in double precision,
    rescaled past ``RESCALE_THRESHOLD`` as the program's banded sweep is."""
    n = f.shape[0]
    u = np.empty(n)
    u[0], u[1] = u0, u1
    for k in range(1, n - 1):
        u[k + 1] = ((12.0 - 10.0 * f[k]) * u[k] - f[k - 1] * u[k - 1]) / f[k + 1]
        if abs(u[k + 1]) > RESCALE_THRESHOLD:
            u[: k + 2] /= RESCALE_THRESHOLD
    return u


def fd_lowest_energies(problem, grid, n_states: int = 1) -> np.ndarray:
    """Three-point finite-difference diagonalization.

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
