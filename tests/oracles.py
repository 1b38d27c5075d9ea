"""Independent reference routes used to pin expected values.

Nothing here touches the implementation paths under test: K0 comes from
its integral representation by adaptive quadrature, and the Coulomb
spectra from their closed forms.
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad


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
