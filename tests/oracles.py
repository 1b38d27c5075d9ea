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
