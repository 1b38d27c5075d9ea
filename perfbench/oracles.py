"""Reference values computed apart from ``planaratom``.

Nothing here imports the program. The Coulomb spectra and mean radii come
from their closed forms; the massive-photon states come from an independent
discretisation: Numerov shooting on a logarithmic grid ``x = ln(rho)`` with
``K0`` from ``scipy.special.k0``, bracketed by Sturm node counts and
polished by Brent's method. The program integrates on a uniform ``rho``
grid with its own Bessel functions, so the two share no discretisation
error and no special-function code.

Units follow the program's documentation: energies in rydberg, ``rho`` the
dimensionless radius, ``r = rho / sqrt(zeta)`` in Bohr radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq
from scipy.special import k0

# Inverse fine-structure constant of the model (the value the paper's
# tables were produced with; part of the problem definition).
INV_ALPHA = 137.0356

# CODATA 2018 particle masses in electron masses.
MASSES = {
    "e": 1.0,
    "mu": 206.7682830,
    "p": 1836.15267343,
    "d": 3670.48296788,
    "t": 5496.92153573,
}
ATOMS = {
    "pe": ("e", "p"),
    "de": ("e", "d"),
    "te": ("e", "t"),
    "pmu": ("mu", "p"),
    "dmu": ("mu", "d"),
    "tmu": ("mu", "t"),
}


def zeta(atom: str) -> float:
    """Reduced mass of the orbiter-nucleus pair in electron masses."""
    orbiter, nucleus = ATOMS[atom]
    m1, m2 = MASSES[orbiter], MASSES[nucleus]
    return m1 * m2 / (m1 + m2)


def principal(nodes: int, ell: int) -> int:
    return nodes + ell + 1


def coulomb_energy(dim: int, atom: str, nodes: int, ell: int) -> float:
    """-zeta/n^2 in 3D, -4 zeta/(2n-1)^2 in 2D (rydberg)."""
    n = principal(nodes, ell)
    z = zeta(atom)
    if dim == 3:
        return -z / n**2
    return -4.0 * z / (2 * n - 1) ** 2


def coulomb_mean_radius(dim: int, atom: str, nodes: int, ell: int) -> float:
    """<r> in Bohr radii: (3n^2 - l(l+1))/(2 zeta) in 3D,
    (3(n-1/2)^2 - (l^2 - 1/4))/(2 zeta) in 2D."""
    n = principal(nodes, ell)
    z = zeta(atom)
    if dim == 3:
        return (3.0 * n * n - ell * (ell + 1)) / (2.0 * z)
    return (3.0 * (n - 0.5) ** 2 - (ell * ell - 0.25)) / (2.0 * z)


@dataclass(frozen=True)
class Radial:
    """``u'' + [E - V(rho) - (nu^2 - 1/4)/rho^2] u = 0`` for one state.

    ``nu = l + 1/2`` in 3D and ``nu = l`` in 2D. ``V`` is either Coulomb
    (``-coulomb/rho``) or massive-photon (``-k0_pref K0(k0_scale rho)``).
    """

    nu: float
    coulomb: float = 0.0
    k0_pref: float = 0.0
    k0_scale: float = 0.0

    def potential(self, rho: np.ndarray) -> np.ndarray:
        v = np.zeros_like(rho)
        if self.coulomb:
            v -= self.coulomb / rho
        if self.k0_pref:
            v -= self.k0_pref * k0(self.k0_scale * rho)
        return v


def coulomb_radial(dim: int, atom: str, ell: int) -> Radial:
    nu = ell + 0.5 if dim == 3 else float(ell)
    return Radial(nu=nu, coulomb=2.0 * math.sqrt(zeta(atom)))


def cs_radial(kind: str, atom: str, lam: float, ell: int) -> Radial:
    """Massive-photon problem; ``kind`` is chern_simons or chern_simons_jordan."""
    pref = 1.0 / math.pi if kind == "chern_simons" else lam * INV_ALPHA / math.pi
    return Radial(
        nu=float(ell), k0_pref=pref, k0_scale=lam * INV_ALPHA / math.sqrt(zeta(atom))
    )


@dataclass(frozen=True)
class LogGridState:
    energy: float
    mean_rho: float
    mean_rho2: float
    nodes: int


class _LogGrid:
    """Numerov on x = ln(rho) for phi = u / sqrt(rho).

    The substitution turns the radial equation into
    ``phi'' = [nu^2 + rho^2 (V - E)] phi``: no singular term, and the
    regular solution is ``phi ~ rho^nu`` at the inner edge.
    """

    def __init__(self, radial: Radial, rho_min: float, rho_max: float, step: float):
        n = int(math.ceil(math.log(rho_max / rho_min) / step)) + 1
        self.rho = np.exp(math.log(rho_min) + step * np.arange(n))
        self.step = step
        c = step * step / 12.0
        rho2 = self.rho * self.rho
        self.q0 = radial.nu**2 + rho2 * radial.potential(self.rho)  # Q at E = 0
        self._w0 = 1.0 - c * self.q0
        self._w1 = c * rho2
        self._seed = (self.rho[:2] ** radial.nu).tolist()

    def sweep(self, energy: float) -> list:
        w = (self._w0 + self._w1 * energy).tolist()
        phi = [0.0] * len(w)
        p0, p1 = self._seed
        phi[0], phi[1] = p0, p1
        for k in range(1, len(w) - 1):
            p0, p1 = p1, ((12.0 - 10.0 * w[k]) * p1 - w[k - 1] * p0) / w[k + 1]
            phi[k + 1] = p1
        return phi

    def end_value(self, energy: float) -> float:
        return self.sweep(energy)[-1]

    def sign_changes(self, energy: float) -> int:
        """Sturm count: Dirichlet eigenvalues below ``energy``."""
        s = np.sign(self.sweep(energy))
        s = s[s != 0.0]
        return int(np.count_nonzero(s[1:] != s[:-1]))


def solve_log_grid(
    radial: Radial, nodes: int, energy_guess: float, step: float = 2e-3
) -> LogGridState | None:
    """Eigenstate with ``nodes`` radial nodes; ``energy_guess`` (< 0) sizes the box.

    The box runs from ``1e-9/kappa`` to ``(60 + 20 nodes)/kappa`` with
    ``kappa = sqrt(-energy_guess)``, so both ends sit far outside the
    state. The level is located by Sturm counts, so a guess near another
    level still yields the ``nodes``-node one. Returns None when no such
    level lies between about 66 times the guess and zero.
    """
    kappa = math.sqrt(-energy_guess)
    grid = _LogGrid(radial, 1e-9 / kappa, (60.0 + 20.0 * nodes) / kappa, step)
    # bracket with `nodes` sign changes below and `nodes + 1` above the level
    lo, hi = energy_guess * 1.001, energy_guess * 0.999
    c_lo, c_hi = grid.sign_changes(lo), grid.sign_changes(hi)
    for _ in range(8):
        if c_lo <= nodes:
            break
        lo = energy_guess + 4.0 * (lo - energy_guess)
        c_lo = grid.sign_changes(lo)
    else:
        return None
    for _ in range(30):
        if c_hi > nodes:
            break
        hi = min(energy_guess + 4.0 * (hi - energy_guess), 0.5 * hi)
        c_hi = grid.sign_changes(hi)
    else:
        return None
    for _ in range(100):
        if c_lo == nodes and c_hi == nodes + 1:
            break
        mid = 0.5 * (lo + hi)
        c_mid = grid.sign_changes(mid)
        if c_mid <= nodes:
            lo, c_lo = mid, c_mid
        else:
            hi, c_hi = mid, c_mid
    else:
        return None
    energy = brentq(grid.end_value, lo, hi, xtol=1e-13 * abs(energy_guess), rtol=1e-15)
    phi = np.asarray(grid.sweep(energy))
    rho = grid.rho
    # Past the outermost turning point the outward sweep decays until
    # roundoff seeds the growing solution; cut it at its smallest value.
    allowed = np.nonzero(grid.q0 - rho * rho * energy < 0.0)[0]
    turn = int(allowed[-1]) if allowed.size else 0
    cut = turn + int(np.argmin(np.abs(np.sqrt(rho[turn:]) * phi[turn:])))
    phi, rho = phi[: cut + 1], rho[: cut + 1]
    dens = rho * rho * phi * phi  # u^2 drho = rho^2 phi^2 dx
    norm = simpson(dens, dx=grid.step)
    mean_rho = simpson(rho * dens, dx=grid.step) / norm
    mean_rho2 = simpson(rho * rho * dens, dx=grid.step) / norm
    u = np.sqrt(rho) * phi
    big = np.abs(u) > 1e-6 * np.max(np.abs(u))
    s = np.sign(u[big])
    return LogGridState(energy, mean_rho, mean_rho2, int(np.count_nonzero(s[1:] != s[:-1])))


def log_shift(lam1: float, lam2: float) -> float:
    """Leading-order E(lam2) - E(lam1) for the chern_simons kind.

    For small arguments ``K0(x) = -ln(x/2) - gamma + O(x^2 ln x)``, so the
    well is ``(1/pi) ln(lam)`` plus a lambda-independent shape: the
    spectrum moves rigidly by ``ln(lam2/lam1)/pi``.
    """
    return math.log(lam2 / lam1) / math.pi


def log_shift_error_bound(atom: str, lam: float, mean_rho: float, mean_rho2: float) -> float:
    """Size of the first neglected K0 term for one state.

    The next term of the small-argument expansion,
    ``-(x^2/4)(1 - gamma - ln(x/2))`` with ``x = a rho``, shifts the level
    by about ``(a^2/(4 pi)) <rho^2> (1 + |ln(a <rho>/2)|)``. Its
    difference between two lambdas is what separates the exact shift from
    ``ln(lam2/lam1)/pi``.
    """
    a = lam * INV_ALPHA / math.sqrt(zeta(atom))
    return a * a / (4.0 * math.pi) * mean_rho2 * (1.0 + abs(math.log(0.5 * a * mean_rho)))
