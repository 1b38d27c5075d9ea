"""Physical constants, atom definitions, and dimensionless effective potentials.

Everything downstream works in the dimensionless radial coordinate ``rho``;
the physical radius in Bohr radii is ``r = rho / sqrt(zeta)`` (applied in
:mod:`planaratom.observables`). Energies are carried as twice the Hartree
value, which is numerically the energy in rydberg.

Supported interactions:

``coulomb3d``
    ``U_eff = -2 sqrt(zeta)/rho + l(l+1)/rho^2``
``coulomb2d``
    ``U_eff = -2 sqrt(zeta)/rho + (l^2 - 1/4)/rho^2``
``chern_simons``
    ``U_eff = -(1/pi) K0(lambda rho / (alpha sqrt(zeta))) + (l^2 - 1/4)/rho^2``
``chern_simons_jordan``
    same K0 argument but prefactor ``lambda/(pi alpha)`` — the (incorrect)
    prefactor used by an earlier planar-atom prediction, kept as a
    first-class variant so the discrepancy is executable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .specfun import X_MAX, bessel_k0_array

# Inverse fine-structure constant as used throughout: the speed of light in
# atomic units. Deliberately not a CODATA refinement; the embedded reference
# tables were produced with this value.
INV_ALPHA = 137.0356

# Electron rest energy in eV, used by the CLI to convert photon masses.
ELECTRON_MASS_EV = 510998.95

# Particle masses in units of the electron mass.
PARTICLE_MASSES = {
    "e": 1.0,
    "mu": 206.7682830,
    "p": 1836.15267343,
    "d": 3670.48296788,
    "t": 5496.92153573,
}

# Floor of K0's argument: twice the smallest subnormal double, at which
# log(x/2) is still finite.
_K0_FLOOR = 2.0 * 5e-324

ATOM_NAMES = ("pe", "de", "te", "pmu", "dmu", "tmu")

COULOMB_KINDS = ("coulomb3d", "coulomb2d")
CHERN_SIMONS_KINDS = ("chern_simons", "chern_simons_jordan")
POTENTIAL_KINDS = COULOMB_KINDS + CHERN_SIMONS_KINDS

# CLI tokens use hyphens; internal kinds use underscores.
POTENTIAL_TOKENS = {
    "coulomb3d": "coulomb3d",
    "coulomb2d": "coulomb2d",
    "chern-simons": "chern_simons",
    "chern-simons-jordan": "chern_simons_jordan",
}


@dataclass(frozen=True)
class AtomSpec:
    """A neutral two-body atom: orbiting particle plus nucleus.

    ``zeta`` is the reduced mass in electron masses; it sets the Coulomb
    depth through ``sqrt(zeta)`` and the length scaling ``r = rho/sqrt(zeta)``.
    """

    name: str
    orbiter_mass: float
    nucleus_mass: float

    def __post_init__(self):
        if self.orbiter_mass <= 0 or self.nucleus_mass <= 0:
            raise ValueError("particle masses must be positive")

    @property
    def zeta(self) -> float:
        m1, m2 = self.orbiter_mass, self.nucleus_mass
        return m1 * m2 / (m1 + m2)

    @property
    def sqrt_zeta(self) -> float:
        return math.sqrt(self.zeta)


_ATOM_CONSTITUENTS = {
    "pe": ("e", "p"),
    "de": ("e", "d"),
    "te": ("e", "t"),
    "pmu": ("mu", "p"),
    "dmu": ("mu", "d"),
    "tmu": ("mu", "t"),
}


def make_atom(name: str) -> AtomSpec:
    """Build one of the six supported atoms from its token.

    Raises
    ------
    ValueError
        If ``name`` is not one of ``pe de te pmu dmu tmu``.
    """
    try:
        orbiter, nucleus = _ATOM_CONSTITUENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown atom {name!r}; expected one of {', '.join(ATOM_NAMES)}"
        ) from None
    return AtomSpec(
        name=name,
        orbiter_mass=PARTICLE_MASSES[orbiter],
        nucleus_mass=PARTICLE_MASSES[nucleus],
    )


@dataclass(frozen=True)
class PotentialSpec:
    """Interaction choice plus, for massive-photon kinds, the mass ratio.

    ``lam`` is the photon topological mass over the electron mass; it is
    required for the Chern-Simons kinds and must be absent for Coulomb.
    """

    kind: str
    lam: float | None = None

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind in CHERN_SIMONS_KINDS:
            if self.lam is None or not (0 < self.lam < math.inf):
                raise ValueError(f"{self.kind} requires a positive finite lambda")
        elif self.lam is not None:
            raise ValueError(f"{self.kind} takes no lambda")

    @property
    def dimension(self) -> int:
        return 3 if self.kind == "coulomb3d" else 2


@dataclass(frozen=True)
class EffectivePotentialParams:
    """Full problem definition: interaction, atom, and angular momentum.

    A lambda whose K0 argument per unit ``rho``, ``lambda/(alpha
    sqrt(zeta))``, overflows a double is rejected: past about 1.3e306 for
    the six atoms. So is one whose scale is subnormal: below about 1.6e-310
    for the electronic atoms and 2.2e-309 to 2.3e-309 for the muonic ones,
    where ``rho`` times it loses its precision.
    """

    potential: PotentialSpec
    atom: AtomSpec
    ell: int = 0

    def __post_init__(self):
        if self.ell < 0 or self.ell != int(self.ell):
            raise ValueError("ell must be a non-negative integer")
        if not self.k0_argument_scale < math.inf:
            raise ValueError(f"lambda={self.potential.lam:g} overflows K0's argument scale")
        if 0.0 < self.k0_argument_scale < sys.float_info.min:
            raise ValueError(f"lambda={self.potential.lam:g} underflows K0's argument scale")

    @property
    def dimension(self) -> int:
        return self.potential.dimension

    @property
    def centrifugal_coefficient(self) -> float:
        """l(l+1) in 3D, l^2 - 1/4 in 2D."""
        if self.dimension == 3:
            return float(self.ell * (self.ell + 1))
        return self.ell * self.ell - 0.25

    @property
    def k0_prefactor(self) -> float:
        """Coefficient of -K0(...) in U_eff; 0 for Coulomb kinds."""
        kind = self.potential.kind
        if kind == "chern_simons":
            return 1.0 / math.pi
        if kind == "chern_simons_jordan":
            return self.potential.lam * INV_ALPHA / math.pi
        return 0.0

    @property
    def k0_argument_scale(self) -> float:
        """K0 argument per unit rho: lambda/(alpha sqrt(zeta)); 0 for Coulomb."""
        if self.potential.kind in CHERN_SIMONS_KINDS:
            return self.potential.lam * INV_ALPHA / self.atom.sqrt_zeta
        return 0.0

    @property
    def coulomb_coefficient(self) -> float:
        """Coefficient of -1/rho in U_eff; 0 for Chern-Simons kinds."""
        if self.potential.kind in COULOMB_KINDS:
            return 2.0 * self.atom.sqrt_zeta
        return 0.0


def effective_potential(params: EffectivePotentialParams, rho) -> np.ndarray:
    """Dimensionless effective potential U_eff(rho).

    Accepts a scalar or array of strictly positive radii; returns an array
    of the same shape, 0-d for a scalar. Arguments of K0 past the underflow
    threshold contribute exactly 0, so ``rho`` is capped where the argument
    reaches twice ``X_MAX``: the argument stays finite for any lambda. In
    the same pass it is floored where the argument reaches twice the
    smallest subnormal double, so that K0 stays finite where ``rho`` times
    the scale underflows. Between the floor and the cap the argument's bits
    are those of the unclipped product. The terms are summed in place: the
    K0 kinds allocate the output, which first holds K0's argument, and K0's
    own result, and nothing else the size of ``rho``.
    """
    arr = np.asarray(rho, dtype=float)
    # min and max propagate NaN, so one comparison each catches every bad entry
    if arr.size and not (arr.min() > 0.0 and arr.max() < math.inf):
        raise ValueError("rho must be positive and finite")
    u = np.empty_like(arr)
    pref = params.k0_prefactor
    if pref:
        scale = params.k0_argument_scale
        np.clip(arr, _K0_FLOOR / scale, 2.0 * X_MAX / scale, out=u)
        u *= scale
        k0 = bessel_k0_array(u)
        k0 *= pref
    cent = params.centrifugal_coefficient
    if cent != 0.0:
        np.multiply(arr, arr, out=u)
        np.divide(cent, u, out=u)
    else:
        u.fill(0.0)
    c = params.coulomb_coefficient
    if c:
        u -= c / arr
    if pref:
        u -= k0
    return u


def jordan_variant_gap(params: EffectivePotentialParams) -> float:
    """Ratio of the jordan-variant K0 prefactor to the standard one.

    Equal to ``lambda / alpha``; below 1 the variant binds much more weakly.
    """
    if params.potential.kind not in CHERN_SIMONS_KINDS:
        raise ValueError("jordan_variant_gap applies to Chern-Simons kinds only")
    return params.potential.lam * INV_ALPHA


def lambda_from_ev(mgamma_ev: float) -> float:
    """Photon topological mass in eV -> mass ratio lambda."""
    if not (0 < mgamma_ev < math.inf):
        raise ValueError("photon mass must be positive and finite")
    return mgamma_ev / ELECTRON_MASS_EV
