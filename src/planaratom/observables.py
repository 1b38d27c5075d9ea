"""Norm and mean-radius observables of converged wavefunctions.

The dimension-aware mean radius ``<r> = int r^D R^2 dr / int r^(D-1) R^2 dr``
with ``R = u / r^((D-1)/2)`` collapses to ``<rho> = int rho u^2 drho`` for a
normalized reduced function in both dimensions; the physical value in Bohr
radii follows from ``r = rho / sqrt(zeta)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

# effective_potential is unused here; perfbench/tracing.py wraps this binding by name
from .model import EffectivePotentialParams, effective_potential  # noqa: F401
from .numerov import WaveFunction, indicial_exponent, small_rho_solution

# How far int u^2 drho may sit from 1 before mean_radius refuses the input.
NORM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class RadiusResult:
    """Mean radius in grid units and in Bohr radii."""

    mean_rho: float
    mean_r_bohr: float
    dimension: int


def norm_squared(wf: WaveFunction) -> float:
    """Composite-Simpson value of ``int u^2 drho`` on the grid."""
    return float(simpson(wf.u * wf.u, dx=wf.grid.step))


def _origin_moments(wf: WaveFunction, problem: EffectivePotentialParams):
    """Contributions of [0, rho_min) to int u^2 and int rho u^2.

    The 2D grids start a fixed number of steps away from the origin; the
    probability below the first point is recovered from the regular-series
    solution at ``wf.energy``, matched to the first grid value. Negligible
    for the 3D grids but computed uniformly.
    """
    rho0 = wf.grid.rho_min
    head = rho0 / 512.0
    sub = np.linspace(head, rho0, 513)
    uf = small_rho_solution(problem, wf.energy, sub)
    scale = wf.u[0] / uf[-1]
    uf = scale * uf
    s = indicial_exponent(problem)
    # below `head` the solution is the bare power law to excellent accuracy
    c0 = uf[0] / head**s
    norm_below = float(simpson(uf * uf, x=sub)) + c0 * c0 * head ** (2 * s + 1) / (
        2 * s + 1
    )
    rho_below = float(simpson(sub * uf * uf, x=sub)) + c0 * c0 * head ** (2 * s + 2) / (
        2 * s + 2
    )
    return norm_below, rho_below


def mean_radius(wf: WaveFunction, problem: EffectivePotentialParams) -> RadiusResult:
    """Mean radius of a normalized wavefunction.

    Evaluates ``<rho> = int rho u^2 drho / int u^2 drho`` with both
    integrals completed below the first grid point by the regular series
    (see ``_origin_moments``), then converts via ``r = rho/sqrt(zeta)``.

    Parameters
    ----------
    wf : WaveFunction
        Normalized samples on the solver grid.
    problem : EffectivePotentialParams
        Supplies the dimension and the ``sqrt(zeta)`` length conversion.

    Raises
    ------
    ValueError
        If the input is not normalized to within ``NORM_TOLERANCE``.
    """
    nsq = norm_squared(wf)
    if abs(nsq - 1.0) > NORM_TOLERANCE:
        raise ValueError(
            f"mean_radius requires a normalized wavefunction (int u^2 = {nsq:.8g})"
        )
    rho = wf.grid.points()
    first_moment = float(simpson(rho * wf.u * wf.u, dx=wf.grid.step))
    norm_below, rho_below = _origin_moments(wf, problem)
    mean_rho = (first_moment + rho_below) / (nsq + norm_below)
    if mean_rho <= 0.0:
        raise ValueError("mean radius came out non-positive; degenerate input")
    return RadiusResult(
        mean_rho=mean_rho,
        mean_r_bohr=mean_rho / problem.atom.sqrt_zeta,
        dimension=problem.dimension,
    )
