"""The mean-radius observable of converged wavefunctions.

The dimension-aware mean radius ``<r> = int r^D R^2 dr / int r^(D-1) R^2 dr``
with ``R = u / r^((D-1)/2)`` collapses to ``<rho> = int rho u^2 drho`` for a
normalized reduced function in both dimensions; the physical value in Bohr
radii follows from ``r = rho / sqrt(zeta)``.
"""

from __future__ import annotations

from dataclasses import dataclass

# effective_potential and small_rho_solution are unused here; perfbench/tracing.py
# wraps these bindings by name
from .model import EffectivePotentialParams, effective_potential  # noqa: F401
from .numerov import WaveFunction, simpson_u2, small_rho_solution  # noqa: F401

# How far int u^2 drho may sit from 1 before mean_radius refuses the input.
NORM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class RadiusResult:
    """Mean radius in grid units and in Bohr radii."""

    mean_rho: float
    mean_r_bohr: float


def mean_radius(wf: WaveFunction, problem: EffectivePotentialParams) -> RadiusResult:
    """Mean radius of a normalized wavefunction.

    Evaluates ``<rho> = int rho u^2 drho / int u^2 drho`` over the grid,
    ``int rho^2 u^2 dx / int rho u^2 dx`` in ``x = ln rho``, then converts
    via ``r = rho/sqrt(zeta)``. Below ``rho_min`` lies too little of the
    state to count (see ``numerov.RHO_MIN_KAPPA``).

    Parameters
    ----------
    wf : WaveFunction
        Normalized samples on the solver grid.
    problem : EffectivePotentialParams
        Supplies the ``sqrt(zeta)`` length conversion.

    Raises
    ------
    ValueError
        If the input is not normalized to within ``NORM_TOLERANCE``.
    """
    rho = wf.grid.points()
    nsq = simpson_u2(wf.u, wf.grid.step, rho)
    if abs(nsq - 1.0) > NORM_TOLERANCE:
        raise ValueError(
            f"mean_radius requires a normalized wavefunction (int u^2 = {nsq:.8g})"
        )
    rho *= rho
    mean_rho = simpson_u2(wf.u, wf.grid.step, rho) / nsq
    if mean_rho <= 0.0:
        raise ValueError("mean radius came out non-positive; degenerate input")
    return RadiusResult(
        mean_rho=mean_rho,
        mean_r_bohr=mean_rho / problem.atom.sqrt_zeta,
    )
