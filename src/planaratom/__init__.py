"""Bound states of planar and 3D hydrogen-like atoms, Coulomb or massive-photon.

Library layout:

* :mod:`planaratom.specfun` — the modified Bessel function K0;
* :mod:`planaratom.model` — constants, atoms, effective potentials;
* :mod:`planaratom.numerov` — grid, sweeps, and the shooting eigensolver;
* :mod:`planaratom.observables` — normalization and mean radii;
* :mod:`planaratom.cli` — the ``planaratom`` command.
"""

__version__ = "1.0.0"

from .model import (
    ATOM_NAMES,
    AtomSpec,
    EffectivePotentialParams,
    PotentialSpec,
    effective_potential,
    jordan_variant_gap,
    make_atom,
)
from .numerov import (
    EigenResult,
    RadialGrid,
    SolverConfig,
    WaveFunction,
    count_nodes,
    default_grid,
    fd_lowest_energies,
    match_defect,
    solve_state,
)
from .observables import RadiusResult, mean_radius, normalize
from .specfun import BesselEval, bessel_k0, bessel_k0_eval

__all__ = [
    "ATOM_NAMES",
    "AtomSpec",
    "BesselEval",
    "EffectivePotentialParams",
    "EigenResult",
    "PotentialSpec",
    "RadialGrid",
    "RadiusResult",
    "SolverConfig",
    "WaveFunction",
    "__version__",
    "bessel_k0",
    "bessel_k0_eval",
    "count_nodes",
    "default_grid",
    "effective_potential",
    "fd_lowest_energies",
    "jordan_variant_gap",
    "make_atom",
    "match_defect",
    "mean_radius",
    "normalize",
    "solve_state",
]
