import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from planaratom import (
    EffectivePotentialParams,
    PotentialSpec,
    make_atom,
    solve_state,
)
from planaratom import numerov as nv
from planaratom.model import CHERN_SIMONS_KINDS
from planaratom.numerov import RadialGrid


def halved(grid: RadialGrid) -> RadialGrid:
    """Same endpoints, twice the resolution (nested points)."""
    return replace(grid, n_points=2 * grid.n_points - 1)


def make_problem(atom: str, kind: str, lam=None, ell=0) -> EffectivePotentialParams:
    spec = PotentialSpec(kind, lam) if kind in CHERN_SIMONS_KINDS else PotentialSpec(kind)
    return EffectivePotentialParams(spec, make_atom(atom), ell)


@pytest.fixture(scope="session")
def solve_cached():
    """Memoized solver shared across the whole test session.

    Keyed on the full request; many tests exercise the same handful of
    converged states and each solve costs seconds.
    """
    cache = {}

    def solve(atom, kind, lam=None, ell=0, nodes=0, grid=None, tol=nv.BISECTION_TOL):
        key = (atom, kind, lam, ell, nodes, grid, tol)
        if key not in cache:
            problem = make_problem(atom, kind, lam, ell)
            result, wf = solve_state(problem, nodes, grid=grid, bisection_tol=tol)
            cache[key] = (problem, result, wf)
        return cache[key]

    return solve


@pytest.fixture
def shots(monkeypatch):
    """Log of the test's shooting trials as ``(grid points, energy, sweeps made)``."""
    log = []
    shoot = nv._ShootingWorkspace.shoot

    def recording(ws, energy, *args, **kwargs):
        before = ws.sweeps
        try:
            return shoot(ws, energy, *args, **kwargs)
        finally:
            log.append((ws.grid.n_points, energy, ws.sweeps - before))

    monkeypatch.setattr(nv._ShootingWorkspace, "shoot", recording)
    return log


def sweeps_per_grid(log) -> dict[int, int]:
    """Sweeps of a ``shots`` log, summed by grid size."""
    out = {}
    for n, _, sweeps in log:
        out[n] = out.get(n, 0) + sweeps
    return out
