"""Property test: every state the solver accepts ends converged or in a typed failure."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import make_problem  # noqa: E402
from planaratom import ATOM_NAMES, solve_state  # noqa: E402
from planaratom.model import CHERN_SIMONS_KINDS  # noqa: E402
from planaratom.numerov import SolverError  # noqa: E402

KINDS = ("coulomb3d", "coulomb2d", "chern_simons", "chern_simons_jordan")


@settings(max_examples=40, deadline=None)
@given(
    atom=st.sampled_from(ATOM_NAMES),
    kind=st.sampled_from(KINDS),
    lam=st.floats(2e-6, 2e-4),
    ell=st.integers(0, 3),
    nodes=st.integers(0, 3),
)
def test_converged_or_typed_failure(atom, kind, lam, ell, nodes):
    problem = make_problem(atom, kind, lam if kind in CHERN_SIMONS_KINDS else None, ell)
    try:
        res, wf = solve_state(problem, nodes)
    except SolverError as exc:
        assert str(exc)
        return
    assert res.converged, res
    assert res.nodes == nodes
    assert wf.energy == res.energy
