"""Property tests: every state the solver accepts, and every input the CLI
accepts, ends converged or in a typed failure."""

import contextlib
import io
import json
import math
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import make_problem  # noqa: E402
from planaratom import ATOM_NAMES, cli, solve_state  # noqa: E402
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


@settings(max_examples=60, deadline=None)
@given(
    atom=st.sampled_from(ATOM_NAMES),
    potential=st.sampled_from([["coulomb3d"], ["coulomb2d"], ["chern-simons", "--lambda", "2e-5"]]),
    nodes=st.integers(-2, 3),
    tol=st.sampled_from(["nan", "inf", "-1", "0", "1e-12", "1e-8", "1"]),
    points=st.sampled_from(["4001", "8001", "20001"]),
)
def test_cli_solve_ends_in_a_record_or_a_typed_failure(atom, potential, nodes, tol, points):
    argv = ["solve", "--atom", atom, "--potential", *potential, "--nodes", str(nodes),
            f"--tol={tol}", "--points", points, "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    # not capsys: hypothesis rejects function-scoped fixtures
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    usage_ok = nodes >= 0 and 0.0 < float(tol) < math.inf
    assert code in (0, 1, 2), (argv, err)
    # a non-finite f is an input that got past validation, not a coarse grid
    assert not re.search(r"g/12 = -?(nan|inf)", err), (argv, err)
    if code == 1:
        assert out == ""
        # a solver failure is never a usage error; a bad argument may meet a
        # grid the CLI rejects first
        prefixes = ("error: ",) if usage_ok else ("usage error: ", "error: ")
        assert err.startswith(prefixes), (argv, err)
        return
    assert usage_ok, argv
    record = json.loads(out)
    assert record["converged"] is (code == 0)
    assert record["bisection_tol"] == float(tol)
