"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Heavy shared computations (the 18 massive-photon ground states, their
halved-grid reruns, and the discrepancy report) sit in module fixtures.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from conftest import halved, make_problem
from planaratom import cli
from planaratom import model as md
from planaratom import numerov as nv
from planaratom import observables as ob
from planaratom import specfun as sf

ATOMS = md.ATOM_NAMES
LAMBDAS = (2e-6, 2e-5, 2e-4)

PUBLISHED = cli.load_published_tables()


def report_line(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} {desc}: {status}{tail}")
    assert ok, f"criterion {num} {desc}{tail}"


@pytest.fixture(scope="module")
def coulomb3d_states():
    out = {}
    for atom in ATOMS:
        for nodes in (0, 1, 2):
            problem = make_problem(atom, "coulomb3d")
            t0 = time.perf_counter()
            result, wf = nv.solve_state(problem, nodes)
            wall = time.perf_counter() - t0
            out[(atom, nodes)] = (problem, result, wf, wall)
    return out


@pytest.fixture(scope="module")
def coulomb2d_states():
    out = {}
    for atom, node_list in (("pe", (0, 1, 2)), ("pmu", (0, 1, 2)), ("tmu", (0,))):
        for nodes in node_list:
            problem = make_problem(atom, "coulomb2d")
            result, wf = nv.solve_state(problem, nodes)
            out[(atom, nodes)] = (problem, result, wf)
    return out


@pytest.fixture(scope="module")
def cs_cells():
    out = {}
    for atom in ATOMS:
        for lam in LAMBDAS:
            problem = make_problem(atom, "chern_simons", lam)
            result, wf = nv.solve_state(problem, 0)
            out[(atom, lam)] = (problem, result, wf)
    return out


@pytest.fixture(scope="module")
def cs_cells_halved(cs_cells):
    out = {}
    for (atom, lam), (problem, result, _) in cs_cells.items():
        fine, _ = nv.solve_state(problem, 0, grid=halved(result.grid))
        out[(atom, lam)] = fine.energy
    return out


@pytest.fixture(scope="module")
def ell_cells():
    out = {}
    for atom in ("pe", "pmu"):
        for ell in (1, 2):
            problem = make_problem(atom, "chern_simons", 2e-6, ell=ell)
            result, _ = nv.solve_state(problem, 0)
            out[(atom, ell)] = result
    return out


@pytest.fixture(scope="module")
def report_rows():
    """The discrepancy report, with every ``(problem, node_target)`` it solved."""
    solved = []
    original = cli.solve_state

    def counted(problem, node_target=0, **kwargs):
        solved.append((problem, node_target))
        return original(problem, node_target, **kwargs)

    cli.solve_state = counted
    try:
        return cli._build_report(), solved
    finally:
        cli.solve_state = original


def test_criterion_1_closed_form_3d_spectrum(coulomb3d_states):
    worst_rel = 0.0
    worst_wall = 0.0
    ok = True
    for atom in ATOMS:
        zeta = md.make_atom(atom).zeta
        for nodes in (0, 1, 2):
            problem, result, _, wall = coulomb3d_states[(atom, nodes)]
            exact = -zeta / (nodes + 1) ** 2
            rel = abs(result.energy / exact - 1.0)
            worst_rel = max(worst_rel, rel)
            worst_wall = max(worst_wall, wall)
            ok = ok and result.converged and rel <= 1e-6 and wall < 1.0
    report_line(
        1,
        "closed-form 3D Coulomb spectrum",
        ok,
        f"worst rel err {worst_rel:.2e}, worst wall {worst_wall:.2f}s",
    )


def test_criterion_2_closed_form_2d_spectrum(coulomb2d_states, report_rows):
    worst = 0.0
    ok = True
    for atom in ("pe", "pmu"):
        zeta = md.make_atom(atom).zeta
        for nodes in (0, 1, 2):
            _, result, _ = coulomb2d_states[(atom, nodes)]
            exact = oracles.coulomb2d_energy(zeta, nodes)
            rel = abs(result.energy / exact - 1.0)
            worst = max(worst, rel)
            ok = ok and result.converged and rel <= 1e-6
    # the report must show the reference 2D column deviating from the
    # closed forms and flag it as unresolved
    rows, _ = report_rows
    flagged = [
        r
        for r in rows
        if r["section"] == "energies" and r["potential"] == "coulomb2d"
    ]
    ok = ok and len(flagged) == len(ATOMS)
    for row in flagged:
        ok = ok and row["flag"] == "unresolved"
        ok = ok and abs(row["published_value"] - row["closed_form"]) > 0.1
    report_line(2, "closed-form 2D Coulomb spectrum", ok, f"worst rel err {worst:.2e}")


def test_report_row_examples(report_rows):
    """Spot checks of the discrepancy-report classification."""
    rows, _ = report_rows
    # the rows are the reference file's energies rows, then its radii rows, in file order
    assert [(r["section"], r["atom"], r["potential"], r["lambda"]) for r in rows] == [
        key[:4] for section in ("energies", "radii") for key in PUBLISHED if key[0] == section
    ]
    by_key = {(r["section"], r["atom"], r["potential"], r["lambda"]): r for r in rows}
    r3d = by_key[("energies", "pe", "coulomb3d", None)]
    assert r3d["flag"] == "paper-numerical-error"
    assert r3d["computed"] == pytest.approx(-0.99946, rel=1e-4)
    r2d = by_key[("energies", "pe", "coulomb2d", None)]
    assert r2d["flag"] == "unresolved"
    assert r2d["closed_form"] == pytest.approx(-3.9978, rel=1e-3)
    rdmu = by_key[("energies", "dmu", "coulomb3d", None)]
    assert rdmu["flag"] == "paper-numerical-error"
    rcs = by_key[("energies", "pe", "chern-simons", 2e-5)]
    # the weaker-prefactor variant binds far less than the reference value
    assert rcs["jordan_variant"] > rcs["published_value"]
    assert abs(rcs["jordan_variant"]) < 0.01 * abs(rcs["published_value"])
    assert rcs["jordan_prefactor_ratio"] == pytest.approx(2e-5 * md.INV_ALPHA, rel=1e-12)


def test_report_solves_each_state_once(report_rows):
    _, solved = report_rows
    distinct = set(solved)
    assert len(solved) == len(distinct), f"{len(solved)} solves for {len(distinct)} states"


def test_criterion_3a_self_convergence(cs_cells, cs_cells_halved):
    worst = 0.0
    for key, (_, result, _) in cs_cells.items():
        change = abs(cs_cells_halved[key] / result.energy - 1.0)
        worst = max(worst, change)
    report_line(
        3, "(a) grid-halving self-convergence", worst < 1e-6, f"worst change {worst:.2e}"
    )


def test_criterion_3b_finite_difference_agreement(cs_cells):
    worst = 0.0
    for (atom, lam), (problem, result, _) in cs_cells.items():
        fd = oracles.fd_lowest_energies(problem, result.grid, 1)[0]
        gap = abs(fd / result.energy - 1.0)
        worst = max(worst, gap)
    report_line(
        3, "(b) finite-difference oracle agreement", worst <= 1e-5, f"worst gap {worst:.2e}"
    )


def test_criterion_3c_reference_comparison_reported(cs_cells):
    print("[acceptance] criterion 3 (c) recomputed vs reference ground-state energies:")
    complete = True
    for atom in ATOMS:
        for lam in LAMBDAS:
            _, result, _ = cs_cells[(atom, lam)]
            pub = PUBLISHED.get(("energies", atom, "chern-simons", lam, 0))
            complete = complete and pub is not None and math.isfinite(result.energy)
            dev = result.energy - pub
            print(
                f"    {atom:4s} lambda={lam:7.0e}: computed {result.energy:+.4f}"
                f"  reference {pub:+.4f}  deviation {dev:+.4f}"
            )
    report_line(3, "(c) informational comparison tabulated", complete)


def test_criterion_4_monotonicity_suite(cs_cells, ell_cells, coulomb3d_states):
    ok = True
    # eta strictly increasing in lambda per atom
    for atom in ATOMS:
        seq = [cs_cells[(atom, lam)][1].energy for lam in LAMBDAS]
        ok = ok and seq[0] < seq[1] < seq[2]
    # eta strictly decreasing in zeta per lambda
    by_zeta = sorted(ATOMS, key=lambda a: md.make_atom(a).zeta)
    for lam in LAMBDAS:
        seq = [cs_cells[(atom, lam)][1].energy for atom in by_zeta]
        ok = ok and all(a > b for a, b in zip(seq, seq[1:]))
    # energy strictly increasing in ell per atom
    for atom in ("pe", "pmu"):
        seq = [
            cs_cells[(atom, 2e-6)][1].energy,
            ell_cells[(atom, 1)].energy,
            ell_cells[(atom, 2)].energy,
        ]
        ok = ok and seq[0] < seq[1] < seq[2]
    # energy strictly increasing in node count
    for atom in ATOMS:
        seq = [coulomb3d_states[(atom, k)][1].energy for k in (0, 1, 2)]
        ok = ok and seq[0] < seq[1] < seq[2]
    report_line(4, "monotonicity suite", ok)


def test_criterion_5_mean_radii(coulomb3d_states, coulomb2d_states, cs_cells):
    ok = True
    worst3 = worst2 = 0.0
    for atom in ATOMS:
        problem, _, wf, _ = coulomb3d_states[(atom, 0)]
        r = ob.mean_radius(wf, problem).mean_r_bohr
        rel = abs(r * problem.atom.zeta / 1.5 - 1.0)
        worst3 = max(worst3, rel)
        ok = ok and rel <= 1e-6
    for atom in ("pe", "pmu", "tmu"):
        problem, _, wf = coulomb2d_states[(atom, 0)]
        r = ob.mean_radius(wf, problem).mean_r_bohr
        rel = abs(r * problem.atom.zeta / 0.5 - 1.0)
        worst2 = max(worst2, rel)
        ok = ok and rel <= 1e-6
    ratio_tmu = None
    for atom in ("pe", "pmu", "tmu"):
        problem_cs, _, wf_cs = cs_cells[(atom, 2e-5)]
        zeta = problem_cs.atom.zeta
        r_cs = ob.mean_radius(wf_cs, problem_cs).mean_r_bohr
        ok = ok and r_cs > 1.5 / zeta and r_cs > 0.5 / zeta
        if atom == "tmu":
            ratio_tmu = r_cs / (1.5 / zeta)
    print(
        f"[acceptance] criterion 5 note: tmu K0/3D radius ratio {ratio_tmu:.2f}"
        " (reference claims about 25)"
    )
    report_line(
        5,
        "mean radii",
        ok,
        f"worst 3D rel {worst3:.2e}, worst 2D rel {worst2:.2e}, tmu ratio {ratio_tmu:.1f}",
    )


def test_criterion_6_k0_accuracy():
    xs = np.concatenate(
        [np.logspace(-6, math.log10(50.0), 1000), [1.999999999, 2.0, 2.000000001]]
    )
    worst = 0.0
    for x, value in zip(xs, sf.bessel_k0_array(xs)):
        ref = oracles.k0_quadrature(float(x))
        worst = max(worst, abs(value / ref - 1.0))
    report_line(6, "K0 vs integral-representation oracle", worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_7_numerov_order():
    problem = md.EffectivePotentialParams(
        md.PotentialSpec("coulomb3d"), md.AtomSpec("z1", 1.0, 1e30)
    )
    # from 1,001 points: 1,501 points halved reach the roundoff floor of the log
    # grid's f (about 1e-11 Ry here), where no order shows
    coarse = nv.RadialGrid(1e-6, 40.0, 1001)
    e1, _ = nv.solve_state(problem, 0, grid=coarse, bisection_tol=1e-12)
    e2, _ = nv.solve_state(problem, 0, grid=halved(coarse), bisection_tol=1e-12)
    ratio = (e1.energy + 1.0) / (e2.energy + 1.0)
    report_line(7, "eigenvalue error order under step halving", 12.0 <= ratio <= 20.0,
                f"ratio {ratio:.1f}")


def test_criterion_8_cli_determinism_and_runtime(tmp_path):
    outputs = []
    walls = []
    for tag in ("a", "b"):
        target = tmp_path / f"energies_{tag}.csv"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "planaratom.cli",
                "table",
                "energies",
                "--output",
                str(target),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        walls.append(time.perf_counter() - t0)
        assert proc.returncode == 0, proc.stderr
        outputs.append(target.read_bytes())
    identical = outputs[0] == outputs[1]
    fast_enough = max(walls) < 300.0
    first_line = outputs[0].split(b"\n", 1)[0]
    ok = identical and fast_enough and first_line == b"# schema=planar-atom/v1"
    report_line(
        8,
        "CLI determinism and runtime",
        ok,
        f"byte-identical={identical}, wall {max(walls):.0f}s",
    )
