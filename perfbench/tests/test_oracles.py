"""The benchmark's reference computations and the checks built on them."""

import math

import pytest

import oracles
import workloads
from workloads import State, TableCommand


@pytest.mark.parametrize(
    "dim, atom, nodes, ell",
    [(3, "pe", 0, 0), (3, "pmu", 1, 1), (3, "tmu", 3, 2), (2, "pe", 0, 0), (2, "dmu", 2, 1), (2, "te", 3, 2)],
)
def test_coulomb_closed_forms_match_log_grid(dim, atom, nodes, ell):
    e = oracles.coulomb_energy(dim, atom, nodes, ell)
    st = oracles.solve_log_grid(oracles.coulomb_radial(dim, atom, ell), nodes, 1.01 * e)
    assert st.nodes == nodes
    assert st.energy == pytest.approx(e, rel=1e-8)
    radius = st.mean_rho / math.sqrt(oracles.zeta(atom))
    assert radius == pytest.approx(oracles.coulomb_mean_radius(dim, atom, nodes, ell), rel=1e-8)


def test_textbook_radii():
    # hydrogen with an infinitely heavy nucleus: <r> = 1.5 (1s), 5 (2p), 0.5 (2D ground)
    z = oracles.zeta("pe")
    assert oracles.coulomb_mean_radius(3, "pe", 0, 0) * z == pytest.approx(1.5)
    assert oracles.coulomb_mean_radius(3, "pe", 0, 1) * z == pytest.approx(5.0)
    assert oracles.coulomb_mean_radius(2, "pe", 0, 0) * z == pytest.approx(0.5)
    assert oracles.coulomb_energy(2, "pe", 0, 0) / z == pytest.approx(-4.0)


def test_k0_state_converges_with_step():
    radial = oracles.cs_radial("chern_simons", "pe", 2e-4, 0)
    coarse = oracles.solve_log_grid(radial, 0, -0.8, step=4e-3)
    fine = oracles.solve_log_grid(radial, 0, -0.8, step=1e-3)
    assert coarse.nodes == fine.nodes == 0
    assert coarse.energy == pytest.approx(fine.energy, rel=1e-9)
    assert coarse.mean_rho == pytest.approx(fine.mean_rho, rel=1e-8)


def test_k0_state_log_shift():
    states = [
        oracles.solve_log_grid(oracles.cs_radial("chern_simons", "tmu", lam, 1), 0, -2.5)
        for lam in (2e-6, 6e-6)
    ]
    shift = states[1].energy - states[0].energy
    bound = sum(
        oracles.log_shift_error_bound("tmu", lam, s.mean_rho, s.mean_rho2)
        for lam, s in zip((2e-6, 6e-6), states)
    )
    assert bound < 1e-5
    assert abs(shift - oracles.log_shift(2e-6, 6e-6)) < bound


def test_level_found_from_a_guess_near_another_level():
    radial = oracles.cs_radial("chern_simons", "pe", 2e-4, 0)
    ground = oracles.solve_log_grid(radial, 0, -0.8)
    excited = oracles.solve_log_grid(radial, 1, ground.energy)
    assert excited.nodes == 1 and excited.energy > ground.energy + 0.1
    again = oracles.solve_log_grid(radial, 0, excited.energy)
    assert again.energy == pytest.approx(ground.energy, rel=1e-9)


def test_checks_flag_perturbed_values():
    state = State("coulomb3d", "pmu", None, 1, 1)
    e = oracles.coulomb_energy(3, "pmu", 1, 1)
    r = oracles.coulomb_mean_radius(3, "pmu", 1, 1)
    assert workloads.check_coulomb(state, e, r) == []
    assert workloads.check_coulomb(state, e * (1 + 1e-5), r)
    assert workloads.check_coulomb(state, e, r * (1 + 1e-4))

    cs = State("chern_simons", "pe", 2e-4, 0, 0)
    ref = oracles.solve_log_grid(oracles.cs_radial(cs.kind, cs.atom, cs.lam, 0), 0, -0.8)
    r_ref = ref.mean_rho / math.sqrt(oracles.zeta("pe"))
    assert workloads.check_massive_photon(cs, ref.energy, r_ref)[0] == []
    assert workloads.check_massive_photon(cs, ref.energy * (1 + 1e-5), r_ref)[0]
    assert workloads.check_massive_photon(cs, ref.energy, r_ref * (1 + 1e-4))[0]


def _ell_table_rows(delta=0.0):
    rows = []
    for atom, token, lam, ell in workloads.ELL_ROWS:
        radial = oracles.cs_radial("chern_simons", atom, lam, ell)
        st = oracles.solve_log_grid(radial, 0, -2.0)
        e = st.energy + delta
        rows.append({
            "atom": atom, "potential": token, "lambda": lam, "ell": ell, "nodes": 0,
            "energy_ry": e, "mean_r_bohr": st.mean_rho / math.sqrt(oracles.zeta(atom)),
            "published_value": -1.0, "deviation": e + 1.0,
        })
    return rows


def test_table_checks():
    wl = workloads.PaperTables(0, None)
    assert wl._check_rows("ell-states", _ell_table_rows()) == []
    assert wl._check_rows("ell-states", _ell_table_rows(delta=1e-4))
    rows = _ell_table_rows()
    rows[0]["deviation"] += 1e-6
    assert wl._check_rows("ell-states", rows)
    assert wl._check_rows("ell-states", _ell_table_rows()[::-1])


def test_parse_table_formats():
    csv_text = (
        "# schema=planar-atom/v1\n"
        "atom,potential,lambda,ell,nodes,energy_ry,mean_r_bohr,published_value,deviation\n"
        "pe,coulomb3d,,0,0,-0.99945,1.5008,,\n"
    )
    (row,) = workloads.parse_table("csv", csv_text)
    assert row["lambda"] is None and row["energy_ry"] == -0.99945
    with pytest.raises(ValueError):
        workloads.parse_table("csv", csv_text.replace("# schema=planar-atom/v1", "# other"))
    with pytest.raises(ValueError):
        workloads.parse_table("json", '{"rows": []}')


def test_log_shift_check_flags_wrong_pair():
    wl = workloads.CsConcurrent(0, None)

    def record(client, lam, energy):
        st = State("chern_simons", "tmu", lam, 0, 0)
        return workloads.Record(client, 0, st, 0.0, 1.0, workloads.Solved(energy, True, 0, 0.0))

    radial = [oracles.cs_radial("chern_simons", "tmu", lam, 0) for lam in (2e-6, 2e-5)]
    e1, e2 = (oracles.solve_log_grid(r, 0, -3.0).energy for r in radial)
    # radii set to 0 only fail the radius checks; the shift check is separate
    good = [e for e in wl.check([record(0, 2e-6, e1), record(1, 2e-5, e2)]) if "shift" in e]
    bad = [e for e in wl.check([record(0, 2e-6, e1), record(1, 2e-5, e2 + 1e-3)]) if "shift" in e]
    assert good == [] and len(bad) == 1


def test_inputs_depend_only_on_seed():
    a, b = workloads.CsConcurrent(5, None), workloads.CsConcurrent(5, None)
    assert list(a.rounds(0)) == list(b.rounds(0))
    assert list(a.rounds(0)) != list(workloads.CsConcurrent(6, None).rounds(0))
    ce = workloads.CoulombExcited(5, None)
    states = [s for rnd in ce.rounds(0) for s in rnd]
    assert len(set(states)) == len(states) == 108
    kinds = {tuple(s.kind for s in rnd) for rnd in ce.rounds(0)}
    assert kinds == {("coulomb3d", "coulomb2d", "coulomb2d")}
    pt = workloads.PaperTables(5, None)
    assert sorted(c.which for c in next(pt.rounds(0))) == ["ell-states", "radii"]
    assert all(isinstance(c, TableCommand) for c in next(pt.rounds(0)))
