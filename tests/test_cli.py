import json
import math
import time

import numpy as np
import pytest

from conftest import sweeps_per_grid
from planaratom import cli, model as md
from planaratom import numerov as nv
from planaratom.observables import mean_radius

FAST = ["--rho-max", "40", "--points", "20001"]


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


class TestK0Command:
    def test_csv(self, capsys):
        code, out = run(capsys, ["k0", "--x", "1.0"])
        assert code == 0
        assert out == (
            "# schema=planar-atom/v1\n"
            "x,k0,regime,underflow\n"
            "1,0.421024438241,series,false\n"
        )
        cells = out.splitlines()[2].split(",")
        assert float(cells[1]) == pytest.approx(0.4210244382407083, rel=1e-12)

    def test_json_underflow(self, capsys):
        code, out = run(capsys, ["k0", "--x", "701", "--format", "json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == "planar-atom/v1"
        assert payload["k0"] == 0.0
        assert payload["underflow"] is True
        assert payload["regime"] == "asymptotic"
        assert out == (
            "{\n"
            '  "schema": "planar-atom/v1",\n'
            '  "x": 701.0,\n'
            '  "k0": 0.0,\n'
            '  "regime": "asymptotic",\n'
            '  "underflow": true\n'
            "}\n"
        )


class TestSolveCommand:
    def test_converged_exit_zero(self, capsys):
        code, out = run(
            capsys, ["solve", "--atom", "pe", "--potential", "coulomb3d"] + FAST
        )
        assert code == 0
        header, row = out.splitlines()[1:3]
        rec = dict(zip(header.split(","), row.split(",")))
        assert rec["converged"] == "true"
        assert float(rec["energy_ry"]) == pytest.approx(-0.99946, rel=1e-4)
        assert float(rec["mean_r_bohr"]) == pytest.approx(1.5008, rel=1e-3)

    def test_json_format(self, capsys):
        code, out = run(
            capsys,
            ["solve", "--atom", "pe", "--potential", "coulomb3d", "--format", "json"] + FAST,
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == "planar-atom/v1"
        assert payload["converged"] is True

    def test_missing_lambda_is_usage_error(self, capsys):
        code = cli.main(["solve", "--atom", "pe", "--potential", "chern-simons"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--lambda" in err

    def test_lambda_with_coulomb_is_usage_error(self, capsys):
        code = cli.main(
            ["solve", "--atom", "pe", "--potential", "coulomb3d", "--lambda", "2e-5"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "--lambda" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["solve", "--atom", "pe", "--nonsense"]) == 1

    def test_unknown_potential_token(self, capsys):
        code = cli.main(["solve", "--atom", "pe", "--potential", "coulomb4d"])
        assert code == 1
        assert "--potential" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_not_positive_and_finite_is_usage_error(self, capsys, tol):
        # a NaN tolerance used to reach the sweeps and fail there as a solver error
        code = cli.main(["solve", "--atom", "pe", "--potential", "coulomb3d", f"--tol={tol}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "usage error: bisection_tol must be positive and finite\n"

    @pytest.mark.parametrize("potential", [["coulomb3d"], ["chern-simons", "--lambda", "2e-5"]])
    def test_negative_nodes_is_usage_error(self, capsys, potential):
        # the default grid is built before the solver checks the node target: a
        # Coulomb kind divided by zero there, a K0 kind sized a box of zero
        code = cli.main(["solve", "--atom", "pe", "--potential", *potential, "--nodes", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "usage error: node_target must be non-negative\n"

    def test_coarse_grid_is_solver_error(self, capsys):
        # h ~ 1000: f = 1 + h^2 g / 12 turns negative past the turning point
        code = cli.main(
            ["solve", "--atom", "pe", "--potential", "coulomb3d",
             "--points", "1000", "--rho-max", "1e6"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: grid too coarse for Numerov at rho=")

    def test_degenerate_seed_is_solver_error(self, capsys, monkeypatch):
        def degenerate(*args, **kwargs):
            raise nv.DegenerateSeedError("both sweeps vanish at the matching point")

        monkeypatch.setattr(cli, "solve_state", degenerate)
        code = cli.main(["solve", "--atom", "pe", "--potential", "coulomb3d"])
        assert code == 1
        assert capsys.readouterr().err == "error: both sweeps vanish at the matching point\n"

    def test_nonfinite_potential_is_solver_error(self, capsys):
        # l(l+1)/rho^2 overflows at rho = 1e-200
        with np.errstate(divide="ignore", over="ignore"):
            code = cli.main(
                ["solve", "--atom", "pe", "--potential", "coulomb3d", "--ell", "1",
                 "--rho-min", "1e-200"] + FAST
            )
        assert code == 1
        assert capsys.readouterr().err == "error: effective potential is not finite on the grid\n"

    def test_normalization_failure_is_solver_error(self, capsys, monkeypatch):
        monkeypatch.setattr(nv, "simpson", lambda y, dx: math.nan)
        code = cli.main(["solve", "--atom", "pe", "--potential", "coulomb3d"] + FAST)
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: cannot normalize a zero or non-finite wavefunction\n"

    def test_unwritable_output_is_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code = cli.main(["k0", "--x", "1", "--output", str(path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: cannot write {path}: No such file or directory\n"

    def test_record_counts_search_work(self, capsys):
        # a 20,002-point grid does not quarter, so the search starts cold. No widening
        # here: two bracket ends, one end shot again at the fixed match index and at
        # most two sweeps per search step
        argv = ["solve", "--atom", "pe", "--potential", "coulomb3d", "--format", "json"]
        code, out = run(capsys, argv + ["--rho-max", "40", "--points", "20002"])
        payload = json.loads(out)
        assert code == 0
        assert payload["energy_error_ry"] is None
        assert 2 <= payload["sweeps"] <= 2 * payload["iterations"] + 6

    def test_record_counts_both_stages(self, capsys, shots):
        argv = ["solve", "--atom", "pe", "--potential", "coulomb3d", "--format", "json"]
        code, out = run(capsys, argv + FAST)
        payload = json.loads(out)
        assert code == 0
        assert list(payload)[-3:] == ["sweeps", "points_swept", "energy_error_ry"]
        sweeps = sweeps_per_grid(shots)
        assert sweeps.keys() == {20001, 5001}
        # the search on the grid is bounded as a cold one is; `iterations` counts its steps
        assert 2 <= sweeps[20001] <= 2 * payload["iterations"] + 6
        # the quarter grid's search starts cold (21 sweeps on this state, as many as
        # the cold search on the 20,002-point grid above)
        assert sweeps[5001] <= 24
        assert payload["sweeps"] == sweeps[20001] + sweeps[5001]
        assert payload["points_swept"] <= sweeps[20001] * 20001 + sweeps[5001] * 5001
        # the 20,001-point grid quarters, so the record carries an error estimate
        assert abs(payload["energy_error_ry"]) < 1e-8

    def test_nonconverged_exit_two(self, capsys):
        argv = ["solve", "--atom", "pe", "--potential", "coulomb3d", "--tol", "1e-300"] + FAST
        code, out = run(capsys, argv)
        assert code == 2
        header, row = out.splitlines()[1:3]
        rec = dict(zip(header.split(","), row.split(",")))
        assert rec["converged"] == "false"
        code, out = run(capsys, argv + ["--format", "json"])
        assert code == 2
        assert json.loads(out)["converged"] is False

    def test_nonconverged_json_when_defect_misses(self, capsys):
        # the bracket closes (width 3e-14) on a one-node level whose defect (1.45)
        # misses DEFECT_TOL: h = 0.05 is 6.7 pmu Bohr radii
        argv = ["solve", "--atom", "pmu", "--potential", "coulomb3d", "--rho-max", "100",
                "--points", "2001"]
        code, out = run(capsys, argv + ["--format", "json"])
        assert code == 2
        assert json.loads(out)["converged"] is False
        code, out = run(capsys, argv)
        assert code == 2
        header, row = out.splitlines()[1:3]
        assert dict(zip(header.split(","), row.split(",")))["converged"] == "false"

    @pytest.mark.parametrize("points, reach", [("20001", "4.36"), ("100001", "0.872")])
    def test_grid_past_the_state_is_solver_error(self, capsys, points, reach):
        # pmu's 2D ground level decays over 1/27.3: rho_min = 80 h = 0.16 (or 0.032)
        # starts the grid 4.36 (0.872) decay lengths out, where the solve returned
        # -323.8 Ry unconverged (-742.675 Ry flagged converged; exact -743.363)
        code = cli.main(
            ["solve", "--atom", "pmu", "--potential", "coulomb2d", "--rho-max", "40",
             "--points", points]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: grid starts past the state: rho_min={float(80 * 40 / (int(points) - 1)):.6g}"
            f" is {reach} decay lengths from the origin, above 0.5; use rho_min <= 0.0183387,"
            " which with rho_max=40 takes at least 174496 points\n"
        )

    def test_mgamma_ev_conversion(self, capsys):
        code, out = run(
            capsys,
            [
                "solve", "--atom", "pe", "--potential", "chern-simons",
                "--mgamma-ev", "10", "--rho-max", "60", "--points", "20001",
            ],
        )
        assert code == 0
        header, row = out.splitlines()[1:3]
        rec = dict(zip(header.split(","), row.split(",")))
        assert float(rec["lambda"]) == pytest.approx(10.0 / 510998.95, rel=1e-10)

    def test_mgamma_and_lambda_conflict(self, capsys):
        code = cli.main(
            [
                "solve", "--atom", "pe", "--potential", "chern-simons",
                "--lambda", "2e-5", "--mgamma-ev", "10",
            ]
        )
        assert code == 1

    def test_deterministic_output(self, capsys):
        argv = ["solve", "--atom", "pe", "--potential", "coulomb3d"] + FAST
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second


class TestScanPotential:
    def test_coulomb_values(self, capsys):
        code, out = run(
            capsys,
            [
                "scan-potential", "--atom", "pe", "--potential", "coulomb3d",
                "--rho-start", "1", "--rho-stop", "2", "--scan-points", "2",
            ],
        )
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith(("#", "rho"))]
        zeta = md.make_atom("pe").zeta
        assert float(rows[0][1]) == pytest.approx(-2.0 * math.sqrt(zeta), rel=1e-11)
        assert float(rows[1][1]) == pytest.approx(-math.sqrt(zeta), rel=1e-11)

    def test_k0_column_below_centrifugal_only(self, capsys):
        code, out = run(
            capsys,
            [
                "scan-potential", "--atom", "pe", "--potential", "chern-simons",
                "--lambda", "2e-5", "--ell", "1",
                "--rho-start", "0.5", "--rho-stop", "20", "--scan-points", "40",
            ],
        )
        rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith(("#", "rho"))]
        for r, v in ((float(a), float(b)) for a, b in rows):
            assert v < (1.0 - 0.25) / (r * r)

    def test_lambda_ordering(self, capsys):
        vals = []
        for lam in ("2e-6", "2e-5", "2e-4"):
            _, out = run(
                capsys,
                [
                    "scan-potential", "--atom", "pe", "--potential", "chern-simons",
                    "--lambda", lam, "--rho-start", "3", "--rho-stop", "4",
                    "--scan-points", "2",
                ],
            )
            rows = [ln for ln in out.splitlines() if not ln.startswith(("#", "rho"))]
            vals.append(float(rows[0].split(",")[1]))
        assert vals[0] < vals[1] < vals[2]

    def test_exact_text(self, capsys):
        code, out = run(
            capsys,
            [
                "scan-potential", "--atom", "pe", "--potential", "coulomb3d",
                "--rho-start", "1", "--rho-stop", "2", "--scan-points", "3",
            ],
        )
        assert code == 0
        assert out == (
            "# schema=planar-atom/v1\n"
            "# atom=pe potential=coulomb3d lambda= ell=0\n"
            "rho,u_eff\n"
            "1,-1.99945560533\n"
            "1.5,-1.33297040356\n"
            "2,-0.999727802667\n"
        )

    @pytest.mark.parametrize(
        "flag",
        [
            ["--format", "json"], ["--nodes", "1"], ["--rho-min", "7"],
            ["--rho-max", "9"], ["--points", "5"], ["--tol", "1"],
        ],
    )
    def test_solver_and_format_flags_rejected(self, capsys, flag):
        code = cli.main(
            [
                "scan-potential", "--atom", "pe", "--potential", "coulomb3d",
                "--rho-start", "1", "--rho-stop", "2", "--scan-points", "3",
            ]
            + flag
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage error: unrecognized arguments: " + flag[0])

    def test_bad_range(self, capsys):
        code = cli.main(
            [
                "scan-potential", "--atom", "pe", "--potential", "coulomb3d",
                "--rho-start", "2", "--rho-stop", "1",
            ]
        )
        assert code == 1


class TestWavefunctionCommand:
    def parse(self, out):
        meta = [ln for ln in out.splitlines() if ln.startswith("#")]
        rows = [
            ln.split(",")
            for ln in out.splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("rho")
        ]
        rho = np.array([float(r[0]) for r in rows])
        u = np.array([float(r[1]) for r in rows])
        return meta, rho, u

    def test_2d_ground_state_profile(self, capsys):
        code, out = run(
            capsys,
            ["wavefunction", "--atom", "pe", "--potential", "coulomb2d", "--points", "20001"],
        )
        assert code == 0
        meta, rho, u = self.parse(out)
        assert meta[:2] == [
            "# schema=planar-atom/v1",
            "# atom=pe potential=coulomb2d lambda= ell=0 nodes=0",
        ]
        energy, converged = meta[2].removeprefix("# ").split(" ")
        assert float(energy.removeprefix("energy_ry=")) == pytest.approx(-3.9978, rel=1e-4)
        assert converged == "converged=true"
        assert out.splitlines()[3] == "rho,u"
        assert np.all(u > -1e-12)  # nodeless, positive by convention
        assert np.count_nonzero(u > 0) > len(u) // 2

    def test_format_flag_rejected(self, capsys):
        code = cli.main(
            ["wavefunction", "--atom", "pe", "--potential", "coulomb2d", "--format", "json"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage error: unrecognized arguments: --format")

    def test_3d_peak_position(self, capsys):
        code, out = run(
            capsys,
            ["wavefunction", "--atom", "pe", "--potential", "coulomb3d", "--points", "20001"],
        )
        meta, rho, u = self.parse(out)
        peak = rho[np.argmax(u)]
        expected = 1.0 / md.make_atom("pe").sqrt_zeta
        assert peak == pytest.approx(expected, abs=4 * (rho[1] - rho[0]))

    def test_muonic_peak_smaller_in_bohr_units(self, capsys):
        peaks = {}
        for atom in ("pe", "pmu"):
            _, out = run(
                capsys,
                [
                    "wavefunction", "--atom", atom, "--potential", "chern-simons",
                    "--lambda", "2e-5", "--points", "40001",
                ],
            )
            meta, rho, u = self.parse(out)
            zeta = md.make_atom(atom).zeta
            peaks[atom] = rho[np.argmax(u)] / math.sqrt(zeta)
        assert peaks["pmu"] < peaks["pe"]


class TestFixturesAndFlags:
    def test_published_table_values(self):
        pub = cli.load_published_tables()
        assert pub[("energies", "te", "coulomb2d", None, 0)] == -2.1
        assert pub[("radii", "pmu", "chern-simons", 2e-5, 0)] == 0.188879
        assert pub[("ell_states", "pmu", "chern-simons", 2e-6, 2)] == -2.783
        assert pub[("energies", "pe", "chern-simons", 2e-6, 0)] == -2.2417

    def test_flag_classification(self):
        # reference 3D hydrogen value carries its quoted ~1.7% integration error
        assert cli._flag_for(-0.9833, -0.99946, -0.99946) == "paper-numerical-error"
        # reference 2D Coulomb column disagrees structurally with the closed form
        assert cli._flag_for(-2.1, -3.9978, -3.9978) == "unresolved"
        assert cli._flag_for(-185.8, -185.84, -185.84083) == "match"
        assert cli._flag_for(None, -1.0, None) == ""

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "rec.csv"
        code = cli.main(
            ["solve", "--atom", "pe", "--potential", "coulomb3d", "--output", str(target)]
            + FAST
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("# schema=planar-atom/v1\n")


class TestJsonMirrorsCsv:
    """JSON field names are the CSV header, in the same order."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--atom", "pe", "--potential", "coulomb3d"] + FAST,
            ["k0", "--x", "2.5"],
        ],
    )
    def test_single_record(self, capsys, argv):
        _, csv_out = run(capsys, argv)
        _, json_out = run(capsys, argv + ["--format", "json"])
        header = csv_out.splitlines()[1].split(",")
        assert list(json.loads(json_out)) == ["schema"] + header

    def test_table_rows(self, capsys):
        argv = ["table", "ell-states", "--output", "-"]
        _, csv_out = run(capsys, argv)
        _, json_out = run(capsys, argv + ["--format", "json"])
        header = csv_out.splitlines()[1].split(",")
        payload = json.loads(json_out)
        assert list(payload) == ["schema", "table", "version", "rows"]
        assert len(payload["rows"]) == len(csv_out.splitlines()) - 2
        for rec in payload["rows"]:
            assert list(rec) == header


class TestConcurrentTables:
    def test_ell_states_match_sequential_solves(self):
        keys = cli._state_keys("ell_states")
        sequential = {}
        for key in keys:
            req = cli.RunRequest(*key)
            problem = req.problem()
            result, wf = nv.solve_state(problem, req.nodes, grid=req.grid(problem))
            sequential[key] = result, mean_radius(wf, problem)
        concurrent = cli._solve_states(keys)
        assert cli._build_table("ell_states", concurrent) == cli._build_table(
            "ell_states", sequential
        )

    def test_first_failing_row_in_row_order_is_reported(self, capsys, monkeypatch):
        # pe ell 2 (row 2) fails after pmu ell 2 (row 4) has failed: the error of
        # row 2 is printed, as when the rows were solved one after another
        solve = cli.solve_state

        def failing(problem, node_target=0, **kwargs):
            if problem.ell == 2:
                if problem.atom.name == "pe":
                    time.sleep(0.5)
                raise nv.SolverError(f"{problem.atom.name} ell={problem.ell} failed")
            return solve(problem, node_target, **kwargs)

        monkeypatch.setattr(cli, "solve_state", failing)
        code = cli.main(["table", "ell-states", "--output", "-"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: pe ell=2 failed\n"
