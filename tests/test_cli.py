import json
import math
import threading
import time
from dataclasses import replace

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
    def test_infinite_rho_max_is_usage_error(self, capsys, potential):
        # an infinite box used to reach linspace, which warned before the potential failed
        argv = ["solve", "--atom", "pe", "--potential", *potential, "--rho-max", "inf"]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "usage error: need 0 < rho_min < rho_max < inf\n"

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--lambda", "inf"], "lambda"),
            (["--lambda", "nan"], "lambda"),
            (["--mgamma-ev", "inf"], "photon mass"),
            (["--mgamma-ev", "nan"], "photon mass"),
        ],
    )
    def test_nonfinite_photon_mass_is_usage_error(self, capsys, flags, named):
        # an infinite mass used to be reported by K0, naming neither flag
        code = cli.main(["solve", "--atom", "pe", "--potential", "chern-simons", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert named in captured.err

    def test_bad_tolerance_is_checked_before_the_grid(self, capsys):
        # the tolerance is checked before the grid is built or swept
        argv = ["solve", "--atom", "pe", "--potential", "coulomb2d", "--tol", "nan", "--points", "4001"]
        code = cli.main(argv)
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
        code = cli.main(
            ["solve", "--atom", "pe", "--potential", "coulomb3d", "--ell", "1",
             "--rho-min", "1e-200"] + FAST
        )
        assert code == 1
        assert capsys.readouterr().err == "error: effective potential is not finite at rho=1e-200\n"

    @pytest.mark.parametrize("flags", [[], ["--points", "4002"]])
    def test_nonfinite_potential_warns_nothing_and_names_rho(self, capsys, flags):
        # (l^2 - 1/4)/rho^2 divides by zero at rho = 1e-200, on the quarter grid of the
        # default 100,001 points and on a grid that does not quarter. A numpy warning
        # would fail the test, and would print before the error line outside pytest
        argv = ["solve", "--atom", "pe", "--potential", "coulomb2d", "--rho-min", "1e-200"]
        code = cli.main(argv + flags)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: effective potential is not finite at rho=1e-200\n"

    @pytest.mark.parametrize("argv,expected", [
        # rho_min times K0's argument scale rounds to 0 on the first points; the
        # potential is finite there, and 4,001 points over 73 nats of ln rho are too
        # coarse at the box's edge for the 220 Ry deep level
        (["--atom", "pe", "--potential", "chern-simons", "--lambda", "1e-300",
          "--rho-min", "1e-30", "--points", "4001"], "error: grid too coarse for Numerov at rho="),
        # the argument scale itself is subnormal
        (["--atom", "pmu", "--potential", "chern-simons", "--lambda", "5e-324"],
         "usage error: lambda=4.94066e-324 underflows K0's argument scale"),
    ])
    def test_k0_argument_underflow_is_no_bessel_usage_error(self, capsys, argv, expected):
        code = cli.main(["solve"] + argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "bessel_k0" not in captured.err
        assert captured.err.startswith(expected) and captured.err.count("\n") == 1

    @pytest.mark.parametrize("exc", [
        OSError(12, "Cannot allocate memory"),
        OverflowError("Python int too large to convert to C ssize_t"),
    ])
    def test_scratch_block_that_cannot_be_mapped_is_solver_error(self, capsys, monkeypatch, exc):
        # a stand-in mmap refuses the 68.7 GB scratch block of 2**31 points; a real one
        # may map it and fail only when its pages are touched
        def refuse(*args, **kwargs):
            raise exc

        monkeypatch.setattr(nv.mmap, "mmap", refuse)
        argv = ["solve", "--atom", "pe", "--potential", "coulomb3d", "--points", "2147483648"]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(
            "error: cannot map 68719.7 MB of scratch memory for 2147483648 points: "
        )
        assert captured.err.count("\n") == 1

    def test_normalization_failure_is_solver_error(self, capsys, monkeypatch):
        monkeypatch.setattr(nv, "simpson_u2", lambda u, h, rho=None: math.nan)
        code = cli.main(["solve", "--atom", "pe", "--potential", "coulomb3d"] + FAST)
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: cannot normalize a zero or non-finite wavefunction\n"

    @pytest.mark.parametrize("ell", ["150", "175", "200"])
    def test_high_ell_ends_in_a_record(self, capsys, ell):
        # the outward seeds are phi = 1 and its series ratio, and the sweep rescales as
        # rho^(ell + 1/2) grows: no seed overflows at any ell, where rho_min^(ell + 1)
        # did from ell 131. Nothing is printed on stderr, no numpy warning either
        code = cli.main(["solve", "--atom", "pe", "--potential", "coulomb3d", "--ell", ell,
                         "--format", "json"])
        captured = capsys.readouterr()
        assert code in (0, 2) and captured.err == ""
        assert json.loads(captured.out)["converged"] is (code == 0)

    def test_huge_lambda_is_solver_error(self, capsys):
        # K0's argument lambda rho/(alpha sqrt(zeta)) passes a double on the default box,
        # where K0 is 0: the level lies above the bracket's top
        argv = ["solve", "--atom", "pe", "--potential", "chern-simons", "--lambda", "1e300"]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: state with 0 nodes not bracketed")
        assert captured.err.endswith("may not be bound\n") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("lam", ["8.3e305", "1.3e306"])
    def test_jordan_depth_estimate_overflow_is_solver_error(self, capsys, lam):
        # five times the jordan prefactor lambda/(pi alpha) passes a double; the grid
        # check used to divide by the rho_min of an infinite kappa
        argv = ["solve", "--atom", "pe", "--potential", "chern-simons-jordan", "--lambda", lam]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: the K0 well's depth estimate overflows a double")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_grid_past_the_state_is_solver_error(self, capsys):
        # pmu's 2D ground level decays over 1/27.3: rho_min = 0.032 starts the grid 0.872
        # decay lengths out, where a solve returned -742.675 Ry flagged converged (exact
        # -743.363)
        code = cli.main(["solve", "--atom", "pmu", "--potential", "coulomb2d", "--rho-min", "0.032"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: grid starts past the state: rho_min=0.032 is 0.872 decay lengths from the"
            " origin, above 0.01; use rho_min <= 0.000366775\n"
        )

    @pytest.mark.parametrize("flags,grid", [
        ([], (None, 60.0, 4001)),
        (["--points", "200001"], (None, 60.0, 200001)),
        (["--rho-max", "90"], (None, 90.0, 4001)),
        (["--rho-min", "0.0024"], (0.0024, 60.0, 4001)),
    ])
    def test_grid_flags_override_the_default_grid(self, capsys, flags, grid):
        # each flag sets its field; the default grid starts 1e-5 decay lengths out
        argv = ["solve", "--atom", "pe", "--potential", "chern-simons", "--lambda", "2e-6",
                "--ell", "2", "--format", "json", *flags]
        code, out = run(capsys, argv)
        payload = json.loads(out)
        problem = md.EffectivePotentialParams(
            md.PotentialSpec("chern_simons", 2e-6), md.make_atom("pe"), 2
        )
        # the record rounds to 12 significant digits
        rho_min = float(f"{grid[0] or nv.default_grid(problem, 0).rho_min:.12g}")
        assert code == 0 and payload["converged"] is True
        assert (payload["rho_min"], payload["rho_max"], payload["n_points"]) == (rho_min, *grid[1:])

    def test_unwritable_output_is_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code = cli.main(["solve", "--atom", "pe", "--potential", "coulomb3d", "--output", str(path)]
                        + FAST)
        assert code == 1
        assert capsys.readouterr().err == f"error: cannot write {path}: No such file or directory\n"

    def test_record_counts_search_work(self, capsys):
        # a 20,002-point grid does not quarter, so the search starts cold. No widening
        # here: at most two sweeps per shot and the returned end shot again
        argv = ["solve", "--atom", "pe", "--potential", "coulomb3d", "--format", "json"]
        code, out = run(capsys, argv + ["--rho-max", "40", "--points", "20002"])
        payload = json.loads(out)
        assert code == 0
        assert payload["energy_error_ry"] is None
        assert 2 <= payload["sweeps"] <= 2 * payload["iterations"] + 2

    def test_record_counts_every_level(self, capsys, shots):
        argv = ["solve", "--atom", "pe", "--potential", "coulomb3d", "--format", "json"]
        code, out = run(capsys, argv + FAST)
        payload = json.loads(out)
        assert code == 0
        assert list(payload)[-3:] == ["sweeps", "points_swept", "energy_error_ry"]
        sweeps = sweeps_per_grid(shots)
        # 20,001 points quarter twice: the cascade solves on 1,251, 5,001 and 20,001
        assert sweeps.keys() == {20001, 5001, 1251}
        # the search on the grid is bounded as a cold one is; `iterations` counts its steps
        assert 2 <= sweeps[20001] <= 2 * payload["iterations"] + 2
        # the coarsest level's search starts cold (14 sweeps on this state, as many as
        # the cold search on the 20,002-point grid above); the level above it is warm
        # (6 sweeps)
        assert sweeps[1251] <= 16
        assert sweeps[5001] <= 8
        assert payload["sweeps"] == sum(sweeps.values())
        assert payload["points_swept"] <= sum(n * k for n, k in sweeps.items())
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

    def test_nonconverged_json_when_defect_misses(self, capsys, monkeypatch):
        # the bracket closes on a level whose defect misses DEFECT_TOL, here set
        # below any defect
        monkeypatch.setattr(nv, "DEFECT_TOL", 0.0)
        argv = ["solve", "--atom", "pmu", "--potential", "coulomb3d"] + FAST
        code, out = run(capsys, argv + ["--format", "json"])
        assert code == 2
        assert json.loads(out)["converged"] is False
        code, out = run(capsys, argv)
        assert code == 2
        header, row = out.splitlines()[1:3]
        assert dict(zip(header.split(","), row.split(",")))["converged"] == "false"

    def test_grid_too_coarse_at_the_box_edge_is_solver_error(self, capsys):
        # h = 9.4e-3 in ln rho is 0.94 pmu decay lengths at rho = 100: f < 0 on the
        # outermost rows. This solve used to end on a one-node level at -171.44 Ry
        # with exit 2, after 55 shots
        code = cli.main(["solve", "--atom", "pmu", "--potential", "coulomb3d", "--rho-max", "100",
                         "--points", "2001"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: grid too coarse for Numerov at rho=")
        assert captured.err.endswith("; use more points or a smaller rho_max\n")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("potential,nodes", [
        (["coulomb2d"], "9"),
        (["chern-simons", "--lambda", "2e-5"], "13"),
    ])
    def test_many_node_2d_levels_converge_on_default_grids(self, capsys, potential, nodes):
        # a default 2D grid that started 80 steps out reached past such a level's
        # inner lobes, and the CLI refused it
        argv = ["solve", "--atom", "pe", "--potential", *potential, "--nodes", nodes,
                "--format", "json"]
        code, out = run(capsys, argv)
        payload = json.loads(out)
        assert code == 0 and payload["converged"] is True and payload["nodes"] == int(nodes)

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


class TestWavefunctionOutput:
    """The CSV that ``solve --wavefunction-output`` writes."""

    @staticmethod
    def solve(tmp_path, argv):
        path = tmp_path / "wf.csv"
        code = cli.main(["solve", *argv, "--output", str(tmp_path / "rec.csv"),
                         "--wavefunction-output", str(path)])
        return code, path.read_text()

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

    def test_2d_ground_state_profile(self, tmp_path):
        code, out = self.solve(
            tmp_path, ["--atom", "pe", "--potential", "coulomb2d", "--points", "20001"]
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

    def test_3d_peak_position(self, tmp_path):
        code, out = self.solve(
            tmp_path, ["--atom", "pe", "--potential", "coulomb3d", "--points", "20001"]
        )
        meta, rho, u = self.parse(out)
        k = np.argmax(u)
        expected = 1.0 / md.make_atom("pe").sqrt_zeta
        # the points are evenly spaced in ln rho, not in rho
        assert rho[k] == pytest.approx(expected, abs=4 * (rho[k + 1] - rho[k]))

    def test_muonic_peak_smaller_in_bohr_units(self, tmp_path):
        peaks = {}
        for atom in ("pe", "pmu"):
            _, out = self.solve(
                tmp_path,
                ["--atom", atom, "--potential", "chern-simons", "--lambda", "2e-5",
                 "--points", "40001"],
            )
            meta, rho, u = self.parse(out)
            zeta = md.make_atom(atom).zeta
            peaks[atom] = rho[np.argmax(u)] / math.sqrt(zeta)
        assert peaks["pmu"] < peaks["pe"]

    def test_csv_whatever_the_record_format(self, tmp_path):
        # --format names the record's format; the samples are always CSV
        path = tmp_path / "wf.csv"
        argv = ["solve", "--atom", "pe", "--potential", "coulomb3d", "--format", "json",
                "--output", str(tmp_path / "rec.json"), "--wavefunction-output", str(path)]
        assert cli.main(argv + FAST) == 0
        record = json.loads((tmp_path / "rec.json").read_text())
        lines = path.read_text().splitlines()
        assert lines[:2] == [
            "# schema=planar-atom/v1",
            "# atom=pe potential=coulomb3d lambda= ell=0 nodes=0",
        ]
        assert lines[2] == f"# energy_ry={record['energy_ry']:.12g} converged=true"
        assert lines[3] == "rho,u"
        assert len(lines) - 4 == record["n_points"]


class TestCommandSet:
    """solve, table and report are the commands; each reads only its own flags."""

    @pytest.mark.parametrize("command", ["wavefunction", "scan-potential", "k0"])
    def test_unknown_command_is_usage_error(self, capsys, command):
        code = cli.main([command, "--atom", "pe", "--potential", "coulomb3d"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage error: argument command: invalid choice: ")
        assert command in captured.err

    @pytest.mark.parametrize(
        "flag",
        [["--x", "1"], ["--rho-start", "1"], ["--rho-stop", "2"], ["--scan-points", "3"]],
    )
    def test_solve_rejects_foreign_flags(self, capsys, flag):
        code = cli.main(["solve", "--atom", "pe", "--potential", "coulomb3d"] + flag)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"usage error: unrecognized arguments: {' '.join(flag)}\n"

    @pytest.mark.parametrize("command", [["table", "energies"], ["report"]])
    def test_tables_reject_state_flags(self, capsys, command):
        code = cli.main(command + ["--atom", "pe", "--output", "-"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "usage error: unrecognized arguments: --atom pe\n"


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
            ["solve", "--atom", "pe", "--potential", "chern-simons", "--lambda", "2e-5"] + FAST,
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
        # the rows are the reference file's ell-states rows, in file order
        assert [(r["atom"], r["potential"], r["lambda"], r["ell"]) for r in payload["rows"]] == [
            key[1:] for key in cli.load_published_tables() if key[0] == "ell_states"
        ]


class TestReportMarkdown:
    """``md``, the report's default format, on two synthetic rows: nothing is solved."""

    ROWS = [
        {"section": "energies", "atom": "pe", "potential": "chern-simons", "lambda": 2e-6,
         "quantity": "energy_ry", "published_value": -2.2417, "computed": -2.24176543210987,
         "closed_form": None, "jordan_variant": -0.0123456789012345,
         "jordan_prefactor_ratio": 0.5, "deviation": -6.543210987e-05, "flag": "match"},
        {"section": "radii", "atom": "pmu", "potential": "coulomb3d", "lambda": None,
         "quantity": "mean_r_bohr", "published_value": 0.0081, "computed": 0.00807128,
         "closed_form": 0.00807130000001, "jordan_variant": None,
         "jordan_prefactor_ratio": None, "deviation": -2.872e-05,
         "flag": "paper-numerical-error"},
    ]
    HEADER = (
        "| atom | potential | lambda | published | computed | closed form "
        "| jordan variant | jordan prefactor ratio | flag |\n"
        "|---|---|---|---|---|---|---|---|---|\n"
    )
    TEXT = (
        "# Reference-versus-recomputed discrepancy report\n"
        "\n"
        "Flags: `match` (within 0.5%), `paper-numerical-error` (within 5%, consistent with "
        "the reference pipeline's quoted accuracy), `unresolved` (structural disagreement). "
        "The closed-form column adjudicates where an exact spectrum exists; the jordan column "
        "shows the weaker-prefactor variant of the massive-photon potential.\n"
        "\n"
        "## energies\n"
        "\n"
        + HEADER
        + "| pe | chern-simons | 2e-06 | -2.2417 | -2.24176543211 |  | -0.0123456789012 | 0.5 "
        "| match |\n"
        "\n"
        "## radii\n"
        "\n"
        + HEADER
        + "| pmu | coulomb3d |  | 0.0081 | 0.00807128 | 0.00807130000001 |  |  "
        "| paper-numerical-error |\n"
        "\n"
    )

    def test_emit_writes_both_sections(self, capsys):
        cli._emit("md", "-", self.ROWS)
        assert capsys.readouterr().out == self.TEXT

    def test_report_command_defaults_to_markdown(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_build_report", lambda: self.ROWS)
        assert run(capsys, ["report", "--output", "-"]) == (0, self.TEXT)


class TestSolveStates:
    def test_ell_states_match_sequential_solves(self):
        # each row pinned to its default grid, as --points pins it: both sides solve on it
        reqs = [req for req, _ in cli._reference_rows("ell_states")]
        pinned = {
            req: replace(req, n_points=nv.default_grid(req.problem(), req.nodes).n_points)
            for req in reqs
        }
        sequential = {}
        for req in reqs:
            problem = req.problem()
            result, wf = nv.solve_state(problem, req.nodes, grid=nv.default_grid(problem, req.nodes))
            sequential[req] = result, mean_radius(wf, problem)
        solved = cli._solve_states(pinned.values())
        concurrent = {req: solved[pinned[req]] for req in reqs}
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

    def test_solves_in_the_calling_thread(self, capsys, monkeypatch):
        idents = set()
        solve = cli.solve_state

        def recording(*args, **kwargs):
            idents.add(threading.get_ident())
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_state", recording)
        for argv in (["table", "ell-states"], ["report", "--format", "csv"]):
            assert cli.main(argv + ["--output", "-"]) == 0
        capsys.readouterr()
        assert idents == {threading.get_ident()}
