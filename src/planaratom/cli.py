"""Command-line front end.

Subcommands: ``solve`` (one state), ``table energies|radii|ell-states``
(reproduce the embedded reference tables with deviations), ``scan-potential``
and ``wavefunction`` (plot-ready CSV), ``report`` (side-by-side discrepancy
report), ``k0`` (Bessel debug).

Exit codes: 0 success, 1 usage error (``usage error:``) or solver failure
(``error:``: a state not bracketed, degenerate matching or a grid too coarse
for Numerov), 2 solver did not converge (record is still written). Output
is deterministic: fixed column orders, floats at 12 significant digits, no
timestamps.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from importlib import resources

from . import __version__
from .model import (
    ATOM_NAMES,
    CHERN_SIMONS_KINDS,
    POTENTIAL_TOKENS,
    EffectivePotentialParams,
    PotentialSpec,
    effective_potential,
    jordan_variant_gap,
    lambda_from_ev,
    make_atom,
)
from .numerov import (
    RadialGrid,
    SolverConfig,
    SolverError,
    closed_form_energy,
    default_grid,
    solve_state,
)
from .observables import mean_radius
from .specfun import bessel_k0_eval

SCHEMA = "planar-atom/v1"

TABLE_LAMBDAS = (2e-6, 2e-5, 2e-4)
RADII_LAMBDA = 2e-5
ELL_LAMBDA = 2e-6

# Flag thresholds for the discrepancy report: relative deviations at or
# under MATCH_TOL count as agreement; under NUMERICS_TOL they are
# attributed to the reference pipeline's own integration accuracy; larger
# gaps stay unresolved.
MATCH_TOL = 0.005
NUMERICS_TOL = 0.05

_MGAMMA_HELP = (
    "photon topological mass ranges quoted for superconducting systems: "
    "conventional type I (Al, In, Sn, Pb, Nb) 0.1-1 eV; "
    "alloys (Pb-In, Nb-Ti, Nb-N, Pb-Bi) 2-10 eV; "
    "high-temperature type II 10-20 eV"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse subclass mapping usage errors to exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _fmt(value) -> str:
    """Deterministic 12-significant-digit float formatting."""
    if value is None:
        return ""
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    return f"{float(value):.12g}"


def load_published_tables() -> dict:
    """Embedded reference values keyed (table, atom, potential, lambda, ell)."""
    out = {}
    text = resources.files("planaratom").joinpath("data/published_tables.csv").read_text()
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    for rec in csv.DictReader(rows):
        lam = float(rec["lambda"]) if rec["lambda"] else None
        key = (rec["table"], rec["atom"], rec["potential"], lam, int(rec["ell"]))
        out[key] = float(rec["value"])
    return out


@dataclass
class RunRequest:
    """One solver invocation as described by CLI flags."""

    atom: str
    potential_token: str
    lam: float | None
    ell: int = 0
    nodes: int = 0
    rho_min: float | None = None
    rho_max: float | None = None
    n_points: int | None = None
    tol: float | None = None

    def problem(self) -> EffectivePotentialParams:
        kind = POTENTIAL_TOKENS[self.potential_token]
        spec = PotentialSpec(kind, self.lam) if kind in CHERN_SIMONS_KINDS else PotentialSpec(kind)
        return EffectivePotentialParams(spec, make_atom(self.atom), self.ell)

    def grid(self, problem) -> RadialGrid:
        return default_grid(
            problem,
            self.nodes,
            rho_min=self.rho_min,
            rho_max=self.rho_max,
            n_points=self.n_points,
        )

    def config(self) -> SolverConfig:
        if self.tol is not None:
            return SolverConfig(bisection_tol=self.tol)
        return SolverConfig()


def _request_from_args(args) -> RunRequest:
    token = args.potential
    kind = POTENTIAL_TOKENS.get(token)
    if kind is None:
        raise _UsageError(f"unknown --potential token {token!r}")
    lam = args.lam
    if getattr(args, "mgamma_ev", None) is not None:
        if lam is not None:
            raise _UsageError("--lambda and --mgamma-ev are mutually exclusive")
        lam = lambda_from_ev(args.mgamma_ev)
    if kind in CHERN_SIMONS_KINDS and lam is None:
        raise _UsageError(f"--potential {token} requires --lambda (or --mgamma-ev)")
    if kind not in CHERN_SIMONS_KINDS and lam is not None:
        raise _UsageError(f"--lambda is not valid with --potential {token}")
    return RunRequest(
        atom=args.atom,
        potential_token=token,
        lam=lam,
        ell=args.ell,
        nodes=args.nodes,
        rho_min=args.rho_min,
        rho_max=args.rho_max,
        n_points=args.points,
        tol=args.tol,
    )


def _write_text(path: str | None, text: str, default=None) -> None:
    if path is None:
        path = default
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _solve_request(req: RunRequest):
    problem = req.problem()
    result, wf = solve_state(problem, req.nodes, config=req.config(), grid=req.grid(problem))
    return result, wf, mean_radius(wf, problem)


def _memo_solver():
    """Solver for table rows that solves each distinct state once per command.

    Called as ``solve(atom, token, lam, ell, nodes)``, it returns the
    ``(EigenResult, RadiusResult)`` pair. Wavefunctions are not kept, so
    memory does not grow with the number of states.
    """
    memo = {}

    def solve(*key):
        if key not in memo:
            result, _, radius = _solve_request(RunRequest(*key))
            memo[key] = result, radius
        return memo[key]

    return solve


_SOLVE_FIELDS = (
    "atom",
    "potential",
    "lambda",
    "ell",
    "nodes",
    "energy_ry",
    "converged",
    "match_defect",
    "mean_rho",
    "mean_r_bohr",
    "rho_min",
    "rho_max",
    "n_points",
    "bisection_tol",
    "iterations",
)


def _solve_record(req: RunRequest, result, radius, config) -> dict:
    return {
        "atom": req.atom,
        "potential": req.potential_token,
        "lambda": req.lam,
        "ell": result.ell,
        "nodes": result.nodes,
        "energy_ry": result.energy,
        "converged": result.converged,
        "match_defect": result.match_defect,
        "mean_rho": radius.mean_rho,
        "mean_r_bohr": radius.mean_r_bohr,
        "rho_min": result.grid.rho_min,
        "rho_max": result.grid.rho_max,
        "n_points": result.grid.n_points,
        "bisection_tol": config.bisection_tol,
        "iterations": result.iterations,
    }


def _record_csv(fields, records) -> str:
    buf = io.StringIO()
    buf.write(f"# schema={SCHEMA}\n")
    buf.write(",".join(fields) + "\n")
    for rec in records:
        cells = []
        for name in fields:
            v = rec[name]
            if isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, float):
                cells.append(_fmt(v))
            elif v is None:
                cells.append("")
            else:
                cells.append(str(v))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def _record_json(payload: dict) -> str:
    def clean(obj):
        if isinstance(obj, float):
            return float(_fmt(obj))
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        return obj

    return json.dumps(clean(payload), indent=2) + "\n"


def cmd_solve(args) -> int:
    req = _request_from_args(args)
    result, wf, radius = _solve_request(req)
    record = _solve_record(req, result, radius, req.config())
    if args.format == "json":
        text = _record_json({"schema": SCHEMA, **record})
    else:
        text = _record_csv(_SOLVE_FIELDS, [record])
    _write_text(args.output, text)
    if args.wavefunction_output:
        _write_text(args.wavefunction_output, _wavefunction_csv(req, result, wf))
    return 0 if result.converged else 2


def _wavefunction_csv(req: RunRequest, result, wf) -> str:
    buf = io.StringIO()
    buf.write(f"# schema={SCHEMA}\n")
    buf.write(
        f"# atom={req.atom} potential={req.potential_token}"
        f" lambda={_fmt(req.lam)} ell={result.ell} nodes={result.nodes}\n"
    )
    buf.write(f"# energy_ry={_fmt(result.energy)} converged={str(result.converged).lower()}\n")
    buf.write("rho,u\n")
    rho = wf.grid.points()
    for r, v in zip(rho, wf.u):
        buf.write(f"{_fmt(r)},{_fmt(v)}\n")
    return buf.getvalue()


def cmd_wavefunction(args) -> int:
    req = _request_from_args(args)
    result, wf, _ = _solve_request(req)
    _write_text(args.output, _wavefunction_csv(req, result, wf))
    return 0 if result.converged else 2


def cmd_scan_potential(args) -> int:
    req = _request_from_args(args)
    if not (0 < args.rho_start < args.rho_stop):
        raise _UsageError("--rho-start/--rho-stop must satisfy 0 < start < stop")
    problem = req.problem()
    import numpy as np

    rho = np.linspace(args.rho_start, args.rho_stop, args.scan_points)
    u = effective_potential(problem, rho)
    buf = io.StringIO()
    buf.write(f"# schema={SCHEMA}\n")
    buf.write(
        f"# atom={req.atom} potential={req.potential_token}"
        f" lambda={_fmt(req.lam)} ell={req.ell}\n"
    )
    buf.write("rho,u_eff\n")
    for r, v in zip(rho, u):
        buf.write(f"{_fmt(r)},{_fmt(v)}\n")
    _write_text(args.output, buf.getvalue())
    return 0


_TABLE_FIELDS = (
    "atom",
    "potential",
    "lambda",
    "ell",
    "nodes",
    "energy_ry",
    "mean_r_bohr",
    "published_value",
    "deviation",
)


def _table_rows(which: str):
    """Row definitions in the fixed order of the reference tables."""
    rows = []
    if which == "energies":
        for atom in ATOM_NAMES:
            cases = [("coulomb3d", None), ("coulomb2d", None)] + [
                ("chern-simons", lam) for lam in TABLE_LAMBDAS
            ]
            for token, lam in cases:
                rows.append((atom, token, lam, 0, 0, "energy_ry"))
    elif which == "radii":
        for atom in ("pe", "pmu", "tmu"):
            for token, lam in (
                ("coulomb3d", None),
                ("coulomb2d", None),
                ("chern-simons", RADII_LAMBDA),
            ):
                rows.append((atom, token, lam, 0, 0, "mean_r_bohr"))
    elif which == "ell_states":
        for atom in ("pe", "pmu"):
            for ell in (1, 2):
                rows.append((atom, "chern-simons", ELL_LAMBDA, ell, 0, "energy_ry"))
    else:
        raise _UsageError(f"unknown table {which!r}")
    return rows


def _build_table(which: str, solve):
    """Table records; ``solve`` is a :func:`_memo_solver`."""
    published = load_published_tables()
    records = []
    for atom, token, lam, ell, nodes, quantity in _table_rows(which):
        result, radius = solve(atom, token, lam, ell, nodes)
        value = result.energy if quantity == "energy_ry" else radius.mean_r_bohr
        pub = published.get((which, atom, token, lam, ell))
        records.append(
            {
                "atom": atom,
                "potential": token,
                "lambda": lam,
                "ell": ell,
                "nodes": nodes,
                "energy_ry": result.energy,
                "mean_r_bohr": radius.mean_r_bohr,
                "published_value": pub,
                "deviation": (value - pub) if pub is not None else None,
            }
        )
    return records


def cmd_table(args) -> int:
    which = args.which.replace("-", "_")
    records = _build_table(which, _memo_solver())
    default_name = f"table_{which}.{ 'json' if args.format == 'json' else 'csv'}"
    if args.format == "json":
        text = _record_json(
            {
                "schema": SCHEMA,
                "table": which,
                "version": __version__,
                "rows": records,
            }
        )
    else:
        text = _record_csv(_TABLE_FIELDS, records)
    _write_text(args.output, text, default=default_name)
    return 0


def _flag_for(published, computed, closed_form) -> str:
    """Classify one report row.

    Where a closed form exists it adjudicates: the reference value either
    agrees with it, deviates by an amount consistent with that study's own
    quoted integration accuracy, or disagrees structurally. Without a
    closed form the computed value is the only comparator.
    """
    anchor = closed_form if closed_form is not None else computed
    if published is None or anchor == 0:
        return ""
    dev = abs(published - anchor) / abs(anchor)
    if dev <= MATCH_TOL:
        return "match"
    if dev <= NUMERICS_TOL:
        return "paper-numerical-error"
    return "unresolved"


# Closed-form Coulomb ground-state mean radius in Bohr radii is this over zeta.
_CLOSED_RADIUS_FACTOR = {"coulomb3d": 1.5, "coulomb2d": 0.5}

_REPORT_FIELDS = (
    "section",
    "atom",
    "potential",
    "lambda",
    "quantity",
    "published_value",
    "computed",
    "closed_form",
    "jordan_variant",
    "jordan_prefactor_ratio",
    "deviation",
    "flag",
)


def _build_report():
    solve = _memo_solver()
    rows = []
    for section, quantity in (("energies", "energy_ry"), ("radii", "mean_r_bohr")):
        for rec in _build_table(section, solve):
            atom, token, lam = rec["atom"], rec["potential"], rec["lambda"]
            problem = RunRequest(atom, token, lam).problem()
            jordan = None
            jordan_ratio = None
            if section == "energies":
                closed = closed_form_energy(problem, 0)
                if token == "chern-simons":
                    jordan = solve(atom, "chern-simons-jordan", lam, 0, 0)[0].energy
                    jordan_ratio = jordan_variant_gap(problem)
            else:
                factor = _CLOSED_RADIUS_FACTOR.get(token)
                closed = factor / problem.atom.zeta if factor is not None else None
            pub = rec["published_value"]
            rows.append(
                {
                    "section": section,
                    "atom": atom,
                    "potential": token,
                    "lambda": lam,
                    "quantity": quantity,
                    "published_value": pub,
                    "computed": rec[quantity],
                    "closed_form": closed,
                    "jordan_variant": jordan,
                    "jordan_prefactor_ratio": jordan_ratio,
                    "deviation": rec["deviation"],
                    "flag": _flag_for(pub, rec[quantity], closed),
                }
            )
    return rows


def _report_markdown(rows) -> str:
    buf = io.StringIO()
    buf.write("# Reference-versus-recomputed discrepancy report\n\n")
    buf.write(
        "Flags: `match` (within 0.5%), `paper-numerical-error` (within 5%, "
        "consistent with the reference pipeline's quoted accuracy), "
        "`unresolved` (structural disagreement). The closed-form column "
        "adjudicates where an exact spectrum exists; the jordan column "
        "shows the weaker-prefactor variant of the massive-photon "
        "potential.\n\n"
    )
    for section in ("energies", "radii"):
        sect = [r for r in rows if r["section"] == section]
        if not sect:
            continue
        buf.write(f"## {section}\n\n")
        buf.write(
            "| atom | potential | lambda | published | computed | closed form "
            "| jordan variant | jordan prefactor ratio | flag |\n"
        )
        buf.write("|---|---|---|---|---|---|---|---|---|\n")
        for r in sect:
            buf.write(
                "| {atom} | {potential} | {lam} | {pub} | {comp} | {closed} "
                "| {jord} | {ratio} | {flag} |\n".format(
                    atom=r["atom"],
                    potential=r["potential"],
                    lam=_fmt(r["lambda"]),
                    pub=_fmt(r["published_value"]),
                    comp=_fmt(r["computed"]),
                    closed=_fmt(r["closed_form"]),
                    jord=_fmt(r["jordan_variant"]),
                    ratio=_fmt(r["jordan_prefactor_ratio"]),
                    flag=r["flag"],
                )
            )
        buf.write("\n")
    return buf.getvalue()


def cmd_report(args) -> int:
    rows = _build_report()
    if args.format == "json":
        text = _record_json({"schema": SCHEMA, "version": __version__, "rows": rows})
        default_name = "report.json"
    elif args.format == "md":
        text = _report_markdown(rows)
        default_name = "report.md"
    else:
        text = _record_csv(_REPORT_FIELDS, rows)
        default_name = "report.csv"
    _write_text(args.output, text, default=default_name)
    return 0


def cmd_k0(args) -> int:
    ev = bessel_k0_eval(args.x)
    if args.format == "json":
        text = _record_json(
            {
                "schema": SCHEMA,
                "x": ev.x,
                "k0": ev.value,
                "regime": ev.regime,
                "underflow": ev.underflow,
            }
        )
    else:
        text = (
            f"# schema={SCHEMA}\nx,k0,regime,underflow\n"
            f"{_fmt(ev.x)},{_fmt(ev.value)},{ev.regime},{str(ev.underflow).lower()}\n"
        )
    _write_text(args.output, text)
    return 0


def _add_common_flags(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output path ('-' for stdout)")
    p.add_argument("--atom", required=True, choices=ATOM_NAMES)
    p.add_argument(
        "--potential", required=True, help="coulomb3d coulomb2d chern-simons chern-simons-jordan"
    )
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="photon mass over electron mass (chern-simons kinds)")
    p.add_argument("--mgamma-ev", type=float, default=None,
                   help="photon topological mass in eV (alternative to --lambda)")
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--nodes", type=int, default=0)
    p.add_argument("--rho-min", type=float, default=None)
    p.add_argument("--rho-max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--tol", type=float, default=None, help="bisection tolerance in Ry")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="planaratom",
        description=(
            "Bound states of two- and three-dimensional hydrogen-like atoms "
            "under Coulomb and massive-photon (K0) potentials."
        ),
        epilog=_MGAMMA_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one bound state")
    _add_common_flags(p)
    p.add_argument("--wavefunction-output", default=None,
                   help="also write the normalized wavefunction CSV here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("table", help="reproduce a reference table")
    p.add_argument("which", choices=("energies", "radii", "ell-states"))
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("scan-potential", help="sample the effective potential")
    _add_common_flags(p)
    p.add_argument("--rho-start", type=float, required=True)
    p.add_argument("--rho-stop", type=float, required=True)
    p.add_argument("--scan-points", type=int, default=501)
    p.set_defaults(func=cmd_scan_potential)

    p = sub.add_parser("wavefunction", help="solve and emit the wavefunction CSV")
    _add_common_flags(p)
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("report", help="reference-vs-recomputed discrepancy report")
    p.add_argument("--format", choices=("csv", "json", "md"), default="md")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("k0", help="evaluate K0 (debug)")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_k0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
