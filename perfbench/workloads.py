"""The benchmark's workloads: inputs from a seed, one operation, the checks.

Every workload is a set of closed-loop clients that move in lockstep: each
step hands every client one operation and ends when all have returned, and
no round of steps starts once the run's seconds are up. An operation is one
state request (``solve_state`` then ``mean_radius``) or, for
``paper-tables``, one ``planaratom table ...`` command run through
``planaratom.cli.main``.

The checks run after the timed phase and compare against ``oracles`` (closed
forms and an independent discretisation) or against properties the physics
fixes (node counts, monotonic trends, the logarithmic-potential shift).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import planaratom
import planaratom.cli

import hostspeed

ATOMS = ("pe", "de", "te", "pmu", "dmu", "tmu")

# Checks: the solver's bisection tolerance is 1e-8 Ry absolute; on top of it
# the O(h^4) grid error stays below 1e-7 relative for every state used here.
ENERGY_ABS_TOL = 2e-8
ENERGY_REL_TOL = 1e-6
RADIUS_REL_TOL = 2e-5

# Warm-up operations use a coarse grid: they load every code path the timed
# operations use without paying for a full solve.
WARMUP_POINTS = 4001


@dataclass(frozen=True)
class State:
    kind: str  # coulomb3d, coulomb2d, chern_simons or chern_simons_jordan
    atom: str
    lam: float | None
    ell: int
    nodes: int

    def problem(self):
        return planaratom.EffectivePotentialParams(
            planaratom.PotentialSpec(self.kind, self.lam),
            planaratom.make_atom(self.atom),
            self.ell,
        )


@dataclass
class Solved:
    energy: float
    converged: bool
    nodes: int
    mean_r_bohr: float


@dataclass
class Record:
    client: int
    slot: int  # position in the client's own sequence
    op: object
    start: float
    end: float
    out: object = None
    error: str | None = None
    states: int = 1
    step: int = 0  # index of the lockstep step that ran it
    request: int = 0  # request id the tracer files its spans under


@dataclass
class Phase:
    records: list
    start: float
    plan: list  # the rounds run, one per client each, for a replay
    step_walls: list  # per step, scaled by its factor
    factors: list  # per step: hostspeed.REFERENCE_S over the host's reading


def solve(state: State, grid=None) -> Solved:
    """One state request through the public API."""
    problem = state.problem()
    result, wf = planaratom.solve_state(problem, state.nodes, grid=grid)
    radius = planaratom.mean_radius(wf, problem)
    return Solved(result.energy, result.converged, result.nodes, radius.mean_r_bohr)


def _close(value: float, ref: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(value - ref) <= rel * abs(ref) + abs_tol


def check_coulomb(state: State, energy: float, mean_r_bohr: float) -> list:
    import oracles

    dim = 3 if state.kind == "coulomb3d" else 2
    e_ref = oracles.coulomb_energy(dim, state.atom, state.nodes, state.ell)
    r_ref = oracles.coulomb_mean_radius(dim, state.atom, state.nodes, state.ell)
    errors = []
    if not _close(energy, e_ref, ENERGY_REL_TOL, ENERGY_ABS_TOL):
        errors.append(f"{state}: energy {energy!r} vs closed form {e_ref!r}")
    if not _close(mean_r_bohr, r_ref, RADIUS_REL_TOL):
        errors.append(f"{state}: <r> {mean_r_bohr!r} vs closed form {r_ref!r}")
    return errors


def check_massive_photon(state: State, energy: float, mean_r_bohr: float):
    """Compare with the log-grid discretisation; returns (errors, its state)."""
    import oracles

    ref = oracles.solve_log_grid(
        oracles.cs_radial(state.kind, state.atom, state.lam, state.ell), state.nodes, energy
    )
    if ref is None:
        return [f"{state}: log grid finds no {state.nodes}-node level"], None
    errors = []
    if not _close(energy, ref.energy, ENERGY_REL_TOL, ENERGY_ABS_TOL):
        errors.append(f"{state}: energy {energy!r} vs log grid {ref.energy!r}")
    r_ref = ref.mean_rho / math.sqrt(oracles.zeta(state.atom))
    if not _close(mean_r_bohr, r_ref, RADIUS_REL_TOL):
        errors.append(f"{state}: <r> {mean_r_bohr!r} vs log grid {r_ref!r}")
    return errors, ref


def check_solved(state: State, out: Solved):
    """Checks shared by the two API workloads; returns (errors, oracle state)."""
    errors = []
    if out.nodes != state.nodes:
        errors.append(f"{state}: solver reports {out.nodes} nodes")
    if state.kind.startswith("coulomb"):
        return errors + check_coulomb(state, out.energy, out.mean_r_bohr), None
    more, ref = check_massive_photon(state, out.energy, out.mean_r_bohr)
    return errors + more, ref


class Workload:
    clients = 1

    def __init__(self, seed: int, scratch):
        self.scratch = scratch  # directory for files the operations write

    def rounds(self, client: int):
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def failed(self, out) -> bool:
        """True when the program itself reports that it could not deliver."""
        return not out.converged

    def states(self, op) -> int:
        return 1

    def check(self, records: list) -> list:
        raise NotImplementedError

    def state_latencies(self, records: list) -> list:
        """Per-state wall time of each request, in seconds."""
        return [r.end - r.start for r in records]


class CoulombExcited(Workload):
    """One client; distinct 2D and 3D Coulomb states, no K0 anywhere."""

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        rng = random.Random(seed)
        pools = {}
        for kind in ("coulomb3d", "coulomb2d"):
            for orbiter in ("e", "mu"):
                states = [
                    State(kind, atom, None, ell, nodes)
                    for atom in ATOMS
                    if atom.endswith(orbiter)
                    for nodes in range(4)
                    for ell in range(3)
                ]
                rng.shuffle(states)
                pools[kind, orbiter] = states
        # A round is one 3D and two 2D states, so the median latency falls
        # inside the 2D group rather than in the gap between the groups.
        # Muonic levels take ~30% more bisections (the 1e-8 Ry tolerance is
        # absolute, their energies ~200x deeper), so each round has one
        # electronic and one muonic 2D state and the 3D state alternates:
        # every run then gets the same mix whatever the seed.
        self._rounds = [
            [
                pools["coulomb3d", "e" if i % 2 == 0 else "mu"][i // 2],
                pools["coulomb2d", "e"][i],
                pools["coulomb2d", "mu"][i],
            ]
            for i in range(36)
        ]

    def rounds(self, client):
        return iter(self._rounds)

    def warm_up(self):
        state = self._rounds[0][0]
        solve(state, planaratom.default_grid(state.problem(), state.nodes, n_points=WARMUP_POINTS))

    def execute(self, op):
        return solve(op)

    def check(self, records):
        errors = []
        for r in records:
            errors += check_solved(r.op, r.out)[0]
        return errors


class CsConcurrent(Workload):
    """Two clients; distinct massive-photon states on 200,001-point grids."""

    clients = 2
    SLOTS = 64  # far more than one run can finish

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        rng = random.Random(seed)

        def log_uniform(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        self._ops = ([], [])
        for slot in range(self.SLOTS):
            if slot % 2 == 0:
                # The same level at two photon masses, one on each client:
                # the pair carries the logarithmic-shift check. Node counts
                # alternate because a 1-node solve sweeps ~20% fewer points,
                # so every run gets the same share of each.
                atom, ell, nodes = rng.choice(ATOMS), rng.randrange(3), (slot // 2) % 2
                for ops in self._ops:
                    ops.append(State("chern_simons", atom, log_uniform(2e-6, 2e-4), ell, nodes))
            else:
                # The weaker-prefactor variant binds only 1e-4..1e-2 Ry deep.
                # Near lambda = 2e-6 its levels can end with a match defect
                # above the solver's 1e-6 limit (converged=False), and at
                # 2e-4 some ell > 0 levels of pe are not bound. From 5e-5 up
                # the ell 0 ground state converges for every atom, with the
                # defect at most a third of that limit.
                for ops in self._ops:
                    ops.append(
                        State("chern_simons_jordan", rng.choice(ATOMS), log_uniform(5e-5, 2e-4), 0, 0)
                    )

    def rounds(self, client):
        return ([op] for op in self._ops[client])

    def warm_up(self):
        state = self._ops[0][0]
        solve(state, planaratom.default_grid(state.problem(), state.nodes, n_points=WARMUP_POINTS))

    def execute(self, op):
        return solve(op)

    def check(self, records):
        import oracles

        errors = []
        refs = {}
        for r in records:
            more, ref = check_solved(r.op, r.out)
            errors += more
            refs[(r.client, r.slot)] = (r, ref)
        for (client, slot), (r1, ref1) in refs.items():
            pair = refs.get((1, slot))
            if client != 0 or r1.op.kind != "chern_simons" or pair is None:
                continue
            r2, ref2 = pair
            if ref1 is None or ref2 is None:
                continue
            s1, s2 = r1.op, r2.op
            shift = r2.out.energy - r1.out.energy
            expected = oracles.log_shift(s1.lam, s2.lam)
            tol = 3.0 * (
                oracles.log_shift_error_bound(s1.atom, s1.lam, ref1.mean_rho, ref1.mean_rho2)
                + oracles.log_shift_error_bound(s2.atom, s2.lam, ref2.mean_rho, ref2.mean_rho2)
            ) + 1e-7
            if abs(shift - expected) > tol:
                errors.append(
                    f"{s1} -> lambda {s2.lam!r}: shift {shift!r}, ln ratio/pi {expected!r}, tol {tol:.3g}"
                )
        return errors


# The paper's tables as the benchmark defines them: (atom, potential, lambda, ell).
RADII_ROWS = [
    (atom, token, lam, 0)
    for atom in ("pe", "pmu", "tmu")
    for token, lam in (("coulomb3d", None), ("coulomb2d", None), ("chern-simons", 2e-5))
]
ELL_ROWS = [(atom, "chern-simons", 2e-6, ell) for atom in ("pe", "pmu") for ell in (1, 2)]
TABLES = {"radii": RADII_ROWS, "ell-states": ELL_ROWS}
_KINDS = {"coulomb3d": "coulomb3d", "coulomb2d": "coulomb2d", "chern-simons": "chern_simons"}


@dataclass(frozen=True)
class TableCommand:
    which: str
    fmt: str


@dataclass
class TableOutput:
    rc: int
    text: str


def parse_table(fmt: str, text: str) -> list:
    """Rows of a table output as dicts of floats (None for empty cells)."""
    if fmt == "json":
        doc = json.loads(text)
        if doc.get("schema") != "planar-atom/v1":
            raise ValueError("missing schema tag")
        return doc["rows"]
    lines = text.splitlines()
    if lines[0] != "# schema=planar-atom/v1":
        raise ValueError("missing schema line")
    rows = []
    for rec in csv.DictReader(io.StringIO("\n".join(lines[1:]))):
        row = {}
        for key, cell in rec.items():
            if key in ("atom", "potential"):
                row[key] = cell
            else:
                row[key] = float(cell) if cell != "" else None
        rows.append(row)
    return rows


class PaperTables(Workload):
    """One client running ``planaratom table radii`` and ``table ell-states``."""

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        rng = random.Random(seed)
        commands = [TableCommand(which, rng.choice(("csv", "json"))) for which in TABLES]
        rng.shuffle(commands)
        self._round = commands
        self._count = 0

    def rounds(self, client):
        while True:
            yield list(self._round)

    def warm_up(self):
        path = self.scratch / "warmup.csv"
        planaratom.cli.main(
            ["solve", "--atom", "pe", "--potential", "chern-simons", "--lambda", "2e-5",
             "--points", str(WARMUP_POINTS), "--output", str(path)]
        )

    def execute(self, op):
        self._count += 1
        path = self.scratch / f"table-{self._count}.{op.fmt}"
        rc = planaratom.cli.main(["table", op.which, "--format", op.fmt, "--output", str(path)])
        return TableOutput(rc, path.read_text() if rc == 0 else "")

    def failed(self, out):
        return out.rc != 0

    def states(self, op):
        return len(TABLES[op.which])

    def state_latencies(self, records):
        # rows are not visible from outside a command: charge each row the
        # command's wall time divided by its row count
        return [(r.end - r.start) / r.states for r in records]

    def check(self, records):
        errors = []
        for r in records:
            try:
                rows = parse_table(r.op.fmt, r.out.text)
            except (ValueError, KeyError, IndexError) as exc:
                errors.append(f"{r.op}: unreadable output ({exc})")
                continue
            errors += self._check_rows(r.op.which, rows)
        return errors

    def _check_rows(self, which, rows):
        expected = TABLES[which]
        got = [(row["atom"], row["potential"], row["lambda"], int(row["ell"])) for row in rows]
        if got != expected:
            return [f"table {which}: rows {got} differ from {expected}"]
        errors = []
        energy = {}
        radius = {}
        for row, (atom, token, lam, ell) in zip(rows, expected):
            state = State(_KINDS[token], atom, lam, ell, int(row["nodes"]))
            e, r = row["energy_ry"], row["mean_r_bohr"]
            if state.kind.startswith("coulomb"):
                errors += check_coulomb(state, e, r)
            else:
                errors += check_massive_photon(state, e, r)[0]
            value = r if which == "radii" else e
            pub, dev = row["published_value"], row["deviation"]
            if pub is not None and not _close(dev, value - pub, 0.0, 1e-11 * max(abs(value), abs(pub))):
                errors.append(f"{which} {state}: deviation {dev!r} != {value!r} - {pub!r}")
            energy[(atom, token, ell)] = e
            radius[(atom, token, ell)] = r
        # trends the physics fixes: deeper and smaller with the reduced mass,
        # shallower with the angular momentum
        if which == "radii":
            for table, name in ((energy, "energy"), (radius, "<r>")):
                seq = [table[(atom, "chern-simons", 0)] for atom in ("pe", "pmu", "tmu")]
                if not seq[0] > seq[1] > seq[2]:
                    errors.append(f"radii: chern-simons {name} not decreasing with zeta: {seq}")
        else:
            for atom in ("pe", "pmu"):
                if not energy[(atom, "chern-simons", 1)] < energy[(atom, "chern-simons", 2)]:
                    errors.append(f"ell-states: {atom} energy not increasing with ell")
            for ell in (1, 2):
                if not energy[("pmu", "chern-simons", ell)] < energy[("pe", "chern-simons", ell)]:
                    errors.append(f"ell-states: ell={ell} energy not decreasing with zeta")
        return errors


WORKLOADS = {
    "paper-tables": PaperTables,
    "coulomb-excited": CoulombExcited,
    "cs-concurrent": CsConcurrent,
}


def run_phase(workload: Workload, seconds: float, plan=None, tracer=None) -> Phase:
    """Run rounds until ``seconds`` are up, taken from ``plan`` if given.

    The clients move in lockstep: a step hands each client its next
    operation, runs them concurrently and ends when all have returned.
    ``hostspeed.measure`` runs alone before the first step and after each
    step, so that every step is bracketed by two readings of the host's
    speed. At least one round runs; after that the phase stops at the round
    boundary nearest the deadline. A replay of ``plan`` stops there too, so
    that a host slowing down after the first phase cannot stretch the run.
    """
    records, ran, walls = [], [], []
    slots = [0] * workload.clients
    request_ids = itertools.count(1)
    pool = ThreadPoolExecutor(workload.clients) if workload.clients > 1 else None

    def run_one(rec):
        if tracer is not None:
            tracer.set_request(rec.request)
        rec.start = time.perf_counter()
        try:
            rec.out = workload.execute(rec.op)
        except Exception as exc:  # the program failed this request
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.end = time.perf_counter()

    calibration = [hostspeed.measure()]
    start = time.perf_counter()
    deadline = start + seconds
    if plan is not None:
        rounds = iter(plan)
    else:
        rounds = zip(*(workload.rounds(c) for c in range(workload.clients)))
    last = 0.0
    try:
        for rnd in rounds:
            began = time.perf_counter()
            if ran and began + 0.5 * last >= deadline:
                break
            for ops in zip(*rnd):
                step = []
                for c, op in enumerate(ops):
                    step.append(Record(c, slots[c], op, 0.0, 0.0,
                                       states=workload.states(op), step=len(walls),
                                       request=next(request_ids)))
                    slots[c] += 1
                if pool is None:
                    run_one(step[0])
                else:
                    list(pool.map(run_one, step))
                walls.append(max(r.end for r in step) - min(r.start for r in step))
                records += step
                calibration.append(hostspeed.measure())
            ran.append(rnd)
            last = time.perf_counter() - began
    finally:
        if pool is not None:
            pool.shutdown()
    factors = [
        hostspeed.REFERENCE_S / (0.5 * (before + after))
        for before, after in zip(calibration, calibration[1:])
    ]
    return Phase(records, start, ran, [w * f for w, f in zip(walls, factors)], factors)


def summarize(workload: Workload, phases: list) -> dict:
    """Split each phase's records into failed and delivered, and check the latter."""
    failed, good, errors = [], [], []
    for phase in phases:
        delivered = []
        for r in phase.records:
            bad = r.error is not None or workload.failed(r.out)
            (failed if bad else delivered).append(r)
        errors += workload.check(delivered)
        good.append(delivered)
    return {"attempted": sum(len(p.records) for p in phases), "failed": failed,
            "good": good, "errors": errors}


def end_to_end(workload: Workload, phase: Phase, delivered: list) -> dict:
    """Throughput and median latency of the delivered states of one phase.

    Every wall time is scaled by its step's host-speed factor (see
    ``hostspeed``). Throughput is the states delivered over the sum of the
    scaled step wall times; latency is the median scaled time of one state.
    """
    wall = sum(phase.step_walls[s] for s in {r.step for r in delivered})
    latencies = [
        t * phase.factors[r.step]
        for t, r in zip(workload.state_latencies(delivered), delivered)
    ]
    return {
        "states_per_s": sum(r.states for r in delivered) / wall,
        "state_p50_ms": statistics.median(latencies) * 1e3 if latencies else 0.0,
    }
