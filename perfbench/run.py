"""Benchmark of the planaratom solver: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see README.md in this directory).

With ``--trace 0`` the command first starts the workload's set-up in four
probe processes and then in the worker process that runs the workload,
timing each from process start to the moment it is ready for its first
timed operation and scaling it by the host-speed factor the child reads at
the end of its set-up (see ``hostspeed``); ``setup_s`` is the median of
the five. The program is imported from ``src/`` of the checkout; without
it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("paper-tables", "coulomb-excited", "cs-concurrent")
SETUP_PROBES = 4
# A run must end within 180 s; children still running after this are stopped.
RUN_LIMIT_S = 170.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("probe", "worker"), default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------- worker side


def worker(args) -> int:
    """Set up, report ready, run the timed phase(s), check, report."""
    sys.path.insert(0, str(SRC))
    import planaratom.cli

    import hostspeed
    import workloads

    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if not planaratom.cli.load_published_tables():
            raise RuntimeError("embedded reference tables are empty")
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        wl.warm_up()
        # the set-up's own host-speed factor, read at its end
        factor = hostspeed.REFERENCE_S / hostspeed.measure()
        print(f"READY {factor!r}", flush=True)
        if args.role == "probe":
            return 0
        result = run_workload(workloads, wl, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def run_workload(workloads, wl, args) -> dict:
    untraced = workloads.run_phase(wl, args.seconds)
    phases = [untraced]
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = workloads.run_phase(wl, args.seconds, plan=untraced.plan, tracer=tracer)
        finally:
            tracer.uninstall()
        phases.append(traced)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        # the replay may stop earlier than the phase it replays: compare
        # the steps both ran
        overhead = sum(traced.step_walls) - sum(untraced.step_walls[: len(traced.step_walls)])
        scale = {r.request: traced.factors[r.step] for r in traced.records}
        metrics = tracing.layer_metrics(tracer.spans(), overhead, scale)
    summary = workloads.summarize(wl, phases)
    with open(OUT / f"ops-{args.workload}-seed{args.seed}-trace{args.trace}.jsonl", "w") as fh:
        for i, phase in enumerate(phases):
            for r in phase.records:
                fh.write(json.dumps({"phase": i, "client": r.client, "op": repr(r.op),
                                     "start": r.start - phase.start, "end": r.end - phase.start,
                                     "step": r.step, "host_factor": phase.factors[r.step],
                                     "states": r.states, "error": r.error}) + "\n")
    for i, phase in enumerate(phases):
        factors = phase.factors
        print(f"phase {i}: {len(factors)} steps, host-speed factor median "
              f"{statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}",
              file=sys.stderr)
    for err in summary["errors"][:20]:
        print(f"check failed: {err}", file=sys.stderr)
    for rec in summary["failed"][:20]:
        print(f"operation failed: {rec.op}: {rec.error or rec.out}", file=sys.stderr)
    if not args.trace:
        e2e = workloads.end_to_end(wl, untraced, summary["good"][0])
        metrics = {
            "states_per_s": {"value": e2e["states_per_s"], "unit": "1/s"},
            "state_p50_ms": {"value": e2e["state_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    return {
        "correct": not summary["errors"],
        "attempted": summary["attempted"],
        "failed": len(summary["failed"]),
        "metrics": metrics,
    }


# ----------------------------------------------------------- orchestrator side


def _run_child(role, args, deadline):
    """Start a child; return (scaled seconds until READY, its last stdout line)."""
    cmd = [
        sys.executable, str(Path(__file__)), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    word, _, factor = ready.strip().partition(" ")
    if word != "READY" or rc != 0:
        raise RuntimeError(f"{role} process failed (exit status {rc})")
    lines = rest.strip().splitlines()
    return setup * float(factor), lines[-1] if lines else ""


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 0:
        print("--seconds must be non-negative", file=sys.stderr)
        return 2
    if args.role is not None:
        return worker(args)
    if not (SRC / "planaratom" / "__init__.py").is_file():
        print(f"planaratom sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_run_child("probe", args, deadline)[0])
        setup, line = _run_child("worker", args, deadline)
        setups.append(setup)
        result = json.loads(line)
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    text = json.dumps(result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(text + "\n")
    print(text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
