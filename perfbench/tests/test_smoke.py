"""One operation of each workload through the benchmark's own runner."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_operation(name, tmp_path):
    wl = workloads.WORKLOADS[name](11, tmp_path)
    wl.warm_up()
    # one step: the first operation of each client (ell-states, the
    # shorter table, for paper-tables)
    first = [next(iter(wl.rounds(c)))[:1] for c in range(wl.clients)]
    if name == "paper-tables":
        first = [[op for op in next(iter(wl.rounds(0))) if op.which == "ell-states"]]
    phase = workloads.run_phase(wl, 0.0, plan=[tuple(first)])
    summary = workloads.summarize(wl, [phase])
    assert summary["attempted"] == wl.clients
    assert summary["failed"] == [] and summary["errors"] == []
    assert len(phase.factors) == 1 and 0.1 < phase.factors[0] < 10.0
    metrics = workloads.end_to_end(wl, phase, summary["good"][0])
    assert metrics["states_per_s"] > 0 and metrics["state_p50_ms"] > 0


def test_refuses_to_run_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coulomb-excited",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
