"""Short runs of the benchmark, so a change that crashes it (a renamed
traced target, a broken workload check, a worker whose output is not JSON)
fails here: one traced pass, and one untraced pass of each workload at a
seed other than its default."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_benchmark(*args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0


def test_benchmark_smoke_run():
    _run_benchmark("--workload", "sextic_witness", "--trace", "1")


@pytest.mark.parametrize("workload", ["sextic_witness", "random_batch"])
def test_benchmark_untraced_run(workload):
    _run_benchmark("--workload", workload, "--trace", "0", "--seed", "1")
