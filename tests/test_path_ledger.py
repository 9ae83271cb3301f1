"""Smoke runs of scripts/path_ledger.py: criterion 1's real witness set at
seed 7 tracks 72 paths (12 witness-slice, 30 H1 and 30 H2), and criterion
4's 20 critical solves at seed 100 track 162, one ``LPHResult`` line each."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ledger(workload, seed):
    proc = subprocess.run(
        [sys.executable, "scripts/path_ledger.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    paths = [ln.split() for ln in lines if ln.startswith("path ")]
    assert all(len(p) == 6 for p in paths)
    ops = [ln for ln in lines if ln.startswith("op ")]
    assert all(" ok=True " in op for op in ops)
    return paths, ops


def test_path_ledger_sextic_witness():
    paths, ops = _ledger("sextic_witness", 7)
    assert len(paths) == 72
    assert len(ops) == 1


def test_path_ledger_random_batch():
    paths, ops = _ledger("random_batch", 100)
    assert len(paths) == 162
    assert len(ops) == 20
    assert all(" D=" in op and " solutions=" in op for op in ops)
