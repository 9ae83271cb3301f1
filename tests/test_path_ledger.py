"""Smoke run of scripts/path_ledger.py: criterion 1's real witness set at
seed 7 tracks 72 paths (12 witness-slice, 30 H1 and 30 H2)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_path_ledger_sextic_witness():
    proc = subprocess.run(
        [sys.executable, "scripts/path_ledger.py", "--workload", "sextic_witness",
         "--seed", "7"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    paths = [ln.split() for ln in lines if ln.startswith("path ")]
    assert len(paths) == 72
    assert all(len(p) == 6 for p in paths)
    ops = [ln for ln in lines if ln.startswith("op ")]
    assert len(ops) == 1 and " ok=True " in ops[0]
