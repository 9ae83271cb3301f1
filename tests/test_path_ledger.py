"""Smoke runs of scripts/path_ledger.py: criterion 1's real witness set at
seed 7 tracks 30 paths in one stage, all of H2 (the sextic is a
hypersurface, so its witness slice, its H1 slices and the square stage are
solved on lines), and criterion 4's 20 critical solves at seed 100 track
60, one ``LPHResult`` line each (its 17 hypersurfaces have an affine
Jacobian, so their critical points come from a line too).  Its
``--compare`` mode fails on a moved or lost point and on a path that ends
with another status or reason, and prints moved step counts as changed."""

import copy
import json
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
    # a stage line closes each stage's path lines: paths=P steps=S longest=L
    stages = [dict(field.split("=") for field in ln.split()[1:])
              for ln in lines if ln.startswith("stage ")]
    assert sum(int(st["paths"]) for st in stages) == len(paths)
    assert sum(int(st["steps"]) for st in stages) == sum(int(p[3]) for p in paths)
    return paths, ops, stages


def test_path_ledger_sextic_witness():
    paths, ops, stages = _ledger("sextic_witness", 7)
    assert len(paths) == 30
    assert len(ops) == 1
    # the 30 H2 paths are one stage, as long as its longest path
    assert [st["paths"] for st in stages] == ["30"]
    assert int(stages[0]["longest"]) == max(int(p[3]) for p in paths)


def test_path_ledger_random_batch():
    paths, ops, stages = _ledger("random_batch", 100)
    assert len(paths) == 60
    assert len(ops) == 20
    assert all(" D=" in op and " solutions=" in op for op in ops)


PARENT = {
    "workload": "random_batch",
    "seed": 0,
    "ops": [{
        "label": "lph_solve[0]",
        "ok": True,
        "counts": {"D": 2, "omega": 2, "bound": 2, "converged": 1, "divergent": 1,
                   "failed": 0, "solutions": 1},
        "points": [[[1.5, 0.0], [-2.0, 0.25]]],
        "paths": [["Converged", "converged", 40], ["Divergent", "norm-exceeded", 90],
                  ["Converged", "converged", 40]],
        "stages": [[3, 170, 90]],
    }],
}


def _compare(tmp_path, change):
    parent_file, change_file = tmp_path / "parent.json", tmp_path / "change.json"
    parent_file.write_text(json.dumps(PARENT))
    change_file.write_text(json.dumps(change))
    proc = subprocess.run(
        [sys.executable, "scripts/path_ledger.py", "--compare", str(parent_file),
         str(change_file)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout


def test_path_ledger_compare_passes_fewer_paths_and_round_off(tmp_path):
    change = copy.deepcopy(PARENT)
    op = change["ops"][0]
    op["points"][0][1][0] += 1e-13
    op["paths"] = [["Converged", "converged", 40]]
    op["stages"] = [[1, 40, 40]]
    code, out = _compare(tmp_path, change)
    assert code == 0, out
    assert out.splitlines() == ["parent: 3 paths, 170 steps", "change: 1 paths, 40 steps",
                                "changed lph_solve[0]: steps 170 -> 40, longest [90] -> [40]"]


def test_path_ledger_compare_passes_a_change_in_steps_alone(tmp_path):
    # a new predictor moves every step count: each path keeps its
    # (status, reason), and the steps print as changed
    change = copy.deepcopy(PARENT)
    op = change["ops"][0]
    op["paths"] = [["Converged", "converged", 25], ["Divergent", "norm-exceeded", 51],
                   ["Converged", "converged", 19]]
    op["stages"] = [[3, 95, 51]]
    code, out = _compare(tmp_path, change)
    assert code == 0, out
    assert "changed lph_solve[0]: steps 170 -> 95, longest [90] -> [51]" in out
    assert "FAIL" not in out


def test_path_ledger_compare_fails_on_a_path_whose_reason_changed(tmp_path):
    change = copy.deepcopy(PARENT)
    change["ops"][0]["paths"][1] = ["Divergent", "min-step", 90]
    code, out = _compare(tmp_path, change)
    assert code == 1
    assert "paths not in the parent [('Divergent', 'min-step')]" in out


def test_path_ledger_compare_fails_on_a_lost_point(tmp_path):
    change = copy.deepcopy(PARENT)
    change["ops"][0]["points"] = []
    code, out = _compare(tmp_path, change)
    assert code == 1
    assert "lph_solve[0]: 1 points lost, 0 points added" in out


def test_path_ledger_compare_fails_on_a_point_moved_by_1e_6(tmp_path):
    change = copy.deepcopy(PARENT)
    change["ops"][0]["points"][0][0][0] += 1e-6
    code, out = _compare(tmp_path, change)
    assert code == 1
    assert "lph_solve[0]: 1 points lost, 1 points added" in out


def test_path_ledger_compare_fails_on_a_path_whose_status_changed(tmp_path):
    change = copy.deepcopy(PARENT)
    change["ops"][0]["paths"][1] = ["Failed", "norm-exceeded", 90]
    code, out = _compare(tmp_path, change)
    assert code == 1
    assert "paths not in the parent" in out
