"""Path ledger of one benchmark workload pass: one line per ``track_path``
call, then one line per operation output.  A ``diff`` of two ledgers, say of
a change and of its parent commit, shows whether every path kept its status,
exit reason and step count.

    python3 scripts/path_ledger.py --workload sextic_witness --seed 7
    python3 scripts/path_ledger.py --workload random_batch --seed 100

A path line reads ``path STATUS REASON STEPS T_REACHED DIGEST`` and an
output line ``op LABEL ok=... SUMMARY DIGEST``.  A digest is the first 16 hex
digits of the SHA-256 of a point's (or an output's points') bytes, ``-`` for
a path without endpoint.

The workloads, their inputs, seeds and checks are those of
``perfbench/workloads.py``, which this script only imports.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no cache files next to the benchmark
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import lph  # noqa: E402
from run import DEFAULT_SEEDS, WORKLOADS  # noqa: E402
from workloads import build_setup, operations  # noqa: E402


def digest(points) -> str:
    if points is None:
        return "-"
    h = hashlib.sha256()
    for z in points:
        h.update(np.asarray(z, dtype=complex).tobytes())
    return h.hexdigest()[:16]


def summary(out) -> str:
    """Counts and a digest of a workload operation's output."""
    if isinstance(out, lph.LPHResult):
        return (f"D={out.D} omega={out.omega_count} bound={out.bound} "
                f"converged={out.converged} divergent={out.divergent} failed={out.failed} "
                f"solutions={len(out.solutions)} warnings={out.warnings!r} "
                f"{digest(out.solutions)}")
    stages = [wp.stage for wp in out.points]
    return (f"points={len(out.points)} stages={stages} "
            f"{digest([wp.point for wp in out.points])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="per-path ledger of one workload pass")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="input seed (default: the benchmark's)")
    args = ap.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    original = lph.tracker.track_path

    def ledger(H, z0):
        res = original(H, z0)
        end = None if res.endpoint is None else [res.endpoint]
        print(f"path {res.status} {res.reason} {res.steps_taken} {res.t_reached!r} "
              f"{digest(end)}")
        return res

    # every module that imported track_path by name holds its own binding
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lph" and getattr(module, "track_path", None) is original:
            module.track_path = ledger

    ok = True
    for op in operations(args.workload, seed, build_setup(args.workload, lph), lph):
        out = op.call()
        outcome = op.check(out)
        ok = ok and outcome.ok
        print(f"op {op.label} ok={outcome.ok} {summary(out)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
