"""Path ledger of one benchmark workload pass: one line per path of each
``track_stage`` call and one line per stage, then one line per operation
output.  A ``diff`` of two ledgers, say of a change and of its parent
commit, shows whether every path kept its status, exit reason and step
count.

    python3 scripts/path_ledger.py --workload sextic_witness --seed 7
    python3 scripts/path_ledger.py --workload random_batch --seed 100

A path line reads ``path STATUS REASON STEPS T_REACHED DIGEST``, a stage
line ``stage paths=P steps=S longest=L`` (L, the most steps of one path, is
the number of lockstep iterations the stage took) and an output line
``op LABEL ok=... SUMMARY DIGEST``.  A digest is the first 16 hex
digits of the SHA-256 of a point's (or an output's points') bytes, ``-`` for
a path without endpoint.

The benchmark runs many passes in one process, so the script then runs the
operations a second time, printing nothing more when that pass repeats
the first line for line; an operation whose lines differ prints
``FAIL repeat LABEL: FIRST -> SECOND`` (its first differing line) and the
exit code is 1, as it is when a workload check fails.

A change that moves paths by design cannot keep the ledger byte-identical.
``--json FILE`` also writes, per operation, its counts, its output points,
the ``(status, reason, steps)`` of each path it tracked and the
``(paths, steps, longest)`` of each stage, and

    python3 scripts/path_ledger.py --compare PARENT.json CHANGE.json

passes (exit 0) when every operation keeps its counts, its points match
two-way within ``POINT_TOL`` relative to ``max(1, |point|)``, and the
change's paths, each judged by its ``(status, reason)``, are a sub-multiset
of the parent's: it may track fewer paths, but each one it tracks ends as
one of the parent's did.  Step counts are not judged, since a change to the
predictor or the step control moves every one of them by design: an
operation whose step total or stages' longest paths moved prints a
``changed`` line, parent -> change.  The two totals lines before them give
each side's paths, steps and lockstep iterations (the sum of its stages'
longest paths).

The workloads, their inputs, seeds and checks are those of
``perfbench/workloads.py``, which this script only imports.
"""

import argparse
import hashlib
import json
import sys
from collections import Counter
from itertools import zip_longest
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


# the two-way point match of --compare: oracle_match's rule, relative
POINT_TOL = 1e-8


def counts(out) -> dict:
    """The counts of a workload operation's output."""
    if isinstance(out, lph.LPHResult):
        return {"D": out.D, "omega": out.omega_count, "bound": out.bound,
                "converged": out.converged, "divergent": out.divergent,
                "failed": out.failed, "solutions": len(out.solutions)}
    return {"points": len(out.points), "stages": [wp.stage for wp in out.points]}


def points(out) -> list:
    if isinstance(out, lph.LPHResult):
        return out.solutions
    return [wp.point for wp in out.points]


def summary(out) -> str:
    """Counts and a digest of a workload operation's output."""
    text = " ".join(f"{key}={value}" for key, value in counts(out).items())
    if isinstance(out, lph.LPHResult):
        text += f" warnings={out.warnings!r}"
    return f"{text} {digest(points(out))}"


def _near(a, b) -> bool:
    return float(np.abs(a - b).max()) < POINT_TOL * max(1.0, float(np.abs(b).max()))


def compare(parent: dict, change: dict) -> list:
    """The differences that fail --compare, one line each."""
    problems = []
    labels = [op["label"] for op in parent["ops"]]
    if labels != [op["label"] for op in change["ops"]]:
        return [f"operations differ: {labels} against "
                f"{[op['label'] for op in change['ops']]}"]
    for old, new in zip(parent["ops"], change["ops"]):
        label = old["label"]
        if old["counts"] != new["counts"]:
            problems.append(f"{label}: counts {old['counts']} -> {new['counts']}")
        a = [np.array([complex(*c) for c in z]) for z in old["points"]]
        b = [np.array([complex(*c) for c in z]) for z in new["points"]]
        lost = sum(not any(_near(x, y) for y in b) for x in a)
        added = sum(not any(_near(y, x) for x in a) for y in b)
        if lost or added:
            problems.append(f"{label}: {lost} points lost, {added} points added")
        extra = _endings(new) - _endings(old)
        if extra:
            problems.append(f"{label}: paths not in the parent {sorted(extra.elements())}")
    return problems


def _endings(op: dict) -> Counter:
    """An operation's paths as a multiset of their (status, reason)."""
    return Counter((status, reason) for status, reason, _ in op["paths"])


def changes(parent: dict, change: dict) -> list:
    """Per operation whose step total or stages' longest paths moved, one
    line, parent -> change; these do not fail --compare."""
    lines = []
    for old, new in zip(parent["ops"], change["ops"]):
        steps = [sum(p[2] for p in op["paths"]) for op in (old, new)]
        longest = [[stage[2] for stage in op["stages"]] for op in (old, new)]
        if steps[0] != steps[1] or longest[0] != longest[1]:
            lines.append(f"changed {old['label']}: steps {steps[0]} -> {steps[1]}, "
                         f"longest {longest[0]} -> {longest[1]}")
    return lines


def _totals(ledger: dict) -> str:
    paths = [p for op in ledger["ops"] for p in op["paths"]]
    iterations = sum(stage[2] for op in ledger["ops"] for stage in op["stages"])
    return f"{len(paths)} paths, {sum(p[2] for p in paths)} steps, {iterations} iterations"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="per-path ledger of one workload pass")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="input seed (default: the benchmark's)")
    ap.add_argument("--json", metavar="FILE",
                    help="also write each operation's counts, points and paths to FILE")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two --json files instead of running a workload")
    args = ap.parse_args(argv)
    if args.compare:
        parent, change = (json.loads(Path(name).read_text()) for name in args.compare)
        print(f"parent: {_totals(parent)}")
        print(f"change: {_totals(change)}")
        problems = compare(parent, change)
        for line in changes(parent, change):
            print(line)
        for line in problems:
            print(f"FAIL {line}")
        return 1 if problems else 0
    if args.workload is None:
        ap.error("--workload is required unless --compare is given")
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    # start_systems holds track_stage in this tree and in older ones
    original = lph.start_systems.track_stage
    op_paths: list = []
    op_stages: list = []
    op_lines: list = []

    def ledger(H, starts):
        results = original(H, starts)
        for res in results:
            op_paths.append([res.status, res.reason, res.steps_taken])
            end = None if res.endpoint is None else [res.endpoint]
            op_lines.append(f"path {res.status} {res.reason} {res.steps_taken} "
                            f"{res.t_reached!r} {digest(end)}")
        steps = [res.steps_taken for res in results]
        op_stages.append([len(steps), sum(steps), max(steps, default=0)])
        op_lines.append(f"stage paths={len(steps)} steps={sum(steps)} longest={op_stages[-1][2]}")
        return results

    # every module that imported track_stage by name holds its own binding
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lph" and getattr(module, "track_stage", None) is original:
            module.track_stage = ledger

    workload_ops = operations(args.workload, seed, build_setup(args.workload, lph), lph)

    def run_pass():
        """Each operation's record and ledger lines, over one pass."""
        records = []
        for op in workload_ops:
            op_paths.clear()
            op_stages.clear()
            op_lines.clear()
            out = op.call()
            outcome = op.check(out)
            op_lines.append(f"op {op.label} ok={outcome.ok} {summary(out)}")
            records.append(({"label": op.label, "ok": outcome.ok, "counts": counts(out),
                             "points": [[[c.real, c.imag] for c in np.asarray(z, dtype=complex)]
                                        for z in points(out)],
                             "paths": list(op_paths), "stages": list(op_stages)},
                            list(op_lines)))
        return records

    first = run_pass()
    for _, lines in first:
        print("\n".join(lines))
    ok = all(op["ok"] for op, _ in first)
    # the benchmark runs many passes in one process: a second pass here must
    # repeat the first line for line
    for (op, lines), (_, again) in zip(first, run_pass()):
        if lines != again:
            before, after = next(pair for pair in zip_longest(lines, again) if pair[0] != pair[1])
            print(f"FAIL repeat {op['label']}: {before} -> {after}")
            ok = False
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seed": seed, "ops": [op for op, _ in first]}) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
