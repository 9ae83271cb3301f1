"""Paired whole-pass times of this tree against the commit REV:

    python3 scripts/pair_time.py REV

It extracts REV as ``scripts/parity.sh`` does and runs ROUNDS rounds.  A
round starts one child process per side, with BLAS at 1 thread, the two in
alternating order from round to round.  A child times PASSES whole passes
(after one untimed pass) of each run: sextic_witness seeds 1-10 and
random_batch seed 100, with the operations and checks of
``perfbench/workloads.py``, which it only imports.  Each pass's time is
rescaled as ``perfbench/worker.py`` rescales it: by the time of
``numpy_kernel(KERNEL_ITERS)`` from that file, taken right after the pass,
to a host on which that kernel takes KERNEL_REF_S.  A pair is one round's
run on both sides, each side given by the median of its rescaled passes.

Per workload it prints each side's median over the pairs, the parent's
interquartile range and in how many pairs the change is lower.  Per
sextic seed it prints each side's fastest pass, not rescaled, next to
SAMPLER_FLOOR_S: the benchmark worker samples host speed every 100 ms and
crashes on a pass that ends before its first sample.  The last line is the
summary as JSON.  The exit code is 1 when an operation fails its check on
either side.
"""

import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no cache files next to the benchmark
sys.path.insert(0, str(ROOT / "perfbench"))
from run import PINS  # noqa: E402
from worker import SAMPLE_PERIOD_S as SAMPLER_FLOOR_S  # noqa: E402

ROUNDS = 10
PASSES = 3
RUNS = [("sextic_witness", seed) for seed in range(1, 11)] + [("random_batch", 100)]


def child(tree, passes, runs):
    """In a child process: the passes of each run on the lph of ``tree``,
    printed as one JSON line of [workload, seed, pass_s, rescaled_s,
    failed] per run."""
    import time

    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    import lph
    from worker import KERNEL_ITERS, KERNEL_REF_S, numpy_kernel
    from workloads import build_setup, operations

    out = []
    for workload, seed in runs:
        ops = operations(workload, seed, build_setup(workload, lph), lph)
        pass_s, rescaled_s, failed = [], [], 0
        for i in range(passes + 1):
            t0 = time.perf_counter()
            outputs = [op.call() for op in ops]
            t = time.perf_counter() - t0
            kernel = numpy_kernel(KERNEL_ITERS)
            failed += sum(not op.check(o).ok for op, o in zip(ops, outputs))
            if i:
                pass_s.append(t)
                rescaled_s.append(t * KERNEL_REF_S / kernel)
        out.append([workload, seed, pass_s, rescaled_s, failed])
    print(json.dumps(out))


def _run_child(tree, passes, runs):
    env = dict(os.environ, **{key: "1" for key in PINS})
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'scripts')!r}); import pair_time; "
            f"pair_time.child({str(tree)!r}, {passes}, {runs!r})")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"child on {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _extract(rev, into):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def pair_time(rev, rounds=ROUNDS, passes=PASSES, runs=RUNS):
    """Time this tree against REV as the module docstring says, print the
    report and return its summary."""
    runs = [tuple(run) for run in runs]
    # per side: per (workload, seed), one median per round, every unscaled
    # pass, and the failed checks
    sides = {side: {"medians": {}, "passes": {}, "failed": 0} for side in ("parent", "change")}
    with tempfile.TemporaryDirectory() as tmp:
        _extract(rev, tmp)
        trees = {"parent": Path(tmp), "change": ROOT}
        for r in range(rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                got = sides[side]
                for workload, seed, pass_s, rescaled_s, failed in _run_child(
                        trees[side], passes, runs):
                    key = (workload, seed)
                    got["medians"].setdefault(key, []).append(statistics.median(rescaled_s))
                    got["passes"].setdefault(key, []).extend(pass_s)
                    got["failed"] += failed
    parent, change = sides["parent"], sides["change"]
    summary = {"rev": rev, "rounds": rounds, "passes": passes, "workloads": {},
               "fastest_s": {}, "failed": {"parent": parent["failed"],
                                            "change": change["failed"]}}
    for workload in dict.fromkeys(w for w, _ in runs):
        keys = [key for key in runs if key[0] == workload]
        p = [v for key in keys for v in parent["medians"][key]]
        c = [v for key in keys for v in change["medians"][key]]
        iqr = 0.0
        if len(p) > 1:
            q1, _, q3 = statistics.quantiles(p, n=4)
            iqr = q3 - q1
        row = {"parent_median": statistics.median(p), "change_median": statistics.median(c),
               "parent_iqr": iqr,
               "change_lower_in": f"{sum(b < a for a, b in zip(p, c))}/{len(p)}"}
        row["ratio"] = row["change_median"] / row["parent_median"]
        summary["workloads"][workload] = row
        print(f"{workload}: median parent {row['parent_median']:.4f} s, change "
              f"{row['change_median']:.4f} s (x{row['ratio']:.3f}), parent IQR "
              f"{row['parent_iqr']:.4f} s, change lower in {row['change_lower_in']}")
    for key in runs:
        if key[0] != "sextic_witness":
            continue
        a, b = min(parent["passes"][key]), min(change["passes"][key])
        summary["fastest_s"][f"{key[0]}:{key[1]}"] = {"parent": a, "change": b}
        print(f"{key[0]}:{key[1]} fastest pass: parent {1e3 * a:.1f} ms, change "
              f"{1e3 * b:.1f} ms (x{b / a:.3f}), floor {1e3 * SAMPLER_FLOOR_S:.0f} ms")
    print(f"failed checks: parent {parent['failed']}, change {change['failed']}")
    print(json.dumps(summary))
    return summary


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: scripts/pair_time.py REV")
    sys.exit(1 if any(pair_time(sys.argv[1])["failed"].values()) else 0)
