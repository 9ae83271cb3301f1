"""lph benchmark: seeded workloads run through lph's public library API,
every output checked against a reference.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                # every workload, untraced

Workloads (see workloads.py and BENCHMARK.json for why each exists):
sextic_witness and random_batch.  The loop is closed: one process and
one caller, each operation starting when the previous one returns.  Each
measurement runs in its own worker process with BLAS pinned to one thread,
so ``peak_rss_mb`` is that of one workload.

With ``--trace 0`` the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics: ``wall_ref_s`` (median over the passes of a run of the wall time of
one full pass over the workload's operations, each pass's time rescaled to a
fixed host speed measured during it; see worker.py), ``setup_s`` (median over
fresh processes of importing lph and building the inputs), ``peak_rss_mb``
(MB = 2^20 bytes) and ``solution_recall`` (reference solutions found /
expected).  ``failed`` / ``attempted`` is the fail rate.  With ``--trace 1``
the metrics are the per-layer metrics of layers.py plus ``trace_overhead``
(traced over untraced time, measured in the same process).  A ``record``
line before the result gives the machine, the thread pins, the plain
``wall_s`` (median pass time, not rescaled), every pass time, the host speed
samples of each pass and a fixed numpy kernel's time before and after the
measurement, to show host drift.

Without ``--workload`` (or with ``all``) every workload runs once, one
after the other, and one line per run is printed, with ``wall_s`` and the
fail rate; run the command again for interleaved repeats.  The exit code is
1 if any operation failed its check, 2 on a usage error or if the lph
sources are missing, 3 if a worker crashed or timed out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sextic_witness", "random_batch")
# seeds whose solver seeds are the acceptance suite's: criterion 1 uses 7,
# criterion 4 uses 2000 + i = 100 * 20 + i
DEFAULT_SEEDS = {"sextic_witness": 7, "random_batch": 100}
SETUP_REPS = 8
TIME_LIMIT_S = 170.0
PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    for key in PINS:
        env[key] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def call_worker(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time limit reached before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *map(str, args)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} timed out") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, deadline):
    """One benchmark run of one workload; returns (result, record)."""
    def setup_samples(reps):
        return [call_worker(["setup", name], deadline)["setup_s"] for _ in range(reps)]

    setups = []
    if not trace:
        call_worker(["setup", name], deadline)  # fills bytecode caches
        setups = setup_samples(SETUP_REPS // 2)
    m = call_worker(["measure", name, seed, seconds, int(trace)], deadline)
    if not trace:
        # half the samples after the measurement, so a host slowdown during
        # the first seconds does not set the median
        setups += setup_samples(SETUP_REPS - SETUP_REPS // 2)
    if trace:
        from layers import UNITS

        metrics = {k: {"value": m["layers"][k], "unit": u} for k, u in UNITS.items()}
    else:
        metrics = {
            "wall_ref_s": {"value": m["wall_ref_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
            "solution_recall": {"value": m["solution_recall"], "unit": "ratio"},
        }
    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "machine": m["machine"],
        "drift_kernel_s": m["drift_kernel_s"],
        "wall_s": m.get("wall_s"),
        "pass_s": m["pass_s"],
        "kernel_s": m.get("kernel_s"),
        "traced_pass_s": m.get("traced_pass_s"),
        "setup_s": setups,
    }
    return result, record


def summary_line(name, result, record):
    fail_rate = result["failed"] / result["attempted"]
    parts = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    parts.append(f"wall_s={record['wall_s']:.6g} s")
    parts.append(f"fail_rate={fail_rate:.6g} ratio")
    return f"{name}: " + " ".join(parts)


def main(argv=None):
    ap = argparse.ArgumentParser(description="lph benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, help="input seed (default: the acceptance suite's)")
    ap.add_argument("--seconds", type=float, default=55.0,
                    help="measure whole passes for about this long")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lph" / "__init__.py").is_file():
        print(f"lph sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            result, record = run_workload(name, seed, args.seconds, args.trace, deadline)
        except WorkerError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 3
        ok = ok and result["correct"]
        print("record " + json.dumps(record), flush=True)
        if args.workload == "all":
            print(summary_line(name, result, record), flush=True)
        else:
            print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
