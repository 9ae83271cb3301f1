"""One benchmark process.  ``run.py`` starts it with BLAS threads pinned
and ``src`` on the path; it prints one JSON object on its last stdout line.

    worker.py setup   WORKLOAD
        import lph and build the workload's inputs; reports setup_s.
    worker.py measure WORKLOAD SEED SECONDS TRACE
        run whole passes of the workload for about SECONDS, checking every
        operation.  TRACE 0 times untraced passes while sampling host speed;
        TRACE 1 alternates untraced and traced passes and reduces the spans
        to layer metrics.

Imports of numpy, lph and the benchmark modules are local to the functions,
so that ``setup`` times a fresh import of lph.
"""

import signal
import sys
import time

# A shared virtual machine, such as a 2-core KVM guest, can change speed by
# up to 2x, over seconds and over minutes, as its neighbours' load changes;
# a run cannot escape that.  The untraced run therefore samples host speed
# in its own process every SAMPLE_PERIOD_S with a short kernel (KERNEL_ITERS
# iterations), and reports each pass's time rescaled to a host on which that
# kernel takes KERNEL_REF_S.
SAMPLE_PERIOD_S = 0.1
KERNEL_ITERS = 30
KERNEL_REF_S = 1e-3


def setup(workload):
    t0 = time.perf_counter()
    import lph
    t1 = time.perf_counter()
    from workloads import build_setup  # benchmark code, not timed

    t2 = time.perf_counter()
    build_setup(workload, lph)
    t3 = time.perf_counter()
    return {"setup_s": (t1 - t0) + (t3 - t2)}


def numpy_kernel(iters):
    """Seconds taken by a fixed small-array numpy kernel, made like lph's
    inner loop of small complex solves and elementwise arithmetic."""
    import numpy as np

    rng = np.random.default_rng(0)
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    b = rng.normal(size=6) + 0j
    t0 = time.perf_counter()
    for _ in range(iters):
        x = np.linalg.solve(A, b)
        b = (A @ x) ** 2 / np.abs(x).max()
        b /= np.abs(b).max()
    return time.perf_counter() - t0


def drift_kernel():
    """The kernel's time at 20000 iterations, recorded before and after each
    measurement to show host speed drift."""
    return numpy_kernel(20000)


class HostSampler:
    """While entered, runs ``numpy_kernel(KERNEL_ITERS)`` from a SIGALRM
    handler every SAMPLE_PERIOD_S, in this process and on its CPU, so the
    samples see the host speed the workload sees.  ``busy`` is the total
    time spent in the handler; ``run_pass`` takes it off operation times."""

    def __init__(self):
        self.samples = []
        self.busy = 0.0
        self._in_handler = False

    def _sample(self, signum, frame):
        if self._in_handler:  # a late signal must not nest a second sample
            return
        self._in_handler = True
        t0 = time.perf_counter()
        try:
            self.samples.append(numpy_kernel(KERNEL_ITERS))
        finally:
            self.busy += time.perf_counter() - t0
            self._in_handler = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def machine():
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_pass(ops, tally, host):
    """Run every operation once and check its output; returns the wall
    time of each library call, less the time ``host`` spent sampling during
    it.  An operation that raises or fails its check counts as failed."""
    import traceback

    times = []
    for op in ops:
        tally["attempted"] += 1
        tally["expected"] += op.expected
        busy = host.busy
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:
            times.append(time.perf_counter() - t0 - (host.busy - busy))
            traceback.print_exc(file=sys.stderr)
            print(f"operation {op.label} raised", file=sys.stderr)
            tally["failed"] += 1
            continue
        times.append(time.perf_counter() - t0 - (host.busy - busy))
        outcome = op.check(out)
        tally["matched"] += outcome.matched
        if not outcome.ok:
            tally["failed"] += 1
            print(f"operation {op.label} failed its check: {outcome.detail}", file=sys.stderr)
    return times


def measure(workload, seed, seconds, trace):
    import resource
    import statistics

    drift_before = drift_kernel()
    import lph
    from workloads import build_setup, operations

    if trace:
        from layers import layer_metrics
        from tracer import Tracer

    ops = operations(workload, seed, build_setup(workload, lph), lph)
    tally = {"attempted": 0, "failed": 0, "matched": 0, "expected": 0}
    plain, traced, layer_runs = [], [], []  # per pass: per-operation times
    host = HostSampler()  # entered only in untraced passes
    kernel_s = []  # per untraced pass: mean host speed sample
    t_start = time.perf_counter()
    while True:
        if not trace:
            first = len(host.samples)
            with host:
                plain.append(run_pass(ops, tally, host))
            kernel_s.append(statistics.mean(host.samples[first:]))
        else:
            # The traced round also builds the inputs, so the poly layer's
            # parse and arithmetic show.  Each operation runs untraced and
            # then traced, so the two times of a pair see the same host speed.
            tracer = Tracer()
            with tracer:
                traced_ops = operations(workload, seed, build_setup(workload, lph), lph)
            plain.append([])
            traced.append([])
            for op, traced_op in zip(ops, traced_ops):
                plain[-1] += run_pass([op], tally, host)
                with tracer:
                    traced[-1] += run_pass([traced_op], tally, host)
            layer_runs.append(layer_metrics(tracer.spans()))
            del tracer, traced_ops
        elapsed = time.perf_counter() - t_start
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds:
            break
    drift_after = drift_kernel()

    pass_s = [sum(p) for p in plain]
    result = {
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "pass_s": pass_s,
        "drift_kernel_s": [drift_before, drift_after],
        "machine": machine(),
    }
    if trace:
        # counts repeat exactly from pass to pass; times take the median
        layers = {k: statistics.median_low(r[k] for r in layer_runs)
                  if isinstance(layer_runs[0][k], int) else
                  statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        # the two times of a pair see the same host speed, so compare
        # per-operation medians
        traced_s = sum(statistics.median(column) for column in zip(*traced))
        untraced_s = sum(statistics.median(column) for column in zip(*plain))
        layers["trace_overhead"] = traced_s / untraced_s
        result["layers"] = layers
        result["traced_pass_s"] = [sum(p) for p in traced]
    else:
        result["wall_s"] = statistics.median(pass_s)
        result["wall_ref_s"] = statistics.median(
            t * KERNEL_REF_S / k for t, k in zip(pass_s, kernel_s))
        result["kernel_s"] = kernel_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["solution_recall"] = tally["matched"] / max(tally["expected"], 1)
    return result


def main(argv):
    import json

    mode, workload, *rest = argv
    if mode == "setup":
        out = setup(workload)
    elif mode == "measure":
        seed, seconds, trace = int(rest[0]), float(rest[1]), int(rest[2])
        out = measure(workload, seed, seconds, trace)
    else:
        raise SystemExit(f"unknown mode {mode}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
