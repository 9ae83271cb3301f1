"""Regenerate random_batch's oracle reference solutions,
``reference/random_batch.json``.

The oracle is lph's total-degree homotopy, ``solve_square`` on the full
square system ``{f, J * lambda - beta}``; it shares no start system with
the linear-product method under test.  It costs about a minute, which is
why the benchmark loads its result instead of running it.  The oracle's
solver seed is the system seed + 2000, criterion 4's oracle seeds 3000 + i.

    PYTHONPATH=src python3 perfbench/make_reference.py [--out FILE]
"""

import argparse
import json
import sys
import time

import numpy as np

import lph
from workloads import RANDOM_BATCH_REFERENCE, RANDOM_BATCH_SEEDS, build_problems, fingerprint

ORACLE_SEED_OFFSET = 2000


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(RANDOM_BATCH_REFERENCE), help="output file")
    args = ap.parse_args(argv)
    entries = []
    for system_seed, prob in zip(RANDOM_BATCH_SEEDS, build_problems(lph)):
        oracle_seed = system_seed + ORACLE_SEED_OFFSET
        t0 = time.perf_counter()
        sols = lph.solve_square(prob.full_system(), rng=np.random.default_rng(oracle_seed))
        sols.sort(key=lambda z: tuple(v for c in z for v in (c.real, c.imag)))
        entries.append({
            "system_seed": system_seed,
            "n": prob.n,
            "k": prob.k,
            "oracle_seed": oracle_seed,
            "fingerprint": fingerprint(prob),
            "solutions": [[[c.real, c.imag] for c in z] for z in sols],
        })
        print(f"system {system_seed}: n={prob.n} k={prob.k} "
              f"{len(sols)} solutions ({time.perf_counter() - t0:.1f} s)", file=sys.stderr)
    doc = {
        "workload": "random_batch",
        "oracle": "lph.solve_square(prob.full_system()), total-degree homotopy",
        "systems": entries,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
