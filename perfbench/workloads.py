"""The benchmark's workloads: how each builds its inputs from a seed, runs
its operations through lph's public API, and checks their outputs.

The polynomial systems of a workload are fixed (they are the acceptance
suite's systems), so the oracle reference solutions committed under
``reference/`` hold for every seed.  The seed picks the solver's random
choices: slices, start system and gamma constants.  Operation ``i`` of a
workload run with seed ``s`` gets solver seed ``s * n_ops + i``, so different
seeds never share a solver seed, and each workload's default seed gives the
acceptance suite's solver seeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ORACLE_TOL = 1e-6
GOLDEN_TOL = 1e-4

SEXTIC = "(y^2 - x^3 + 4*x + 1)*((x - y + 6)^3 + x + y)"
SEXTIC_BETA = (0.874645, 1.0351)
SEXTIC_C = (-3.9825,)
SEXTIC_GOLDEN = [
    (2.4052801, 1.815026),
    (-1.992641, 5.531208),
    (-1.44299, -1.32941),
    (-0.781143, 1.28371),
]


@dataclass
class OpOutcome:
    """Result of checking one operation's output."""

    ok: bool
    matched: int  # reference solutions found in the output
    detail: str


@dataclass
class Operation:
    """One library call, the check of its output, and the number of
    reference solutions the output must contain."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], OpOutcome]
    expected: int


def random_dense(n, deg, rng, lph):
    """Dense polynomial of total degree ``deg`` with normal coefficients,
    drawn in the acceptance suite's term order."""
    terms = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            terms.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], deg)
    return lph.MultiPoly(n, [(t, rng.normal()) for t in terms])


def random_problem(system_seed, lph):
    """Random dense degree-2 critical problem, drawn in criterion 4's order,
    so seeds 1000+i give its systems."""
    rng = np.random.default_rng(system_seed)
    n = int(rng.integers(2, 4))
    k = int(rng.integers(1, n))
    f = lph.PolySystem(n, [random_dense(n, 2, rng, lph) for _ in range(k)])
    return lph.LPHProblem(f, lph.jacobian_transpose(f), rng.normal(size=n) + 0j)


def fingerprint(prob) -> str:
    """Digest of a problem's polynomials and beta, so a reference is never
    checked against a different system than the one it was made for."""
    h = hashlib.sha256()
    for p in prob.f.polys:
        h.update(p.exps.tobytes())
        h.update(np.round(p.coeffs, 12).tobytes())
    h.update(np.round(prob.beta, 12).tobytes())
    return h.hexdigest()[:16]


# -- random_batch's systems and their committed references ------------------

# criterion 4's 20 systems
RANDOM_BATCH_SEEDS = [1000 + i for i in range(20)]
RANDOM_BATCH_REFERENCE = REFERENCE_DIR / "random_batch.json"


def build_problems(lph):
    return [random_problem(seed, lph) for seed in RANDOM_BATCH_SEEDS]


def load_reference(problems):
    """Reference solutions per problem, after checking that each entry was
    made for exactly this problem."""
    entries = json.loads(RANDOM_BATCH_REFERENCE.read_text())["systems"]
    if len(entries) != len(problems):
        raise ValueError(f"reference has {len(entries)} systems, expected {len(problems)}")
    refs = []
    for entry, prob in zip(entries, problems):
        if entry["fingerprint"] != fingerprint(prob):
            raise ValueError(f"reference for system seed {entry['system_seed']} "
                             "does not match its system")
        refs.append(np.array([[complex(*c) for c in sol] for sol in entry["solutions"]],
                             dtype=complex).reshape(len(entry["solutions"]), prob.n + prob.k))
    return refs


def oracle_match(solutions, reference, tol=ORACLE_TOL):
    """Criterion 4's two-way match: (reference solutions found, every
    returned solution is near a reference solution)."""
    found = sum(
        any(np.abs(s - r).max() < tol for s in solutions) for r in reference
    )
    spurious = sum(
        not any(np.abs(s - r).max() < tol for r in reference) for s in solutions
    )
    return found, spurious


# -- operations ------------------------------------------------------------

def _solve_check(res, ref):
    found, spurious = oracle_match(res.solutions, ref)
    ok = found == len(ref) and spurious == 0 and len(res.solutions) <= res.bound
    detail = (f"{len(res.solutions)} solutions, {found}/{len(ref)} reference matched, "
              f"{spurious} spurious, bound {res.bound}")
    return OpOutcome(ok, found, detail)


def build_setup(name, lph):
    """Program-side inputs of a workload: everything a user builds before
    the first solve.  Timed as ``setup_s``."""
    if name == "sextic_witness":
        return lph.PolySystem(2, [lph.parse_poly(SEXTIC, ["x", "y"])])
    return build_problems(lph)


def operations(name, seed, inputs, lph) -> List[Operation]:
    """The operations of one pass of workload ``name`` at ``seed``."""
    if name == "sextic_witness":
        f = inputs

        def call():
            return lph.real_witness_set(
                f, rng=np.random.default_rng(seed), beta=list(SEXTIC_BETA),
                c_values=list(SEXTIC_C),
            )

        def check(rws):
            found = sum(
                any(np.abs(np.array(g) - wp.point).max() < GOLDEN_TOL for wp in rws.points)
                for g in SEXTIC_GOLDEN
            )
            return OpOutcome(found == len(SEXTIC_GOLDEN), found,
                             f"{len(rws.points)} points, {found}/4 golden matched")

        return [Operation("real_witness_set", call, check, len(SEXTIC_GOLDEN))]

    problems = inputs
    refs = load_reference(problems)
    ops = []
    for i, (prob, ref) in enumerate(zip(problems, refs)):
        solver_seed = seed * len(problems) + i

        def call(prob=prob, solver_seed=solver_seed):
            return lph.lph_solve(prob, rng=np.random.default_rng(solver_seed))

        def check(res, ref=ref):
            return _solve_check(res, ref)

        ops.append(Operation(f"lph_solve[{i}]", call, check, len(ref)))
    return ops
