"""Acceptance criteria, one test per criterion. Each test prints a single
PASS/FAIL line so the suite output doubles as the acceptance report."""

import json
import time

import numpy as np

from lph.cli import main
from lph.poly import MultiPoly, parse, parse_poly, PolySystem, jacobian_transpose
from lph.solver import LPHProblem, lph_solve
from lph.start_systems import solve_square
from lph.tracker import (
    CONVERGED,
    HomotopyPair,
    davidenko_rhs,
    newton_correct,
)
from lph.witness import build_critical_system, real_witness_set

XY = ["x", "y"]
SEXTIC = "(y^2 - x^3 + 4*x + 1)*((x - y + 6)^3 + x + y)"

SEXTIC_FILE = "vars: x y\nf:\n  " + SEXTIC + "\n"
SPARSE_FILE = (
    "vars: x y z\n"
    "f:\n"
    "  -62*x*y + 97*y - 4*x*y*z - 4\n"
    "  80*x - 44*x*y + 71*y^2 - 17*y^3 + 2\n"
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_golden_witness_points():
    f = PolySystem(2, [parse_poly(SEXTIC, XY)])
    t0 = time.perf_counter()
    rws = real_witness_set(
        f,
        rng=np.random.default_rng(7),
        beta=[0.874645, 1.0351],
        c_values=[-3.9825],
    )
    elapsed = time.perf_counter() - t0
    golden = [
        (2.4052801, 1.815026),
        (-1.992641, 5.531208),
        (-1.44299, -1.32941),
        (-0.781143, 1.28371),
    ]
    found = all(
        any(np.abs(np.array(g) - wp.point).max() < 1e-4 for wp in rws.points)
        for g in golden
    )
    ok = found and elapsed < 30.0
    _report(1, "golden witness points", ok, f"{len(rws.points)} points, {elapsed:.1f}s")


def test_criterion_2_path_count_ledger():
    f = PolySystem(2, [parse_poly(SEXTIC, XY)])
    prob = build_critical_system(f, np.array([0.874645, 1.0351], dtype=complex))
    t0 = time.perf_counter()
    res = lph_solve(prob, rng=np.random.default_rng(7))
    elapsed = time.perf_counter() - t0
    ok = (
        res.D == 6
        and res.omega_count == 30
        and len(res.solutions) == 6
        and res.divergent + res.failed == 24
        and elapsed < 30.0
    )
    _report(
        2,
        "path-count ledger",
        ok,
        f"D={res.D} omega={res.omega_count} endpoints={len(res.solutions)} "
        f"divergent={res.divergent} failed={res.failed} "
        f"div+fail={res.divergent + res.failed}, {elapsed:.1f}s",
    )


def test_criterion_3_bound_example(tmp_path, capsys):
    p = tmp_path / "sparse.lph"
    p.write_text(SPARSE_FILE)
    t0 = time.perf_counter()
    code = main(["bound", str(p), "--seed", "3", "--json"])
    elapsed = time.perf_counter() - t0
    doc = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        ok = (
            code == 0
            and doc["D"] == 7
            and doc["root_bound"] == 28
            and doc["bezout_chain"] == 36
            and doc["total_degree"] == 243
            and doc["mixed_volume"] == "n/a"
            and elapsed < 60.0
        )
        _report(
            3,
            "bound example",
            ok,
            f"D={doc['D']} eq3={doc['root_bound']} bezout={doc['bezout_chain']} "
            f"total={doc['total_degree']}, {elapsed:.1f}s",
        )


def _random_dense(n, deg, rng):
    terms = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            terms.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], deg)
    return MultiPoly(n, [(t, rng.normal()) for t in terms])


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, n))
        f = PolySystem(n, [_random_dense(n, 2, rng) for _ in range(k)])
        prob = LPHProblem(f, jacobian_transpose(f), rng.normal(size=n) + 0j)
        res = lph_solve(prob, rng=np.random.default_rng(2000 + trial))
        direct = solve_square(prob.full_system(), rng=np.random.default_rng(3000 + trial))
        fwd = all(
            any(np.abs(s - d).max() < 1e-6 for d in direct) for s in res.solutions
        )
        bwd = all(
            any(np.abs(s - d).max() < 1e-6 for s in res.solutions) for d in direct
        )
        if not (fwd and bwd and len(res.solutions) <= res.bound):
            failures.append(trial)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    _report(4, "oracle equivalence", ok, f"failures={failures}, {elapsed:.1f}s")


def test_criterion_5_closed_form_circle():
    circle = PolySystem(2, [parse_poly("x^2 + y^2 - 1", XY)])
    beta = np.array([0.6, 0.8])
    prob = build_critical_system(circle, beta.astype(complex))
    t0 = time.perf_counter()
    res = lph_solve(prob, rng=np.random.default_rng(5))
    elapsed = time.perf_counter() - t0
    unit = beta / np.linalg.norm(beta)
    ok = (
        len(res.solutions) == 2
        and all(
            any(np.abs(s[:2] - sgn * unit).max() < 1e-8 for s in res.solutions)
            for sgn in (1.0, -1.0)
        )
        and elapsed < 5.0
    )
    _report(5, "closed-form circle", ok, f"{len(res.solutions)} solutions, {elapsed:.1f}s")


def test_criterion_6_component_coverage():
    f = PolySystem(2, [parse_poly("(x^2 + y^2 - 1)*((x - 3)^2 + y^2 - 1)", XY)])
    t0 = time.perf_counter()
    misses = []
    for seed in range(5):
        rws = real_witness_set(f, rng=np.random.default_rng(seed))
        xs = [wp.point[0] for wp in rws.points]
        if not (any(x < 1.5 for x in xs) and any(x > 1.5 for x in xs)):
            misses.append(seed)
    elapsed = time.perf_counter() - t0
    ok = not misses and elapsed < 60.0
    _report(6, "component coverage", ok, f"missed seeds={misses}, {elapsed:.1f}s")


def test_criterion_7_numerical_hygiene(tracked_paths):
    t0 = time.perf_counter()
    rng = np.random.default_rng(70)
    h = 1e-6
    deriv_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        terms = [
            (tuple(int(e) for e in rng.integers(0, 4, size=n)), complex(rng.normal(), rng.normal()))
            for _ in range(int(rng.integers(1, 7)))
        ]
        p = MultiPoly(n, terms)
        z = rng.normal(size=n).astype(complex)
        for j in range(n):
            dz = np.zeros(n, dtype=complex)
            dz[j] = h
            fd = (p.evaluate(z + dz) - p.evaluate(z - dz)) / (2 * h)
            exact = p.differentiate(j).evaluate(z)
            if abs(fd - exact) / max(1.0, abs(exact)) >= 1e-6:
                deriv_ok = False

    # Davidenko tangent against a finite difference along a tracked path
    start = parse("x^2 - 1\ny^2 - 1", XY)
    target = parse("x^2 - 3\ny^2 + x - 2", XY)
    H = HomotopyPair(start, target, 0.8 + 0.6j)
    z = newton_correct(H, np.array([1.0, 1.0], dtype=complex), 0.0)
    tang_ok = True
    hh = 1e-5
    for t in (0.2, 0.5, 0.8):
        z = newton_correct(H, z, t)
        z_h = newton_correct(H, z + hh * davidenko_rhs(H, z, t), t + hh)
        fd = (z_h - z) / hh
        if np.abs(fd - davidenko_rhs(H, z, t)).max() >= 1e-3:
            tang_ok = False

    # residual contract on every Converged path of seeded random solves:
    # each of the 10 total-degree solves tracks 4 paths, all Converged
    resid_ok = True
    for trial in range(10):
        r2 = np.random.default_rng(7000 + trial)
        F = PolySystem(2, [_random_dense(2, 2, r2) for _ in range(2)])
        solve_square(F, rng=np.random.default_rng(7100 + trial))
    converged = [pr for _, _, pr in tracked_paths if pr.status == CONVERGED]
    if len(converged) != 40 or any(pr.residual > 1e-8 for pr in converged):
        resid_ok = False
    elapsed = time.perf_counter() - t0
    ok = deriv_ok and tang_ok and resid_ok and elapsed < 60.0
    _report(
        7,
        "numerical hygiene",
        ok,
        f"deriv={deriv_ok} tangent={tang_ok} residual={resid_ok}, {elapsed:.1f}s",
    )


def test_criterion_8_json_determinism(tmp_path, capsys):
    sextic = tmp_path / "sextic.lph"
    sextic.write_text(SEXTIC_FILE)
    sparse = tmp_path / "sparse.lph"
    sparse.write_text(SPARSE_FILE)
    crit = tmp_path / "crit.lph"
    crit.write_text(SEXTIC_FILE + "J: jacobian\nbeta: 0.874645 1.0351\n")

    runs = [
        ["witness", str(sextic), "--seed", "7", "--json",
         "--beta", "0.874645,1.0351", "--c", "-3.9825"],
        ["solve", str(crit), "--seed", "7", "--json"],
        ["bound", str(sparse), "--seed", "3", "--json"],
    ]
    mismatched = []
    for argv in runs:
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        if first != second:
            mismatched.append(argv[0])
    with capsys.disabled():
        _report(8, "JSON determinism", not mismatched, f"mismatched={mismatched}")
