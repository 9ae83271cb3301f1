import itertools
import logging
import sys

import numpy as np
import pytest

import lph.solver
import lph.start_systems
import lph.tracker
from lph.poly import MultiPoly, parse, parse_poly, PolySystem, jacobian_transpose
from lph.solver import (
    DegreeZeroJacobianError,
    LPHProblem,
    backsolve_lambda,
    build_G,
    enumerate_choices,
    h1_track,
    lph_solve,
    normalize,
    root_bound,
)
from lph.start_systems import line_points, random_slice, solve_square, witness_points
from lph.tracker import START_REJECTED, track_stage
from lph.witness import real_witness_set

XY = ["x", "y"]
XYZ = ["x", "y", "z"]

SEXTIC = "(y^2 - x^3 + 4*x + 1)*((x - y + 6)^3 + x + y)"


def _circle_problem(beta=(0.6, 0.8)):
    f = PolySystem(2, [parse_poly("x^2 + y^2 - 1", XY)])
    return LPHProblem(f, jacobian_transpose(f), np.array(beta, dtype=complex))


def test_root_bound_paper_values():
    assert root_bound(3, 2, 2, 7) == 28
    assert root_bound(2, 1, 5, 6) == 30


def test_root_bound_specialization():
    for n in range(2, 6):
        assert root_bound(n, n - 1, 1, 3) == (n - 1) * 3


def test_root_bound_validation():
    with pytest.raises(ValueError):
        root_bound(2, 2, 1, 1)
    with pytest.raises(ValueError):
        root_bound(3, 1, -1, 1)


def test_problem_validation():
    f = PolySystem(2, [parse_poly("x^2 + y^2 - 1", XY)])
    J = jacobian_transpose(f)
    with pytest.raises(ValueError):
        LPHProblem(f, J[:1], np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        LPHProblem(f, J, np.zeros(2))
    square = parse("x - 1\ny - 1", XY)
    with pytest.raises(ValueError):
        LPHProblem(square, jacobian_transpose(square), np.array([1.0, 0.0]))


def test_full_system_shape_and_membership():
    p = _circle_problem()
    F = p.full_system()
    assert F.n_vars == 3
    assert len(F) == 3
    # (0.6, 0.8, 0.5) solves {x^2+y^2-1, 2x*l - 0.6, 2y*l - 0.8}
    z = np.array([0.6, 0.8, 0.5], dtype=complex)
    assert F.residual(z) < 1e-12


def test_normalize_identity_when_beta_is_en():
    f = PolySystem(2, [parse_poly("x^2 + y^2 - 1", XY)])
    p = LPHProblem(f, jacobian_transpose(f), np.array([0.0, 1.0]))
    np_ = normalize(p)
    assert np.abs(np_.A - np.eye(2)).max() < 1e-12
    assert np_.J_prime[0][0] == p.J[0][0]


def test_normalize_beta_mapped_to_en():
    p = _circle_problem(beta=(1.0, 0.0))
    np_ = normalize(p)
    assert np.abs(np_.A @ p.beta - np.array([0.0, 1.0])).max() < 1e-12


def test_normalized_system_has_same_solutions():
    rng = np.random.default_rng(17)
    f = parse("x^2 + y*z - 2\nx + y^2 - z - 1", XYZ)
    p = LPHProblem(f, jacobian_transpose(f), rng.normal(size=3) + 0j)
    np_ = normalize(p)
    orig = solve_square(p.full_system(), rng=np.random.default_rng(1))
    norm = solve_square(np_.normalized_full_system(), rng=np.random.default_rng(2))
    assert len(orig) == len(norm)
    for s in orig:
        assert any(np.abs(s - t).max() < 1e-8 for t in norm)


def _build_G(p, rng):
    np_ = normalize(p)
    return build_G(np_, np_.normalized_full_system(), rng)


def test_build_G_structure_smallest():
    p = _circle_problem()
    G = _build_G(p, np.random.default_rng(0))
    assert p.d == 1
    assert len(G.l_x) == 1 and len(G.l_x[0]) == 1
    assert len(G.system) == 3
    # product rows: degree d in x, degree 1 in lambda
    g1 = G.system.polys[1]
    assert g1.exps[:, [0, 1]].sum(axis=1).max() == p.d
    assert g1.exps[:, 2].max() == 1


def test_build_G_degrees_n3():
    f = parse("-62*x*y + 97*y - 4*x*y*z - 4\n80*x - 44*x*y + 71*y^2 - 17*y^3 + 2", XYZ)
    p = LPHProblem(f, jacobian_transpose(f), np.array([1.0, 2.0, 3.0]))
    assert p.d == 2
    G = _build_G(p, np.random.default_rng(0))
    for i in (2, 3):  # g_1, g_2 rows of the assembled system
        g = G.system.polys[i]
        assert g.exps[:, [0, 1, 2]].sum(axis=1).max() == p.d
        assert g.exps[:, [3, 4]].sum(axis=1).max() == 1


def test_build_G_rejects_constant_J():
    f = PolySystem(2, [parse_poly("x + y - 1", XY)])
    p = LPHProblem(f, jacobian_transpose(f), np.array([1.0, 1.0]))
    with pytest.raises(DegreeZeroJacobianError):
        _build_G(p, np.random.default_rng(0))


def test_enumerate_choices_counts():
    assert len(list(enumerate_choices(2, 1, 5))) == 5
    assert len(list(enumerate_choices(5, 3, 1))) == 6
    assert len(list(enumerate_choices(3, 2, 2))) == 4


def test_enumerate_choices_alpha_weight():
    for rows, picks in enumerate_choices(4, 2, 3):
        assert len(rows) == 2 and list(rows) == sorted(set(rows))
        assert all(0 <= i < 3 for i in rows)
        assert len(picks) == 2
        assert all(0 <= pk < 3 for pk in picks)


def test_enumerate_choices_order():
    # rows ordered as their 0/1 indicator vectors sort, then picks
    choices = list(enumerate_choices(5, 3, 2))
    alphas = [tuple(int(i in rows) for i in range(4)) for rows, _ in choices]
    assert alphas[::4] == sorted(set(alphas))
    assert [picks for _, picks in choices[:4]] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_backsolve_lambda_scalar_case():
    p = _circle_problem()
    G = _build_G(p, np.random.default_rng(3))
    x_star = np.array([0.3 + 0.1j, 0.9 - 0.2j])
    lam = backsolve_lambda(x_star, G, (0,))
    g_val = sum(g.evaluate(x_star) * l for g, l in zip(G.g_last_row, lam))
    assert abs(g_val - 1.0) < 1e-10


def test_backsolve_lambda_plugs_back_into_G():
    f = parse("-62*x*y + 97*y - 4*x*y*z - 4\n80*x - 44*x*y + 71*y^2 - 17*y^3 + 2", XYZ)
    p = LPHProblem(f, jacobian_transpose(f), np.array([1.0, -2.0, 0.5]))
    G = _build_G(p, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for rows, _ in enumerate_choices(3, 2, 2):
        x_star = rng.normal(size=3) + 1j * rng.normal(size=3)
        lam = backsolve_lambda(x_star, G, rows)
        z = np.concatenate([x_star, lam])
        # the other product rows vanish through the lambda factor; g_n = 0
        for i in range(2):
            if i not in rows:
                assert abs(G.system.polys[2 + i].evaluate(z)) < 1e-8 * (
                    1 + np.abs(z).max() ** 3
                )
        assert abs(G.system.polys[-1].evaluate(z)) < 1e-8 * (1 + np.abs(z).max() ** 3)


def test_lph_solve_circle_critical_points():
    p = _circle_problem()
    res = lph_solve(p, rng=np.random.default_rng(1))
    assert res.bound == 2
    assert res.D == 2
    assert len(res.solutions) == 2
    for sgn in (1.0, -1.0):
        expected = np.array([0.6 * sgn, 0.8 * sgn, 0.5 * sgn], dtype=complex)
        assert any(np.abs(s - expected).max() < 1e-8 for s in res.solutions)


def test_lph_solve_empty_solution_set():
    # on V(x1*x2 - 1) the constraint J*lambda = beta with J = (1, 0)^T forces
    # lambda = beta_1 and 0 = beta_2: inconsistent, so no solutions
    f = PolySystem(2, [parse_poly("x*y - 1", XY)])
    J = [[parse_poly("x", XY)], [parse_poly("0", XY)]]
    p = LPHProblem(f, J, np.array([0.0, 1.0]))
    res = lph_solve(p, rng=np.random.default_rng(2))
    assert res.solutions == []


def test_lph_solve_constant_J_degenerate_route():
    # linear f: the Jacobian is constant so lambda decouples, and with
    # lambda = 1 every point of the line x + y = 1 solves the system: none
    # is isolated, as the bound 0 says
    f = PolySystem(2, [parse_poly("x + y - 1", XY)])
    p = LPHProblem(f, jacobian_transpose(f), np.array([1.0, 1.0]))
    res = lph_solve(p, rng=np.random.default_rng(3))
    assert res.solutions == []
    assert res.D == 1 and len(res.witness_M) == 1
    assert res.bound == 0 and res.omega_count == 0
    assert (res.converged, res.divergent, res.failed) == (0, 0, 0)


def test_lph_solve_sextic_stage1_counts():
    f = PolySystem(2, [parse_poly(SEXTIC, XY)])
    p = LPHProblem(f, jacobian_transpose(f), np.array([0.874645, 1.0351]))
    res = lph_solve(p, rng=np.random.default_rng(0))
    assert res.D == 6
    assert res.omega_count == 30
    assert res.bound == 30
    assert len(res.solutions) == 6
    reals = [s for s in res.solutions if np.abs(s.imag).max() < 1e-6]
    expected = [(-1.44299, -1.32941), (-0.781143, 1.28371)]
    for ex in expected:
        assert any(np.abs(s[:2].real - np.array(ex)).max() < 1e-4 for s in reals)


def test_lph_solve_solutions_satisfy_original_system():
    rng = np.random.default_rng(9)
    f = parse("x^2 + y*z - 2\nx + y^2 - z - 1", XYZ)
    p = LPHProblem(f, jacobian_transpose(f), rng.normal(size=3) + 0j)
    res = lph_solve(p, rng=np.random.default_rng(10))
    F = p.full_system()
    assert len(res.solutions) <= res.bound
    for s in res.solutions:
        assert F.residual(s) < 1e-6


def test_sextic_paths_to_infinity_end_by_norm_in_few_steps(tracked_paths):
    # criterion 2's problem: two H2 paths go to infinity.  They must leave
    # through the divergence norm, not crawl near the minimum step because
    # the pivot rule calls their Jacobian singular.
    f = PolySystem(2, [parse_poly(SEXTIC, XY)])
    p = LPHProblem(f, jacobian_transpose(f), np.array([0.874645, 1.0351], dtype=complex))
    res = lph_solve(p, rng=np.random.default_rng(7))
    # (x, y, lambda): H2; H1 would track (x, y)
    h2 = [r for H, _, r in tracked_paths if H.n_vars == 3]
    assert (res.converged, res.divergent, res.failed) == (6, 2, 22)
    assert len(h2) == 30
    divergent = [r for r in h2 if r.status == "Divergent"]
    assert len(divergent) == 2
    for r in divergent:
        assert r.reason == "norm-exceeded"
        assert r.steps_taken < 1000
    assert sum(r.steps_taken for r in h2) < 4000
    # the stage lasts as long as its longest path: 412 lockstep iterations
    # with an Euler predictor, about 200 with the cubic one
    assert max(r.steps_taken for r in h2) <= 250


def _sextic_witness(seed):
    """Criterion 1's real witness set of the sextic at solver seed ``seed``,
    as the benchmark's sextic_witness workload computes it."""
    f = PolySystem(2, [parse_poly(SEXTIC, XY)])
    return real_witness_set(f, rng=np.random.default_rng(seed), beta=[0.874645, 1.0351],
                            c_values=[-3.9825])


def test_sextic_h2_paths_do_not_stall_at_seed_36(tracked_paths):
    # without a Newton step in every corrector, a cubic prediction far from
    # the origin passes the magnitude-scaled residual test off the path,
    # the next step fails the pull-back check, and one H2 path's step size
    # cycles near 1e-4 for about 7900 steps
    _sextic_witness(36)
    h2 = [r for H, _, r in tracked_paths if H.n_vars == 3]
    assert len(h2) == 30
    assert max(r.steps_taken for r in h2) < 1000


@pytest.mark.xfail(strict=True, reason="at seed 41 all 23 Failed H2 paths are refine-rejected "
                   "and the regular critical point near (-0.78114, 1.28372) is lost")
def test_sextic_witness_keeps_every_golden_point_at_seed_41():
    rws = _sextic_witness(41)
    golden = np.array([-0.781143, 1.28371])
    assert any(np.abs(wp.point - golden).max() < 1e-4 for wp in rws.points)


def _path_bytes(res):
    """Every field of a PathResult, floats and the endpoint as bytes."""
    end = None if res.endpoint is None else res.endpoint.tobytes()
    return (res.status, res.reason, res.steps_taken, float(res.t_reached).hex(),
            float(res.residual).hex(), end)


def _assert_batch_invariant(stages):
    """Each stage (pair, starts, results) tracked again together, in
    reverse order, and each start alone give its results byte for byte."""
    for H, starts, results in stages:
        expected = [_path_bytes(r) for r in results]
        assert [_path_bytes(r) for r in track_stage(H, starts)] == expected
        assert [_path_bytes(r) for r in track_stage(H, starts[::-1])] == expected[::-1]
        assert [_path_bytes(track_stage(H, [z0])[0]) for z0 in starts] == expected


def _stages(tracked_paths):
    """The recorded paths grouped back into their stages."""
    stages = []
    for H, z0, res in tracked_paths:
        if not stages or stages[-1][0] is not H:
            stages.append((H, [], []))
        stages[-1][1].append(z0)
        stages[-1][2].append(res)
    return stages


def test_sextic_h2_stage_is_batch_invariant(tracked_paths):
    # criterion 2's H2 stage: 30 paths ending Converged, Divergent and
    # Failed, each with the bytes it gets tracked alone or in another order
    f = PolySystem(2, [parse_poly(SEXTIC, XY)])
    p = LPHProblem(f, jacobian_transpose(f), np.array([0.874645, 1.0351], dtype=complex))
    lph_solve(p, rng=np.random.default_rng(7))
    stages = _stages(tracked_paths)
    assert [len(starts) for _, starts, _ in stages] == [30]
    assert {r.status for r in stages[0][2]} == {"Converged", "Divergent", "Failed"}
    _assert_batch_invariant(stages)


def test_k2_random_batch_stages_are_batch_invariant(tracked_paths):
    # criterion 4's system 1 (n = 3, k = 2) at its solver seed: three H1
    # slice moves of 4 paths and an H2 stage of 8
    rng = np.random.default_rng(1001)
    n = int(rng.integers(2, 4))
    k = int(rng.integers(1, n))
    exps = [e for e in itertools.product(range(3), repeat=n) if sum(e) <= 2]
    f = PolySystem(n, [MultiPoly(n, [(e, rng.normal()) for e in exps]) for _ in range(k)])
    p = LPHProblem(f, jacobian_transpose(f), rng.normal(size=n) + 0j)
    lph_solve(p, rng=np.random.default_rng(2001))
    stages = _stages(tracked_paths)
    assert (n, k) == (3, 2)
    assert [len(starts) for _, starts, _ in stages] == [4, 4, 4, 8]
    _assert_batch_invariant(stages)


def test_h1_track_compiles_one_evaluator(monkeypatch):
    # the slice-move homotopy's only: its endpoints are used as tracked
    f = PolySystem(2, [parse_poly(SEXTIC, XY)])
    rng = np.random.default_rng(3)
    M, L = witness_points(f, rng)
    L_prime = random_slice(f, rng)
    compiled = []
    original = lph.tracker.SystemEvaluator.__init__

    def counting(self, system):
        compiled.append(system)
        original(self, system)

    monkeypatch.setattr(lph.tracker.SystemEvaluator, "__init__", counting)
    warnings = []
    moved = h1_track(M, f, L, L_prime, 0.6 + 0.8j, warnings)
    assert len(moved) == 6 and warnings == []
    assert all(f.residual(x) < 1e-8 for x in moved)
    assert len(compiled) == 1


def test_h1_path_that_fails_drops_its_point_with_one_warning(monkeypatch, caplog):
    # two quadrics in R^3 (k = 2), so H1 tracks paths.  One planted start
    # off its start system: track_path records it as start-rejected, and
    # h1_track drops the point with one warning, logged once
    f = parse("x^2 + y*z - 2\nx + y^2 - z - 1", XYZ)
    p = LPHProblem(f, jacobian_transpose(f), np.random.default_rng(9).normal(size=3) + 0j)
    clean = lph_solve(p, rng=np.random.default_rng(10))
    original = lph.solver.track_stage
    stages = []

    def planting(H, starts):
        starts = list(starts)
        if not stages:
            starts[0] = starts[0] + 1.0
        stages.append(original(H, starts))
        return stages[-1]

    monkeypatch.setattr(lph.solver, "track_stage", planting)
    with caplog.at_level(logging.WARNING, logger="lph.solver"):
        planted = lph_solve(p, rng=np.random.default_rng(10))
    msg = "H1 path ended Failed; point dropped"
    assert stages[0][0].reason == START_REJECTED
    assert clean.warnings == [] and planted.warnings == [msg]
    assert [r.getMessage() for r in caplog.records] == [msg]
    assert planted.omega_count == clean.omega_count - 1


def test_lph_solve_assembles_no_original_system_and_refines_nothing(monkeypatch):
    # two quadrics in R^3 (k = 2): each witness and H1 system has two
    # nonlinear rows, so every stage tracks paths and uses their endpoints
    # as tracked.  lph_solve compiles the witness pair, one H1 pair per
    # choice and H2, and never assembles {f, J * lambda - beta} or calls
    # refine_on
    rng = np.random.default_rng(9)
    f = parse("x^2 + y*z - 2\nx + y^2 - z - 1", XYZ)
    p = LPHProblem(f, jacobian_transpose(f), rng.normal(size=3) + 0j)
    compiled = []
    original = lph.tracker.SystemEvaluator.__init__

    def counting(self, system):
        compiled.append(system)
        original(self, system)

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"lph_solve called {name}")
        return call

    monkeypatch.setattr(lph.tracker.SystemEvaluator, "__init__", counting)
    monkeypatch.setattr(LPHProblem, "full_system", forbidden("full_system"))
    # every module that imported refine_on by name holds its own binding
    refine_on = lph.start_systems.refine_on
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lph" and getattr(module, "refine_on", None) is refine_on:
            monkeypatch.setattr(module, "refine_on", forbidden("refine_on"))
    res = lph_solve(p, rng=np.random.default_rng(10))
    assert res.converged > 0
    assert len(compiled) == 1 + len(list(enumerate_choices(p.n, p.k, p.d))) + 1


def test_lph_solve_on_a_hypersurface_refines_only_line_points(monkeypatch):
    # criterion 2's sextic (k = 1): the witness stage and every H1 target
    # are solved on a line, each compiling one refinement pair, and
    # refine_on runs only on the roots line_points accepts
    f = PolySystem(2, [parse_poly(SEXTIC, XY)])
    p = LPHProblem(f, jacobian_transpose(f), np.array([0.874645, 1.0351], dtype=complex))
    compiled, refined, returned = [], [], []
    original_init = lph.tracker.SystemEvaluator.__init__
    original_refine = lph.start_systems.refine_on
    original_line = lph.start_systems.line_points

    def counting(self, system):
        compiled.append(system)
        original_init(self, system)

    def refine_recording(R, point):
        refined.append(original_refine(R, point))
        return refined[-1]

    def line_recording(F):
        returned.append(original_line(F))
        return returned[-1]

    monkeypatch.setattr(lph.tracker.SystemEvaluator, "__init__", counting)
    monkeypatch.setattr(lph.start_systems, "refine_on", refine_recording)
    monkeypatch.setattr(lph.start_systems, "line_points", line_recording)
    monkeypatch.setattr(lph.solver, "line_points", line_recording)
    res = lph_solve(p, rng=np.random.default_rng(7))
    choices = len(list(enumerate_choices(p.n, p.k, p.d)))
    assert (res.converged, res.divergent, res.failed) == (6, 2, 22)
    assert len(compiled) == 1 + choices + 1
    assert len(returned) == 1 + choices and all(len(pts) == 6 for pts in returned)
    assert len(refined) == 6 * (1 + choices)
    assert all(x is y for x, y in zip(refined, [x for pts in returned for x in pts]))


@pytest.mark.parametrize("system_seed, solver_seed", [(1006, 26), (1001, 21)])
def test_lph_solve_lists_a_conjugate_pair_negative_imaginary_part_first(
        system_seed, solver_seed):
    # criterion 4's random dense quadric systems: the members of a conjugate
    # pair have real parts equal up to round-off, so the order of the pair
    # must come from the imaginary parts, not from the last bit of the reals
    rng = np.random.default_rng(system_seed)
    n = int(rng.integers(2, 4))
    k = int(rng.integers(1, n))
    exps = [e for e in itertools.product(range(3), repeat=n) if sum(e) <= 2]
    f = PolySystem(n, [MultiPoly(n, [(e, rng.normal()) for e in exps]) for _ in range(k)])
    p = LPHProblem(f, jacobian_transpose(f), rng.normal(size=n) + 0j)
    sols = lph_solve(p, rng=np.random.default_rng(solver_seed)).solutions
    pairs = 0
    for i, s in enumerate(sols):
        if abs(s[0].imag) < 1e-6:
            continue
        [j] = [j for j, t in enumerate(sols) if np.abs(t - s.conj()).max() < 1e-6]
        assert (i < j) == (s[0].imag < 0)
        pairs += 1
    assert pairs >= 2


def test_h2_counts_partition_omega():
    # criterion 2's problem: every H2 start ends in exactly one count, the
    # start-rejected and refine-rejected ones included
    f = PolySystem(2, [parse_poly(SEXTIC, XY)])
    p = LPHProblem(f, jacobian_transpose(f), np.array([0.874645, 1.0351], dtype=complex))
    res = lph_solve(p, rng=np.random.default_rng(7))
    assert res.omega_count == 30
    assert res.converged + res.divergent + res.failed == res.omega_count


@pytest.mark.parametrize("seed", range(8))
def test_critical_point_on_coordinate_hyperplane_is_found(seed):
    # f(0, 0.7) = 0 and beta = grad f(0, 0.7), so (0, 0.7, 1) solves the
    # critical system.  Its x is ~1e-17 after refinement: a column scale by
    # |z| applied to every Jacobian squashes the x column there, the
    # contraction test sees a singular matrix and the path is lost.
    rng = np.random.default_rng(seed)
    c = rng.normal(size=6)
    c[0] = -(0.7 * c[2] + 0.49 * c[5])
    f = PolySystem(2, [MultiPoly(2, list(zip(
        [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], c)))])
    beta = np.array([c[1] + 0.7 * c[4], c[2] + 1.4 * c[5]], dtype=complex)
    res = lph_solve(LPHProblem(f, jacobian_transpose(f), beta),
                    rng=np.random.default_rng(seed))
    assert res.failed == 0
    assert any(np.abs(s - np.array([0.0, 0.7, 1.0])).max() < 1e-6 for s in res.solutions)


def test_zero_jacobian_row_tracks_no_critical_path(tracked_paths):
    # stage 0 of real_witness_set on two disjoint cylinders in R^3: the z
    # row of J is identically zero, so its equation reads 0 = beta_z and the
    # critical system has no solution
    f = parse("(x^2 + y^2 - 1)*((x - 3)^2 + y^2 - 1)", XYZ)
    p = LPHProblem(f, jacobian_transpose(f), np.array([0.8, -1.1, 0.6], dtype=complex))
    res = lph_solve(p, rng=np.random.default_rng(0))
    # only the witness stage runs, and on a line: the quartic meets a random
    # line 4 times, and no path is tracked
    assert tracked_paths == []
    assert res.D == len(res.witness_M) == 4
    assert (res.solutions, res.omega_count, res.warnings) == ([], 0, [])


def test_parabola_critical_point_falls_back_to_tracking(tracked_paths):
    # the parabola's Jacobian is affine (d = 1), but its critical line
    # {J'_1 = 0} is parallel to the y axis, on which y - x^2 has degree 1:
    # line_points declines, and lph_solve tracks its 2 H2 paths (its H1
    # slice move is solved on a line) to the one critical point
    f = PolySystem(2, [parse_poly("y - x^2", XY)])
    p = LPHProblem(f, jacobian_transpose(f), np.array([0.6, 0.8], dtype=complex))
    J_prime = normalize(p).J_prime
    assert line_points(PolySystem(2, [f.polys[0], J_prime[0][0]])) is None
    res = lph_solve(p, rng=np.random.default_rng(0))
    assert [H.n_vars for H, _, _ in tracked_paths] == [3, 3]
    assert (res.omega_count, res.converged, res.divergent, res.failed) == (2, 1, 1, 0)
    direct = solve_square(p.full_system(), rng=np.random.default_rng(1))
    assert len(res.solutions) == len(direct) == 1
    assert np.abs(res.solutions[0] - direct[0]).max() < 1e-8
