import cmath
import itertools

import numpy as np
import pytest

import lph.solver
import lph.start_systems
import lph.tracker
from lph.poly import MultiPoly, parse, parse_poly, PolySystem, jacobian_transpose
from lph.solver import LPHProblem, lph_solve
from lph.start_systems import (
    ZeroPolynomialError,
    dedup_points,
    line_points,
    random_slice,
    refine_on,
    solve_square,
    total_degree_start,
    unit_complex,
    witness_points,
)
from lph.tracker import (
    CONVERGED,
    ENDPOINT_TOL,
    FAILED,
    START_REJECTED,
    HomotopyPair,
    residual_within,
)

XY = ["x", "y"]
XYZ = ["x", "y", "z"]

SEXTIC = "(y^2 - x^3 + 4*x + 1)*((x - y + 6)^3 + x + y)"


def test_unit_complex_modulus():
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert abs(abs(unit_complex(rng)) - 1.0) < 1e-12


def test_random_slice_counts_and_degrees():
    circle = PolySystem(2, [parse_poly("x^2 + y^2 - 1", XY)])
    rng = np.random.default_rng(0)
    sl = random_slice(circle, rng)
    assert len(sl) == 1
    assert all(l.degree == 1 for l in sl)

    f3 = parse("x*y - 1\nz - x", XYZ)
    sl3 = random_slice(f3, np.random.default_rng(0))
    assert len(sl3) == 1


def test_random_slice_reseed_reproduces():
    circle = PolySystem(2, [parse_poly("x^2 + y^2 - 1", XY)])
    a = random_slice(circle, np.random.default_rng(123))
    b = random_slice(circle, np.random.default_rng(123))
    assert a[0] == b[0]


def test_random_slice_requires_underdetermined():
    square = parse("x - 1\ny - 1", XY)
    with pytest.raises(ValueError):
        random_slice(square, np.random.default_rng(0))


def test_total_degree_roots_cube_roots_of_unity():
    _, roots = total_degree_start([3], [1.0 + 0j])
    roots = sorted(roots, key=lambda z: cmath.phase(z[0]))
    expected = sorted(
        [cmath.exp(2j * cmath.pi * k / 3) for k in range(3)], key=cmath.phase
    )
    for r, e in zip(roots, expected):
        assert abs(r[0] - e) < 1e-12


def test_total_degree_roots_count():
    _, roots = total_degree_start([2, 1], [1.0, 2.0])
    assert len(roots) == 2


def test_total_degree_roots_satisfy_start_system():
    rng = np.random.default_rng(4)
    system, roots = total_degree_start([2, 2], [unit_complex(rng), unit_complex(rng)])
    assert len(roots) == 4
    for r in roots:
        assert system.residual(r) < 1e-12


def test_dedup_points():
    pts = [np.array([1.0, 2.0]), np.array([1.0 + 1e-8, 2.0]), np.array([3.0, 4.0])]
    assert len(dedup_points(pts)) == 2


def test_refine_on_rejects_non_roots():
    f = parse("x^2 + 1", ["x"])
    assert refine_on(HomotopyPair(f, f, 1.0), np.array([50.0 + 0j])) is None


def test_refine_on_rejects_points_newton_has_not_contracted(monkeypatch):
    # at the double root of (x - 1)^2 Newton only halves the error, so the
    # residual test passes while the next Newton step is far above round-off
    f = parse("x^2 - 2*x + 1", ["x"])
    H = HomotopyPair(f, f, 1.0)
    tested = []
    original = lph.tracker.contracted

    def recording(step, z):
        tested.append((z.copy(), original(step, z)))
        return tested[-1][1]

    monkeypatch.setattr(lph.tracker, "contracted", recording)
    assert refine_on(H, np.array([1.001 + 0j])) is None
    # Newton and the two polish steps end at 1 + 1e-3 / 32
    [(z, ok)] = tested
    assert z[0] == pytest.approx(1.00003125, abs=1e-12)
    residual = float(np.abs(H.target_values(z)).max())
    assert residual_within(residual, ENDPOINT_TOL, H.target_magnitude(z))
    assert not ok


def test_refine_on_keeps_a_real_start_exactly_real():
    # complex Newton from a real point on a real-coefficient system never
    # leaves the reals, so real_filter can keep the real part unchanged
    f = parse("x^2 + y^2 - 1\n0.874645*x + 1.0351*y - 0.3", XY)
    refined = refine_on(HomotopyPair(f, f, 1.0), np.array([0.98 + 0j, -0.52 + 0j]))
    assert refined is not None
    assert f.residual(refined) < 1e-12
    assert np.all(refined.imag == 0.0)


@pytest.mark.parametrize("start", [
    0.0,   # x^2 - 1 reads -1 there, and its Jacobian is singular
    1e6,   # far from both roots of x^2 - 1
], ids=["singular", "far"])
def test_track_stage_records_a_start_the_start_test_rejects(tracked_paths, start):
    # every start reaches the stage loop as given; its start test rejects
    # the one that is not a root of the start system, which the stage
    # records and returns, and the other start is tracked
    start_system, target = parse("x^2 - 1", ["x"]), parse("x^2 - 4", ["x"])
    H = HomotopyPair(start_system, target, 0.6 + 0.8j)
    starts = [np.array([start + 0j]), np.array([1.0 + 0j])]
    rejected, res = lph.start_systems.track_stage(H, starts)
    assert rejected == lph.tracker.PathResult(FAILED, None, 0.0, float("inf"), 0,
                                              START_REJECTED)
    assert [z[0] for _, z, _ in tracked_paths] == [start, 1.0]
    assert [r for _, _, r in tracked_paths] == [rejected, res]
    assert res.status == CONVERGED
    assert abs(abs(res.endpoint[0]) - 2.0) < 1e-12


@pytest.mark.parametrize("text", ["x^2 - 1\ny - 2", "x^3 - 1\ny^2 + x - 2"])
def test_solve_square_compiles_one_evaluator(monkeypatch, text):
    # the homotopy's, whatever the path count: endpoints are not re-refined
    compiled = []
    original = lph.tracker.SystemEvaluator.__init__

    def counting(self, system):
        compiled.append(system)
        original(self, system)

    monkeypatch.setattr(lph.tracker.SystemEvaluator, "__init__", counting)
    sols = solve_square(parse(text, XY))
    assert len(sols) >= 2
    assert len(compiled) == 1


def test_solve_square_quadratic():
    sols = solve_square(parse("x^2 - 1", ["x"]))
    vals = sorted(round(s[0].real, 8) for s in sols)
    assert vals == [-1.0, 1.0]
    assert all(abs(s[0].imag) < 1e-10 for s in sols)


def test_solve_square_circle_line():
    sols = solve_square(parse("x^2 + y^2 - 1\nx - y", XY))
    r = np.sqrt(2) / 2
    expect = [np.array([r, r]), np.array([-r, -r])]
    assert len(sols) == 2
    for e in expect:
        assert any(np.abs(s - e).max() < 1e-8 for s in sols)


def test_solve_square_sextic_slice_has_six_solutions():
    f = PolySystem(2, [parse_poly(SEXTIC, XY)])
    rng = np.random.default_rng(0)
    sl = random_slice(f, rng)
    sols = solve_square(PolySystem(2, f.polys + sl), rng=rng)
    assert len(sols) == 6


def test_solve_square_rejects_zero_polynomial():
    f = PolySystem(1, [parse_poly("0", ["x"])])
    with pytest.raises(ZeroPolynomialError):
        solve_square(f)


def test_solve_square_rejects_non_square():
    with pytest.raises(ValueError):
        solve_square(parse("x + y", XY))


def test_witness_points_circle():
    circle = PolySystem(2, [parse_poly("x^2 + y^2 - 1", XY)])
    M, sl = witness_points(circle, np.random.default_rng(0))
    assert len(M) == 2
    assert all(circle.residual(m) < 1e-8 for m in M)
    assert all(abs(l.evaluate(m)) < 1e-8 for m in M for l in sl)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_witness_points_sextic_degree(seed):
    f = PolySystem(2, [parse_poly(SEXTIC, XY)])
    M, _ = witness_points(f, np.random.default_rng(seed))
    assert len(M) == 6


def test_witness_points_sparse_pair_degree():
    f = parse("-62*x*y + 97*y - 4*x*y*z - 4\n80*x - 44*x*y + 71*y^2 - 17*y^3 + 2", XYZ)
    M, _ = witness_points(f, np.random.default_rng(0))
    assert len(M) == 7


def _same_points(a, b, tol=1e-8):
    """Equal counts, and every point of each list within tol (relative to
    max(1, |point|)) of a point of the other."""
    def near(x, y):
        return np.abs(x - y).max() < tol * max(1.0, np.abs(y).max())

    return (len(a) == len(b) and all(any(near(x, y) for y in b) for x in a)
            and all(any(near(y, x) for x in a) for y in b))


def _both_routes(tracked_paths, monkeypatch, call, seed, module=lph.start_systems):
    """call(rng) on the line route, then with module's line_points returning
    None, each with rng seeded by seed: (line result, tracked result, paths
    the line route tracked, whether both left their rng in the same
    state)."""
    before = len(tracked_paths)
    rng_line = np.random.default_rng(seed)
    line = call(rng_line)
    n_tracked = len(tracked_paths) - before
    with monkeypatch.context() as m:
        m.setattr(module, "line_points", lambda F: None)
        rng_tracked = np.random.default_rng(seed)
        by_paths = call(rng_tracked)
    same_rng = rng_line.bit_generator.state == rng_tracked.bit_generator.state
    return line, by_paths, n_tracked, same_rng


@pytest.mark.parametrize("seed", range(5))
def test_line_points_match_the_tracked_route_on_sextic_slices(tracked_paths, monkeypatch,
                                                             seed):
    f = PolySystem(2, [parse_poly(SEXTIC, XY)])
    line, by_paths, n_tracked, same_rng = _both_routes(
        tracked_paths, monkeypatch, lambda rng: witness_points(f, rng)[0], seed)
    assert n_tracked == 0 and len(line) == 6
    # the route without line_points tracks the 6 total-degree paths
    assert len(tracked_paths) == 6
    assert _same_points(line, by_paths)
    assert same_rng


def _random_batch_hypersurfaces():
    """Criterion 4's critical problems with k = 1, drawn in its order
    (system seed 1000 + i), as (i, problem): 17 dense quadrics."""
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, n))
        exps = [e for e in itertools.product(range(3), repeat=n) if sum(e) <= 2]
        f = PolySystem(n, [MultiPoly(n, [(e, rng.normal()) for e in exps])
                           for _ in range(k)])
        p = LPHProblem(f, jacobian_transpose(f), rng.normal(size=n) + 0j)
        if k == 1:
            yield i, p


def test_line_points_match_the_tracked_route_on_random_batch_hypersurfaces(tracked_paths,
                                                                          monkeypatch):
    # the witness stage of each of criterion 4's hypersurfaces at its solver
    # seed 2000 + i
    hypersurfaces = 0
    for i, p in _random_batch_hypersurfaces():
        hypersurfaces += 1
        line, by_paths, n_tracked, same_rng = _both_routes(
            tracked_paths, monkeypatch, lambda rng: witness_points(p.f, rng)[0], 2000 + i)
        assert n_tracked == 0 and len(line) == 2, i
        assert _same_points(line, by_paths), i
        assert same_rng, i
    assert hypersurfaces == 17
    # the route without line_points tracks 2 total-degree paths per system
    assert len(tracked_paths) == 2 * 17


def _counts(res):
    return res.D, res.omega_count, res.bound, res.converged, res.divergent, res.failed


def test_quadric_critical_points_match_the_tracked_route_on_random_batch(tracked_paths,
                                                                        monkeypatch):
    # each of criterion 4's hypersurfaces at its solver seed 2000 + i: a
    # quadric's Jacobian is affine (d = 1), so lph_solve takes its critical
    # points from a line and tracks no path; with lph.solver's line_points
    # returning None, it tracks H1 and H2
    hypersurfaces = 0
    for i, p in _random_batch_hypersurfaces():
        hypersurfaces += 1
        line, by_paths, n_tracked, same_rng = _both_routes(
            tracked_paths, monkeypatch, lambda rng: lph_solve(p, rng), 2000 + i, lph.solver)
        assert (p.d, n_tracked) == (1, 0), i
        assert _same_points(line.solutions, by_paths.solutions), i
        assert _counts(line) == _counts(by_paths), i
        assert same_rng, i
    assert hypersurfaces == 17
    # the tracked route moves the 2 witness points to the product line (H1)
    # and tracks them to the target (H2)
    assert len(tracked_paths) == 4 * 17


def test_non_reduced_hypersurface_falls_back_to_tracking(tracked_paths, monkeypatch):
    # every root of (x^2 + y^2 - 1)^2 on a line is double: refine_on accepts
    # all four near-double roots, but they are 2 distinct points against
    # the degree 4, so line_points declines and solve_square returns exactly
    # the total-degree route's points
    F = parse("(x^2 + y^2 - 1)^2\n0.3*x - 0.7*y + 0.2", XY)
    assert line_points(F) is None
    line, by_paths, n_tracked, same_rng = _both_routes(
        tracked_paths, monkeypatch, lambda rng: solve_square(F, rng), 0)
    assert n_tracked == 4
    assert len(line) == len(by_paths)
    assert all(np.array_equal(x, y) for x, y in zip(line, by_paths))
    assert same_rng


def test_line_points_declines_when_refine_on_rejects_a_root(monkeypatch):
    # one planted rejection among a sextic slice's six roots: line_points
    # returns None, and witness_points returns the tracked route's points
    # with the rng where the line route leaves it
    f = PolySystem(2, [parse_poly(SEXTIC, XY)])
    F = PolySystem(2, list(f.polys) + random_slice(f, np.random.default_rng(0)))
    original = lph.start_systems.refine_on
    calls = []

    def rejecting_the_third(R, point):
        calls.append(point)
        return None if len(calls) == 3 else original(R, point)

    with monkeypatch.context() as m:
        m.setattr(lph.start_systems, "refine_on", rejecting_the_third)
        assert line_points(F) is None
        assert len(calls) == 3
        calls.clear()
        rng_planted = np.random.default_rng(0)
        planted = witness_points(f, rng_planted)[0]
    assert len(calls) == 3
    with monkeypatch.context() as m:
        m.setattr(lph.start_systems, "line_points", lambda F: None)
        rng_tracked = np.random.default_rng(0)
        tracked = witness_points(f, rng_tracked)[0]
    assert len(planted) == len(tracked) == 6
    assert all(np.array_equal(x, y) for x, y in zip(planted, tracked))
    assert rng_planted.bit_generator.state == rng_tracked.bit_generator.state


def test_line_points_needs_one_nonlinear_row_and_independent_affine_rows():
    assert line_points(parse("x^2 - 1\ny^2 - 2", XY)) is None
    assert line_points(parse("x + y - 1\nx - y", XY)) is None
    assert line_points(parse("x^2 + y^2 + z^2 - 4\nx + y - 1\n2*x + 2*y", XYZ)) is None
    points = line_points(parse("x^2 + y^2 + z^2 - 4\nx + y - 1\nz - 1", XYZ))
    assert len(points) == 2
    assert all(abs(x[0] + x[1] - 1) < 1e-12 and abs(x[2] - 1) < 1e-12 for x in points)
    assert _same_points(points, [np.array([(1 + r) / 2, (1 - r) / 2, 1.0])
                                 for r in (np.sqrt(5), -np.sqrt(5))], tol=1e-12)
