import logging

import numpy as np
import pytest

import lph.solver
from lph.linalg import SingularMatrixError
from lph.poly import parse, parse_poly, PolySystem
from lph.start_systems import witness_points
from lph.witness import (
    augment,
    build_critical_system,
    full_rank_check,
    real_filter,
    real_witness_set,
    witness_bound,
)

XY = ["x", "y"]

SEXTIC = "(y^2 - x^3 + 4*x + 1)*((x - y + 6)^3 + x + y)"


def _circle():
    return PolySystem(2, [parse_poly("x^2 + y^2 - 1", XY)])


def test_build_critical_system_circle():
    prob = build_critical_system(_circle(), np.array([0.0, 1.0]))
    F = prob.full_system()
    # {x^2+y^2-1, 2x*l, 2y*l - 1} with solutions (0, +/-1, +/-1/2)
    for sgn in (1.0, -1.0):
        z = np.array([0.0, sgn, sgn * 0.5], dtype=complex)
        assert F.residual(z) < 1e-12


def test_augment_appends_hyperplane():
    g = augment(_circle(), np.array([0.0, 1.0]), 0.0)
    assert len(g) == 2
    assert g.polys[1] == parse_poly("y", XY)


def test_augment_paper_line():
    g = augment(_circle(), np.array([0.874645, 1.0351]), -3.9825)
    assert g.polys[1] == parse_poly("0.874645*x + 1.0351*y - 3.9825", XY)


def test_augment_recursion_reaches_square():
    f = PolySystem(3, [parse_poly("x^2 + y^2 + z^2 - 1", ["x", "y", "z"])])
    beta = np.array([1.0, 2.0, 3.0])
    g = augment(augment(f, beta, 0.5), beta, -0.5)
    assert len(g) == g.n_vars == 3


def test_real_filter_threshold():
    square = parse("x - 1\ny - 2", XY)
    kept = real_filter([np.array([1 + 1e-9j, 2.0])], square)
    assert len(kept) == 1
    assert np.allclose(kept[0], [1.0, 2.0])
    assert kept[0].dtype == np.float64
    dropped = real_filter([np.array([1 + 0.5j, 2.0])], square)
    assert dropped == []


def test_real_filter_refines_onto_real_locus():
    system = parse("x^2 - 2\ny - x", XY)
    kept = real_filter([np.array([1.41421 + 1e-8j, 1.41422 - 1e-8j])], system)
    assert len(kept) == 1
    assert abs(kept[0][0] - np.sqrt(2)) < 1e-8


def test_witness_bound_values():
    assert witness_bound(2, 1, 6, 6) == 36
    assert witness_bound(3, 2, 3, 7) == 35


def test_witness_bound_two_terms_when_n_is_k_plus_1():
    # j runs over {0, 1}
    assert witness_bound(4, 3, 2, 5) == 3 * 1 * 5 + 1 * 1 * 5


def test_witness_bound_validation():
    with pytest.raises(ValueError):
        witness_bound(2, 2, 3, 1)
    with pytest.raises(ValueError):
        witness_bound(2, 1, 1, 1)


def test_full_rank_check_circle():
    f = _circle()
    report = full_rank_check(f, [np.array([1.0, 0.0]), np.array([0.6, 0.8])])
    assert all(r["rank"] == 1 and not r["deficient"] for r in report)


def test_full_rank_check_detects_non_radical():
    f = PolySystem(2, [parse_poly("x^2", XY)])
    report = full_rank_check(f, [np.array([0.0, 1.0])])
    assert report[0]["deficient"]


def test_real_witness_set_square_case():
    f = parse("x^2 - 1\ny^2 - 4", XY)
    rws = real_witness_set(f, rng=np.random.default_rng(0))
    pts = sorted(tuple(np.round(wp.point, 6)) for wp in rws.points)
    assert pts == [(-1.0, -2.0), (-1.0, 2.0), (1.0, -2.0), (1.0, 2.0)]
    assert all(wp.stage == 0 for wp in rws.points)


def test_real_witness_set_circle_stages():
    rws = real_witness_set(_circle(), rng=np.random.default_rng(4))
    assert len(rws.betas) == 1
    beta = rws.betas[0]
    unit = beta / np.linalg.norm(beta)
    stage0 = [wp.point for wp in rws.points if wp.stage == 0]
    assert len(stage0) == 2
    for sgn in (1.0, -1.0):
        assert any(np.abs(p - sgn * unit).max() < 1e-8 for p in stage0)
    assert len(rws.points) <= 4


def test_real_witness_set_points_on_variety():
    f = PolySystem(2, [parse_poly(SEXTIC, XY)])
    rws = real_witness_set(f, rng=np.random.default_rng(1))
    assert rws.points
    for wp in rws.points:
        assert f.residual(wp.point.astype(complex)) < 1e-6


# a unit circle centred at (100, 0), times a factor with no real zero; at the
# circle the sextic's round-off floor is about 1e-4, far above 1e-6
FAR_CIRCLE = "((x-100)^2 + y^2 - 1)*(x^4 + y^4 + 1)"


@pytest.mark.parametrize("seed", range(5))
def test_real_witness_set_far_circle(seed):
    f = PolySystem(2, [parse_poly(FAR_CIRCLE, XY)])
    rws = real_witness_set(f, rng=np.random.default_rng(seed))
    assert rws.points
    for wp in rws.points:
        x, y = wp.point
        assert abs(np.hypot(x - 100.0, y) - 1.0) < 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_real_witness_set_of_the_circle_tracks_no_path(tracked_paths, monkeypatch, seed):
    # the circle's witness slice, its critical points (its Jacobian is
    # affine) and its square stage all come from lines; the points are the
    # ones the tracked critical route keeps
    rws = real_witness_set(_circle(), rng=np.random.default_rng(seed))
    assert tracked_paths == []
    monkeypatch.setattr(lph.solver, "line_points", lambda F: None)
    tracked = real_witness_set(_circle(), rng=np.random.default_rng(seed))
    assert tracked_paths
    assert len(rws.points) == len(tracked.points) >= 2
    for wp, wq in zip(rws.points, tracked.points):
        assert wp.stage == wq.stage
        assert np.abs(wp.point - wq.point).max() < 1e-8


def test_real_witness_set_reproducible():
    a = real_witness_set(_circle(), rng=np.random.default_rng(7))
    b = real_witness_set(_circle(), rng=np.random.default_rng(7))
    assert len(a.points) == len(b.points)
    for pa, pb in zip(a.points, b.points):
        assert np.array_equal(pa.point, pb.point)
        assert pa.stage == pb.stage


def test_real_witness_set_rejects_overdetermined():
    f = parse("x - 1\ny - 1\nx + y", XY)
    with pytest.raises(ValueError):
        real_witness_set(f)


CYLINDERS = [
    ["x^2 + y^2 - 1"],
    ["x^2 + y^2 - 1", "(x - 3)^2 + y^2 - 1"],
]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("factors", CYLINDERS, ids=["cylinder", "two-cylinders"])
def test_real_witness_set_surface_has_a_point_on_every_component(factors, seed):
    # V(f) in R^3 is one cylinder per factor.  Stage 1 slices with
    # betas[0] . x + c_0 = 0, on which betas[0] . x is constant, so it needs
    # an objective of its own to have isolated critical points.
    xyz = ["x", "y", "z"]
    f = PolySystem(3, [parse_poly("*".join(f"({q})" for q in factors), xyz)])
    rws = real_witness_set(f, rng=np.random.default_rng(seed))
    assert len(rws.betas) == 2
    for q in factors:
        circle = parse_poly(q, xyz)
        assert any(abs(circle.evaluate(wp.point.astype(complex))) < 1e-6
                   for wp in rws.points), q


def test_surface_stage_one_takes_the_line_route_in_its_witness_stage(tracked_paths):
    # stage 1 of real_witness_set on a cubic surface in R^3: {f, hyperplane}
    # and one slice hyperplane leave one nonlinear row, so the witness
    # points are the cubic's 3 roots on a line, and no path is tracked
    xyz = ["x", "y", "z"]
    f = PolySystem(3, [parse_poly("x^3 + y^2*z - x*z + y - 1", xyz)])
    cur = augment(f, [0.9, -1.2, 0.7], 0.4)
    M, L = witness_points(cur, np.random.default_rng(0))
    assert tracked_paths == []
    assert len(M) == 3
    for x in M:
        assert cur.residual(x) < 1e-12
        assert abs(L[0].evaluate(x)) < 1e-12


def test_real_witness_set_logs_each_solver_warning_once(monkeypatch, caplog):
    # lph_solve logs its warnings where they arise; real_witness_set does
    # not log them again.  The cubic's Jacobian has degree 2, so its
    # critical stage back-solves lambda (a quadric's comes from a line)
    original = lph.solver.backsolve_lambda
    calls = []

    def singular_once(x_star, G, rows):
        calls.append(rows)
        if len(calls) == 1:
            raise SingularMatrixError("planted")
        return original(x_star, G, rows)

    monkeypatch.setattr(lph.solver, "backsolve_lambda", singular_once)
    with caplog.at_level(logging.WARNING):
        real_witness_set(PolySystem(2, [parse_poly("y^2 - x^3 + 4*x + 1", XY)]),
                         rng=np.random.default_rng(0))
    assert len(calls) > 1
    dropped = [r for r in caplog.records
               if "singular lambda back-solve" in r.getMessage()]
    assert len(dropped) == 1
