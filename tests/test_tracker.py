import numpy as np
import pytest

import lph.tracker
from lph.poly import parse, parse_poly, PolySystem
from lph.tracker import (
    CONVERGED,
    DIVERGENT,
    FAILED,
    START_REJECTED,
    HomotopyPair,
    NoConvergenceError,
    PathResult,
    SystemEvaluator,
    davidenko_rhs,
    hermite_predict,
    newton_correct,
    residual_within,
    track_path,
    track_stage,
)

X = ["x"]
XY = ["x", "y"]


def _pair(start_text, target_text, var_names, gamma=1.0):
    start = parse(start_text, var_names)
    target = parse(target_text, var_names)
    return HomotopyPair(start, target, gamma)


def _magnitudes(system, z):
    return np.array([float(np.abs(p.coeffs) @ np.prod(np.abs(z) ** p.exps, axis=1))
                     for p in system.polys])


def _jacobian(system, z):
    return np.array([[p.differentiate(j).evaluate(z) for j in range(system.n_vars)]
                     for p in system.polys])


def test_evaluator_matches_direct_evaluation():
    f = parse("x^2 + y^2 - 1\nx*y - 2", XY)
    ev = SystemEvaluator(f)
    rng = np.random.default_rng(2)
    for _ in range(5):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert np.allclose(ev.values(z), f.evaluate(z))
        assert ev.jacobian(z) == pytest.approx(_jacobian(f, z))
        assert ev.magnitude(z).max() == pytest.approx(_magnitudes(f, z).max())


def test_pair_matches_direct_evaluation():
    # each system has a monomial the other lacks (x^2 in G, x^3 in F), so
    # the stacked evaluator's columns mix shared and one-sided monomials
    G = parse("x^2 + 2*y - 1\nx*y - 3", XY)
    F = parse("x^3 - y^2 + x\nx*y^2 + 1", XY)
    gamma = 0.6 - 0.8j
    rng = np.random.default_rng(5)
    T = np.array([0.0, 0.3, 1.0])
    for start, target in ((G, F), (F, F)):
        H = HomotopyPair(start, target, gamma)
        Z = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        h_dz, scale, values = H.evaluate(Z, H.weights(T))
        for p, (z, t) in enumerate(zip(Z, T)):
            g, f = start.evaluate(z), target.evaluate(z)
            dh_dz = (1 - t) * _jacobian(start, z) + gamma * t * _jacobian(target, z)
            mg, mf = _magnitudes(start, z).max(), _magnitudes(target, z).max()
            assert np.allclose(H.eval_h(z, t), (1 - t) * g + gamma * t * f)
            assert np.allclose(h_dz[p, :, 0], (1 - t) * g + gamma * t * f)
            assert np.allclose(H.eval_dh_dz(z, t), dh_dz)
            assert np.allclose(h_dz[p, :, 1:], dh_dz)
            assert np.allclose(H.dh_dt(values)[p], gamma * f - g)
            assert np.allclose(H.target_values(z), f)
            assert H.scale(z, t) == pytest.approx((1 - t) * mg + abs(gamma) * t * mf)
            assert scale[p] == pytest.approx((1 - t) * mg + abs(gamma) * t * mf)
            assert H.target_magnitude(z) == pytest.approx(mf)


def test_homotopy_boundaries():
    H = _pair("x - 1", "x - 3", X, gamma=0.5j)
    z = np.array([2.5 + 0.1j])
    assert np.allclose(H.eval_h(z, 0.0), (z - 1))
    assert np.allclose(H.eval_h(z, 1.0), 0.5j * (z - 3))


def test_homotopy_midpoint_hand_expansion():
    H = _pair("x - 1", "x - 3", X, gamma=1.0)
    z = np.array([5.0 + 0j])
    assert H.eval_h(z, 0.5)[0] == pytest.approx(z[0] - 2)


def test_homotopy_shape_mismatch():
    with pytest.raises(ValueError, match="identical shape"):
        HomotopyPair(parse("x - 1", X), parse("x + y\ny - 1", XY), 1.0)


def test_gamma_zero_rejected():
    with pytest.raises(ValueError):
        _pair("x - 1", "x - 2", X, gamma=0.0)


def test_newton_scalar():
    H = _pair("x^2 - 4", "x^2 - 4", X)
    z = newton_correct(H, np.array([2.1 + 0j]), 0.0)
    assert abs(z[0] - 2.0) < 1e-10


def test_newton_fixed_point_unchanged():
    H = _pair("x^2 - 4", "x^2 - 4", X)
    z0 = np.array([2.0 + 0j])
    z = newton_correct(H, z0, 0.0)
    assert np.array_equal(z, z0)


def test_newton_two_variable_intersection():
    H = _pair("x^2 + y^2 - 1\nx - y", "x^2 + y^2 - 1\nx - y", XY)
    z = newton_correct(H, np.array([0.8, 0.6], dtype=complex), 1.0)
    r = np.sqrt(2) / 2
    assert np.abs(z - np.array([r, r])).max() < 1e-10


def test_newton_nonconvergence_raises():
    H = _pair("x^2 + 1", "x^2 + 1", X)
    with pytest.raises(NoConvergenceError):
        # real start on a rootless-over-R polynomial stays real: no progress
        newton_correct(H, np.array([100.0 + 0j]), 0.0, max_iters=3)


def test_davidenko_constant_velocity_path():
    # H = (1-t)(z-1) + t(z-2) has solution z(t) = 1 + t, so dz/dt = 1
    H = _pair("x - 1", "x - 2", X)
    for t in [0.0, 0.3, 0.9]:
        rhs = davidenko_rhs(H, np.array([1.0 + t]), t)
        assert rhs[0] == pytest.approx(1.0)


def test_davidenko_stationary_when_start_equals_target():
    H = _pair("x - 1", "x - 1", X)
    assert davidenko_rhs(H, np.array([1.0 + 0j]), 0.0)[0] == pytest.approx(0.0)


def test_davidenko_matches_path_finite_difference():
    H = _pair("x^2 - 1", "x^2 - 3", X, gamma=1.0)
    z = np.array([1.0 + 0j])
    t, h = 0.4, 1e-5
    z_t = newton_correct(H, z + 0.4 * davidenko_rhs(H, z, 0.0), t)
    z_th = newton_correct(H, z_t, t + h)
    fd = (z_th - z_t) / h
    rhs = davidenko_rhs(H, z_t, t)
    assert np.abs(fd - rhs).max() < 1e-3


def test_track_quadratic_roots():
    H = _pair("x^2 - 1", "x^2 - 4", X, gamma=0.6 + 0.8j)
    endpoints = []
    for s in (1.0, -1.0):
        res = track_path(H, np.array([s + 0j]))
        assert res.status == CONVERGED
        assert res.t_reached == 1.0
        endpoints.append(res.endpoint[0])
    assert sorted(round(abs(e), 8) for e in endpoints) == [2.0, 2.0]
    assert abs(endpoints[0] + endpoints[1]) < 1e-8 or abs(endpoints[0] - endpoints[1]) < 1e-8


def test_track_constant_path():
    H = _pair("x - 1", "x - 1", X)
    res = track_path(H, np.array([1.0 + 0j]))
    assert res.status == CONVERGED
    assert res.steps_taken >= 1
    assert abs(res.endpoint[0] - 1.0) < 1e-10


def test_track_divergent_path():
    # target {1} has no root; H = (1-t)(z-1) + gamma*t -> z(t) escapes
    start = parse("x - 1", X)
    target = PolySystem(1, [parse_poly("0*x + 1", X)])
    H = HomotopyPair(start, target, 1.0)
    res = track_path(H, np.array([1.0 + 0j]))
    assert res.status == DIVERGENT


@pytest.mark.parametrize("start, target, gamma, z0, max_steps, status, reason", [
    ("x^2 - 1", "x^2 - 4", 0.6 + 0.8j, 1.0, 10000, "Converged", "converged"),
    # the target has one root; the other path leaves through the norm
    ("x^2 - 1", "x", 0.6 + 0.8j, -1.0, 10000, "Divergent", "norm-exceeded"),
    # with gamma = -1 the path meets the branch point x = 0 at t = 0.2
    ("x^2 - 1", "x^2 - 4", -1.0, 1.0, 10000, "Failed", "min-step"),
    ("x^2 - 1", "x^2 - 4", 0.6 + 0.8j, 1.0, 2, "Failed", "max-steps"),
    # Newton at a triple root does not contract to round-off
    ("x^3 - 1", "x^3", 0.6 + 0.8j, 1.0, 10000, "Failed", "refine-rejected"),
])
def test_path_end_reasons(monkeypatch, start, target, gamma, z0, max_steps, status, reason):
    monkeypatch.setattr(lph.tracker, "MAX_STEPS", max_steps)
    H = _pair(start, target, X, gamma=gamma)
    res = track_path(H, np.array([z0 + 0j]))
    assert (res.status, res.reason) == (status, reason)


def test_track_bad_start_rejected():
    # a start off the start system is a path outcome, which track_path
    # records; a start of the wrong length is a caller bug
    H = _pair("x - 1", "x - 2", X)
    assert track_path(H, np.array([5.0 + 0j])) == PathResult(
        FAILED, None, 0.0, float("inf"), 0, START_REJECTED)
    with pytest.raises(ValueError) as raised:
        track_path(H, np.array([1.0, 1.0], dtype=complex))
    assert type(raised.value) is ValueError


def test_converged_residual_contract():
    H = _pair("x^2 - 1\ny^2 - 1", "x^2 - 5\ny^2 + x - 3", XY, gamma=0.28 + 0.96j)
    for sx in (1, -1):
        for sy in (1, -1):
            res = track_path(H, np.array([sx, sy], dtype=complex))
            if res.status == CONVERGED:
                assert res.residual <= 1e-8


def test_path_result_does_not_depend_on_earlier_paths():
    # the monomial table of a pair keeps the last point evaluated; a path's
    # result must not depend on what the pair or another pair tracked before
    def pair():
        return _pair("x^2 - 1\ny^2 - 1", "x^2 - 5\ny^2 + x - 3", XY, gamma=0.28 + 0.96j)

    starts = [np.array([sx, sy], dtype=complex) for sx in (1, -1) for sy in (1, -1)]
    alone = track_path(pair(), starts[0])
    H, other = pair(), _pair("x^2 - 1\ny - 1", "x^2 + y - 2\ny^2 - 3", XY, gamma=0.6 - 0.8j)
    for z0 in starts[1:]:
        track_path(H, z0)
        track_path(other, np.array([z0[0], 1], dtype=complex))
    # the last point the other pair sees is the next start point on H
    newton_correct(other, starts[0], 0.0)
    again = track_path(H, starts[0])
    assert alone.status == again.status == CONVERGED
    assert alone.steps_taken == again.steps_taken
    assert alone.endpoint.tobytes() == again.endpoint.tobytes()


def test_track_path_is_the_stage_of_one_start():
    # one path of each end: Converged, Divergent, Failed (min-step) and a
    # rejected start
    cases = [("x^2 - 1", "x^2 - 4", 0.6 + 0.8j, 1.0), ("x^2 - 1", "x", 0.6 + 0.8j, -1.0),
             ("x^2 - 1", "x^2 - 4", -1.0, 1.0), ("x^2 - 1", "x^2 - 4", 1.0, 5.0)]
    reasons = []
    for start, target, gamma, z0 in cases:
        H = _pair(start, target, X, gamma=gamma)
        alone, staged = track_path(H, np.array([z0 + 0j])), track_stage(H, [np.array([z0 + 0j])])
        assert len(staged) == 1
        for field in ("status", "reason", "steps_taken", "t_reached", "residual"):
            assert getattr(alone, field) == getattr(staged[0], field)
        assert (alone.endpoint is None) == (staged[0].endpoint is None)
        if alone.endpoint is not None:
            assert alone.endpoint.tobytes() == staged[0].endpoint.tobytes()
        reasons.append(alone.reason)
    assert reasons == ["converged", "norm-exceeded", "min-step", START_REJECTED]


def test_residual_within_scales_by_magnitude_above_one():
    assert residual_within(1e-6, 1e-6, 0.5)
    assert not residual_within(2e-6, 1e-6, 0.5)
    # a far point's round-off floor: 2e-4 passes against magnitude 4e12
    assert residual_within(2e-4, 1e-6, 4e12)
    assert not residual_within(float("nan"), 1e-6, 4e12)


def test_hermite_predict_is_exact_on_a_cubic_and_euler_without_a_previous_point():
    # z(t) = a + b t + c t^2 + e t^3, rows at their own t and step
    rng = np.random.default_rng(3)
    a, b, c, e = (rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)) for _ in range(4))

    def z(t):
        t = t[:, None]
        return a + b * t + c * t ** 2 + e * t ** 3

    def dz(t):
        t = t[:, None]
        return b + 2 * c * t + 3 * e * t ** 2

    Tp, T, h = np.array([0.1, 0.4, 0.7]), np.array([0.15, 0.5, 0.72]), np.array([0.05, 0.15, 0.01])
    everyone = np.ones(3, dtype=bool)
    pred = hermite_predict(z(T), T, dz(T), z(Tp), Tp, dz(Tp), everyone, h)
    assert np.abs(pred - z(T + h)).max() < 1e-12
    # a row with no previous point is Euler's, byte for byte, whatever its
    # stale second node holds
    first = np.array([True, False, True])
    stale = first[:, None]
    mixed = hermite_predict(z(T), T, dz(T), np.where(stale, 5.0, z(Tp)), np.where(first, T, Tp),
                            np.where(stale, np.nan, dz(Tp)), ~first, h)
    euler = z(T) + h[:, None] * dz(T)
    assert mixed[first].tobytes() == euler[first].tobytes()
    assert np.abs(mixed[1] - z(T + h)[1]).max() < 1e-12
