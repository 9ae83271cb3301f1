"""Predictor-corrector continuation of the paths of
H(z, t) = (1 - t) * G(z) + gamma * t * F(z) from t = 0 to t = 1.

The predictor is the cubic Hermite extrapolation through a path's last two
accepted points and their tangents on the Davidenko ODE (``hermite_predict``),
explicit Euler for a path's first step, after a step that left no tangent
and in the tail; the corrector is a full Newton iteration at fixed t.  A
pair compiles one evaluator of the stacked system [G; F], so each point's
values, Jacobians and magnitudes of both systems are one product each, and
the tangent computed to check an accepted step is the next step's
predictor, with no evaluation of its own.  Paths end in one of
three states:
Converged (finite endpoint, refined at t = 1), Divergent (left every
bounded region), or Failed (tracking broke down at bounded norm).

``track_stage`` tracks every path of a stage in lockstep.  The live paths
are rows of (P, n) arrays, each with its own t, step size, success count
and tangent, and every iteration makes one step attempt for each of them:
one batched evaluation per Newton iteration gives H, dH/dz, dH/dt and the
scale of every row, one stacked factorization per Newton iteration serves
every row's Newton step, and the last one serves the tangents at the
corrected points.  Masks carry each path's own decisions, which are those
of a path tracked alone; a path leaves the live set when it ends, and
``track_path`` is the stage of one start.

A path's result does not depend on its batch: every row of every batched
quantity has the bytes it gets in a batch of one.  Elementwise arithmetic
and per-row reductions are so by construction, as is a stacked
``np.linalg.inv``.  Matrix products are not: ``@`` and ``prod`` pick their
kernel and their summation order by shape and memory layout, so the
evaluator multiplies gathered powers one variable at a time and makes its
products with ``np.einsum``, whose complex kernel sums each row in order
whatever P is (``test_solver`` checks stages byte for byte).

Each ``PathResult`` also names the exit that ended the path (its
``reason``):

- ``converged``: the endpoint passed ``refine_endpoint`` (Converged);
- ``norm-exceeded``: an accepted point passed ``DIVERGENCE_NORM``
  (Divergent);
- ``min-step``: the step was halved below ``MIN_STEP`` (Divergent when the
  tangent points outward, else Failed);
- ``max-steps``: the step budget ``MAX_STEPS`` ran out (Failed);
- ``refine-rejected``: the path reached the tail but ``refine_endpoint``
  rejected its endpoint, by the residual or the contraction test (Failed:
  the tail point was accepted, so it lies within ``DIVERGENCE_NORM``);
- ``start-rejected``: the start point failed the start test, the residual
  rule at ``NEWTON_TOL`` on the start system (Failed, no step taken).

Every linear solve of the tracker factors its Jacobian with the point as
the column scale (``factor_stack(J, Z)``): a Jacobian that looks singular only
because the point's coordinates differ by many orders of magnitude, as on a
path to infinity, is judged again with its columns scaled to the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .linalg import SingularMatrixError, factor_stack, lu_factor, lu_solve_factored
from .poly import PolySystem

CONVERGED = "Converged"
DIVERGENT = "Divergent"
FAILED = "Failed"
START_REJECTED = "start-rejected"


class NoConvergenceError(RuntimeError):
    pass


class SystemEvaluator:
    """Compiled evaluator for a polynomial system and its Jacobian.

    Each distinct monomial of the polynomials and of their Jacobian entries
    is one column, numbered in the order met.  A point's monomials come from
    a per-variable power table by one gather and one product, and the last
    point's vector is kept, keyed on the point's bytes, so results never
    depend on the order of calls.  The values, the Jacobian entries and the
    magnitudes are small dense coefficient matrices applied to that vector.
    """

    def __init__(self, system: PolySystem):
        n = self.n_vars = system.n_vars
        self.n_polys = len(system)
        column: dict = {}

        def columns(exps):
            return np.array([column.setdefault(e, len(column))
                             for e in map(tuple, exps.tolist())], dtype=np.intp)

        # (row, monomial columns, coefficients) of the nonzero entries
        val, jac = [], []
        for i, p in enumerate(system.polys):
            val.append((i, columns(p.exps), p.coeffs))
            # d/dz_j of c * z^e is e_j * c * z^(e - u_j)
            for j in range(n):
                live = p.exps[:, j] > 0
                shifted = p.exps[live] - np.eye(n, dtype=p.exps.dtype)[j]
                jac.append((i * n + j, columns(shifted), p.exps[live, j] * p.coeffs[live]))
        self._vals = self._dense(val, self.n_polys, len(column))
        self._abs_vals = np.abs(self._vals)
        self._jac = self._dense(jac, self.n_polys * n, len(column))
        # per polynomial, its value then its gradient: one product gives a
        # batch of points' values and Jacobians
        self._vals_grads = np.concatenate(
            [self._vals[:, None], self._jac.reshape(self.n_polys, n, -1)], axis=1
        ).reshape(self.n_polys * (n + 1), -1)
        exps = np.array(list(column), dtype=np.intp).reshape(-1, n)
        width = int(exps.max()) + 1 if exps.size else 1
        self._exponents = np.arange(width)
        # (n_vars, n_monomials) indices into the flattened power table
        self._gather = exps.T + width * np.arange(n)[:, None]
        self._key = None

    @staticmethod
    def _dense(entries, n_rows: int, width: int) -> np.ndarray:
        out = np.zeros((n_rows, width), dtype=complex)
        for row, cols, coeffs in entries:
            out[row, cols] = coeffs
        return out

    def _monomial_rows(self, Z: np.ndarray) -> np.ndarray:
        """(P, n_monomials) monomials of the P points Z (P, n_vars).  The
        gathered powers are multiplied one variable at a time, so each
        row's bytes do not depend on P (a ``prod`` would reduce in the
        layout order of the gather, which changes with P)."""
        powers = (Z[:, :, None] ** self._exponents).reshape(len(Z), -1)
        gathered = powers.take(self._gather, axis=1)
        mono = gathered[:, 0]
        for v in range(1, self.n_vars):
            mono = mono * gathered[:, v]
        return mono

    def _monomials(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        key = z.tobytes()
        if key != self._key:
            self._mono = self._monomial_rows(z[None])[0]
            self._abs = None
            self._key = key
        return self._mono

    def values(self, z: np.ndarray) -> np.ndarray:
        return self._vals @ self._monomials(z)

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        return (self._jac @ self._monomials(z)).reshape(self.n_polys, self.n_vars)

    def magnitude(self, z: np.ndarray) -> np.ndarray:
        """Per polynomial, sum_t |c_t| * |z|^e_t: the scale against which the
        evaluation round-off floor is set."""
        mono = self._monomials(z)
        if self._abs is None:
            self._abs = np.abs(mono)
        return self._abs_vals @ self._abs

    def evaluate(self, Z: np.ndarray):
        """At the P points Z (P, n_vars): per point and polynomial its value
        and gradient, (P, n_polys, 1 + n_vars), and its magnitude,
        (P, n_polys).  Each row comes from the same ``einsum`` kernel
        whatever P is."""
        mono = self._monomial_rows(Z)
        vals_grads = np.einsum("rm,pm->pr", self._vals_grads, mono)
        magnitudes = np.einsum("rm,pm->pr", self._abs_vals, np.abs(mono))
        return vals_grads.reshape(len(Z), self.n_polys, -1), magnitudes


# Step control: first, smallest and largest step in t.
INITIAL_STEP = 0.05
MIN_STEP = 1e-7
MAX_STEP = 0.1
# A path whose inf-norm passes this is Divergent.
DIVERGENCE_NORM = 1e7
# Endgame: from T_END on, steps are capped by half the remaining distance;
# tracking stops at T_TAIL and the final Newton jump to t = 1 starts there.
T_ENDGAME = 1e-3
T_END = 1.0 - T_ENDGAME
T_TAIL = 1.0 - 1e-5 * T_ENDGAME
# A path that takes this many steps without reaching T_TAIL is Failed.
MAX_STEPS = 10000


# Newton's residual tolerance and iteration budget of a path (start,
# endgame, endpoint), and the tight budget of a corrector step (see
# track_stage); an endpoint is accepted at ENDPOINT_TOL
NEWTON_TOL = 1e-10
NEWTON_ITERS = 10
STEP_ITERS = 2
ENDPOINT_TOL = 100 * NEWTON_TOL
# an accepted endpoint's next Newton step is at most this, relative to
# 1 + |z|_inf (see contracted)
CONTRACTION_TOL = 1e-6


def residual_within(residual: float, tol: float, magnitude: float) -> bool:
    """The one acceptance rule for a residual: it counts as zero when it is
    at most tol * max(1, magnitude), where magnitude is the evaluation scale
    of the system at the point (``SystemEvaluator.magnitude``), so the bound
    never falls below the round-off floor of a large point.  It takes
    arrays of residuals and magnitudes too, one verdict per entry."""
    return residual <= tol * np.fmax(1.0, magnitude)


class HomotopyPair:
    """Start/target pair with shared dimension and the gamma constant.

    One evaluator of the stacked system [G; F] (G's rows first) gives every
    quantity as one product, sliced into its G and F halves."""

    def __init__(self, start: PolySystem, target: PolySystem, gamma: complex):
        if start.n_vars != target.n_vars or len(start) != len(target):
            raise ValueError("start and target must have identical shape")
        if len(start) != start.n_vars:
            raise ValueError("homotopy systems must be square")
        if gamma == 0:
            raise ValueError("gamma must be nonzero")
        self.gamma = complex(gamma)
        self.n_vars = start.n_vars
        self._h = SystemEvaluator(PolySystem(self.n_vars, start.polys + target.polys))

    def eval_h(self, z: np.ndarray, t: float) -> np.ndarray:
        v, n = self._h.values(z), self.n_vars
        return (1 - t) * v[:n] + self.gamma * t * v[n:]

    def eval_dh_dz(self, z: np.ndarray, t: float) -> np.ndarray:
        J, n = self._h.jacobian(z), self.n_vars
        return (1 - t) * J[:n] + self.gamma * t * J[n:]

    def target_values(self, z: np.ndarray) -> np.ndarray:
        return self._h.values(z)[self.n_vars:]

    def target_magnitude(self, z: np.ndarray) -> float:
        return float(self._h.magnitude(z)[self.n_vars:].max(initial=0.0))

    def scale(self, z: np.ndarray, t: float) -> float:
        """Evaluation magnitude of H at (z, t); residual tolerances below
        roughly eps times this are not numerically meaningful."""
        m, n = self._h.magnitude(z), self.n_vars
        return ((1 - t) * float(m[:n].max(initial=0.0))
                + abs(self.gamma) * t * float(m[n:].max(initial=0.0)))

    def weights(self, T: np.ndarray):
        """The weights of G and F at the P values T, for ``evaluate``."""
        a = 1 - T
        return a[:, None, None], (self.gamma * T)[:, None, None], a, abs(self.gamma) * T

    def evaluate(self, Z: np.ndarray, weights):
        """At P points Z (P, n), point p at the t of row p of ``weights``:
        [H | dH/dz] as one (P, n, 1 + n) array, the scale (P,), and the
        values of G and F (P, 2n) for ``dh_dt``, all from one evaluation of
        the stacked system."""
        vals_grads, m = self._h.evaluate(Z)
        a, b, a_scale, b_scale = weights
        n = self.n_vars
        h_dz = a * vals_grads[:, :n] + b * vals_grads[:, n:]
        m = m.reshape(len(Z), 2, n).max(axis=2, initial=0.0)
        return h_dz, a_scale * m[:, 0] + b_scale * m[:, 1], vals_grads[:, :, 0]

    def dh_dt(self, values: np.ndarray) -> np.ndarray:
        """dH/dt at P points from their values of G and F (P, 2n)."""
        n = self.n_vars
        return self.gamma * values[:, n:] - values[:, :n]


@dataclass
class PathResult:
    status: str
    endpoint: Optional[np.ndarray]
    t_reached: float
    residual: float
    steps_taken: int
    reason: str


def davidenko_rhs(H: HomotopyPair, z, t: float) -> np.ndarray:
    """Tangent dz/dt from (dH/dz) dz/dt = -dH/dt at one point, as
    ``track_stage`` takes it for each of its paths."""
    Z = np.asarray(z, dtype=complex)[None]
    h_dz, _, values = H.evaluate(Z, H.weights(np.array([float(t)])))
    return lu_solve_factored(lu_factor(h_dz[0, :, 1:], Z[0]), -H.dh_dt(values)[0])


def _cos_angles(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Per row, the cosine of the angle between U[p] and V[p]; 1 when
    either is zero."""
    Uc = U.conj()
    uu = np.einsum("pi,pi->p", Uc, U).real
    vv = np.einsum("pi,pi->p", V.conj(), V).real
    norms = np.sqrt(uu * vv)
    dot = np.einsum("pi,pi->p", Uc, V).real
    return np.divide(dot, norms, out=np.ones(len(dot)), where=norms != 0.0)


def newton_correct(H: HomotopyPair, z, t: float, max_iters: int = NEWTON_ITERS,
                   tol: float = NEWTON_TOL) -> np.ndarray:
    """Full Newton steps on H(., t) until the inf-norm residual passes
    ``residual_within`` at tol and H's evaluation magnitude at the point.
    Raises on singular Jacobian or non-convergence (the residual still fails
    after max_iters steps)."""
    z = np.asarray(z, dtype=complex).copy()
    for i in range(max_iters + 1):
        r = H.eval_h(z, t)
        if residual_within(np.abs(r).max(), tol, H.scale(z, t)):
            return z
        if i == max_iters:
            raise NoConvergenceError(f"Newton did not reach {tol} at t={t}")
        z = z - lu_solve_factored(lu_factor(H.eval_dh_dz(z, t), z), r)


def contracted(step: np.ndarray, z: np.ndarray) -> bool:
    """The endpoint rule's contraction test: a Newton step from z is at
    round-off level, at most CONTRACTION_TOL * (1 + |z|_inf).  At a regular
    root it is, while a truncated diverging path (or a point near a singular
    root) keeps steps of order |z| even when the magnitude-scaled residual
    test passes.  A NaN step fails."""
    return float(np.abs(step).max()) <= CONTRACTION_TOL * (1.0 + float(np.abs(z).max()))


def refine_endpoint(H: HomotopyPair, z, max_iters: int = NEWTON_ITERS,
                    tol: float = NEWTON_TOL):
    """The endpoint-acceptance rule: Newton at t = 1, then up to three more
    Newton steps, each from one factorization.  The first two push the
    residual toward the round-off floor and are kept only while it falls;
    the first step not kept (or the third) must pass ``contracted``, and
    the target residual must pass ``residual_within`` at ENDPOINT_TOL.
    Returns (point, residual), or None when the point is rejected."""
    try:
        z1 = newton_correct(H, z, 1.0, max_iters=max_iters, tol=tol)
        for polish in range(3):
            r = H.eval_h(z1, 1.0)
            step = lu_solve_factored(lu_factor(H.eval_dh_dz(z1, 1.0), z1), r)
            if polish == 2 or np.abs(H.eval_h(z1 - step, 1.0)).max() >= np.abs(r).max():
                break
            z1 = z1 - step
    except (SingularMatrixError, NoConvergenceError):
        return None
    residual = float(np.abs(H.target_values(z1)).max())
    if not (residual_within(residual, ENDPOINT_TOL, H.target_magnitude(z1))
            and contracted(step, z1)):
        return None
    return z1, residual


def _correct(H: HomotopyPair, Z: np.ndarray, T: np.ndarray, iters: np.ndarray,
             active: np.ndarray, must_step: np.ndarray):
    """``newton_correct`` on the active rows of Z at once, row p at t = T[p]
    with a budget of iters[p] steps: a row drops out when its residual
    passes, its budget runs out or its Jacobian is singular.  A row of
    must_step takes one Newton step before its residual may pass.  Every
    row is evaluated and its Jacobian factored in each iteration, so the last
    iteration's factors are those at the corrected points, where the next
    tangents are taken.  Returns the corrected points, which rows passed,
    and the last iteration's Jacobian verdicts, factors and dH/dt."""
    Z = Z.copy()
    passed = np.zeros(len(Z), dtype=bool)
    weights = H.weights(T)
    i = 0
    while True:
        h_dz, scale, values = H.evaluate(Z, weights)
        r = h_dz[:, :, 0]
        within = ((i > 0) | ~must_step) & residual_within(
            np.abs(r).max(axis=1), NEWTON_TOL, scale)
        passed |= active & within
        regular, factored = factor_stack(h_dz[:, :, 1:], Z)
        active &= ~within & (iters > i) & regular
        if not np.count_nonzero(active):
            return Z, passed, regular, factored, H.dh_dt(values)
        np.subtract(Z, lu_solve_factored(factored, r), out=Z, where=active[:, None])
        i += 1


def hermite_predict(Z: np.ndarray, T: np.ndarray, DZ: np.ndarray, Zp: np.ndarray,
                    Tp: np.ndarray, DZp: np.ndarray, has_prev: np.ndarray,
                    h: np.ndarray) -> np.ndarray:
    """Per row, the prediction of z(T + h) from the cubic through
    (Tp, Zp) and (T, Z) with tangents DZp and DZ: with d = T - Tp and
    r = h / d, it is Euler's Z + h DZ plus
    r^2 ((3 + 2r) (Zp - Z + d DZ) + (1 + r) d (DZp - DZ)).  A row without
    has_prev gets Euler's alone."""
    Z_pred = Z + h[:, None] * DZ
    d = np.where(has_prev, T - Tp, 1.0)[:, None]
    r = h[:, None] / d
    cubic = r * r * ((3 + 2 * r) * (Zp - Z + d * DZ) + (1 + r) * d * (DZp - DZ))
    np.add(Z_pred, cubic, out=Z_pred, where=has_prev[:, None])
    return Z_pred


def track_stage(H: HomotopyPair, starts) -> List[PathResult]:
    """Track every start point of one homotopy stage from t = 0 to t = 1,
    all live paths in lockstep; returns one PathResult per start, in order.
    A start that fails the start test ends as Failed, ``start-rejected``;
    a start of the wrong length raises ValueError."""
    starts = [np.asarray(z0, dtype=complex) for z0 in starts]
    if any(z0.shape != (H.n_vars,) for z0 in starts):
        raise ValueError("start point has wrong dimension")
    results: List[Optional[PathResult]] = [None] * len(starts)
    if not starts:
        return results
    Z = np.array(starts)
    h_dz, scale, _ = H.evaluate(Z, H.weights(np.zeros(len(Z))))
    started = residual_within(np.abs(h_dz[:, :, 0]).max(axis=1), NEWTON_TOL, scale)
    for p in np.flatnonzero(~started):
        results[p] = PathResult(FAILED, None, 0.0, float("inf"), 0, START_REJECTED)

    # The live paths: their start index, point, t, step size, accepted
    # steps since the last growth, whether their last step was accepted,
    # and the tangent at (z, t) where has_dz.  The tangent is kept through
    # a rejected step, where neither moves, and taken over from the angle
    # check of an accepted step, which computed it at the new (z, t).
    # Where has_prev, (Zp, Tp, DZp) is the point, t and tangent before the
    # last accepted, angle-checked step, the predictor's second node.
    # Every live path has taken the same number of steps.
    index = np.flatnonzero(started)
    Z = Z[started]
    T = np.zeros(len(Z))
    step = np.full(len(Z), INITIAL_STEP)
    successes = np.zeros(len(Z), dtype=int)
    accepted = np.zeros(len(Z), dtype=bool)
    DZ = np.zeros_like(Z)
    has_dz = np.zeros(len(Z), dtype=bool)
    Zp, Tp, DZp = np.zeros_like(Z), np.zeros(len(Z)), np.zeros_like(Z)
    has_prev = np.zeros(len(Z), dtype=bool)
    steps = 0
    while True:
        # the exits of the last step; a path leaves the live set when it ends
        norm = np.abs(Z).max(axis=1)
        ended = np.where(accepted, norm > DIVERGENCE_NORM, step < MIN_STEP) | (T >= T_TAIL)
        if steps >= MAX_STEPS:
            ended[:] = True
        if np.count_nonzero(ended):
            for p in ended.nonzero()[0]:
                results[index[p]] = _end(H, Z[p], float(T[p]), steps, accepted[p],
                                         norm[p], step[p], DZ[p] if has_dz[p] else None)
            live = ~ended
            (index, Z, T, step, successes, accepted, DZ, has_dz, Zp, Tp, DZp, has_prev,
             norm) = (a[live] for a in (index, Z, T, step, successes, accepted, DZ, has_dz,
                                        Zp, Tp, DZp, has_prev, norm))
        if not index.size:
            return results

        # Geometric tail: from T_END on, cap the step by a fraction of the
        # remaining distance so far-away endpoints are followed, not jumped at.
        h = np.minimum(step, np.where(T >= T_END, np.minimum(0.5 * (1.0 - T), T_TAIL - T),
                                      T_END - T))
        # Tight per-step corrector budget: a predictor point that needs many
        # Newton iterations has likely strayed toward another path, so fail
        # the step and halve instead.  Once the step is tiny the prediction
        # is accurate and jumping is not a concern, so give Newton its full
        # budget and drop the guard.
        tight = h > 1e-4
        rows = (~has_dz).nonzero()[0]
        if rows.size:
            h_dz, _, values = H.evaluate(Z[rows], H.weights(T[rows]))
            regular, factored = factor_stack(h_dz[:, :, 1:], Z[rows])
            # a path whose tangent is singular fails its step, standing still
            DZ[rows] = np.where(regular[:, None],
                                lu_solve_factored(factored, -H.dh_dt(values)), 0.0)
            has_dz[rows] = regular
        # Before the tail, the prediction is the cubic through the last two
        # accepted points, and the corrector takes at least one Newton step:
        # far from the origin the magnitude-scaled residual test can pass a
        # prediction that is off the path, whose next step then fails the
        # pull-back check, so the step size would cycle instead of growing.
        # The tail, whose steps its distance caps, keeps Euler and may pass
        # a prediction as it stands: a path heading to infinity too slowly
        # to pass DIVERGENCE_NORM reaches T_TAIL there and is rejected at
        # refinement, and a forced step or a cubic would send some such
        # paths out by the norm or the minimum step instead.
        ahead = T < T_END
        Z_pred = hermite_predict(Z, T, DZ, Zp, Tp, DZp, has_prev & ahead, h)
        T_new = T + h
        Z_new, ok, regular, factored, dh_dt = _correct(
            H, Z_pred, T_new, np.where(tight, STEP_ITERS, NEWTON_ITERS), has_dz.copy(), ahead)
        # corrector success also requires the correction to stay small
        # against the predicted move; a large pull-back means the iteration
        # latched onto a different path
        move = np.abs(Z_pred - Z).max(axis=1)
        corr = np.abs(Z_new - Z_pred).max(axis=1)
        ok &= ~tight | (corr <= np.maximum(0.5 * move, 10 * NEWTON_TOL * (1.0 + norm)))
        # tangent consistency: a rotation past 60 degrees in one step means
        # either a hairpin the step cannot resolve or a hop onto a
        # neighboring path, so halve and retry
        checked = ok & (h > 10 * MIN_STEP)
        dz_next = lu_solve_factored(factored, -dh_dt)
        ok &= ~checked | (regular & (_cos_angles(DZ, dz_next) >= 0.5))

        steps += 1
        # an accepted, angle-checked step makes the point it left the
        # predictor's second node; an accepted step without an angle check
        # leaves no tangent, and its next step is Euler's
        moved = ok & checked
        np.copyto(Zp, Z, where=moved[:, None])
        np.copyto(Tp, T, where=moved)
        np.copyto(DZp, DZ, where=moved[:, None])
        np.copyto(has_prev, checked, where=ok)
        np.copyto(Z, Z_new, where=ok[:, None])
        np.copyto(T, T_new, where=ok)
        np.copyto(DZ, dz_next, where=moved[:, None])
        np.copyto(has_dz, checked, where=ok)
        successes = (successes + 1) * ok
        grown = successes >= 3
        step = np.where(grown, np.minimum(step * 1.5, MAX_STEP), np.where(ok, step, step / 2))
        successes[grown] = 0
        accepted = ok


def _end(H: HomotopyPair, z: np.ndarray, t: float, steps: int, accepted: bool,
         norm: float, step: float, dz: Optional[np.ndarray]) -> PathResult:
    """The result of a path that ends at (z, t) after ``steps`` steps, the
    last one accepted or not: it left through the norm or the minimum step,
    reached the tail, or ran out of steps."""
    if accepted and norm > DIVERGENCE_NORM:
        return PathResult(DIVERGENT, None, t, float("inf"), steps, "norm-exceeded")
    if not accepted and step < MIN_STEP:
        # no tangent here means it was singular
        growing = dz is not None and np.abs(z + MIN_STEP * dz).max() > norm
        return PathResult(DIVERGENT if growing else FAILED, None, t, float("inf"), steps,
                          "min-step")
    if t < T_TAIL:
        return PathResult(FAILED, None, t, float("inf"), steps, "max-steps")
    refined = refine_endpoint(H, z)
    if refined is None:
        return PathResult(FAILED, None, t, float("inf"), steps + 1, "refine-rejected")
    return PathResult(CONVERGED, refined[0], 1.0, refined[1], steps + 1, "converged")


def track_path(H: HomotopyPair, z0) -> PathResult:
    """Track one path from the start point z0 at t = 0 to t = 1: the stage
    of one start."""
    return track_stage(H, [z0])[0]
