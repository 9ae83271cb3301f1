"""Predictor-corrector continuation of the paths of
H(z, t) = (1 - t) * G(z) + gamma * t * F(z) from t = 0 to t = 1.

The predictor is the cubic Hermite extrapolation through a path's last two
accepted points and their tangents on the Davidenko ODE (``hermite_predict``),
explicit Euler for a path's first step, after a step that left no tangent
and in the tail; the corrector, ``_correct``, is full Newton at fixed t on
a stack of points.  It is the only Newton loop: ``refine_endpoint`` and
``newton_correct`` run it on a stack of one, so a refined point has the
bytes of its row in any stack.  A pair compiles one evaluator of the
stacked system [G; F], so each point's values, Jacobians and magnitudes of
both systems are one product each, and the tangent computed to check an
accepted step is the next step's predictor, with no evaluation of its own.
Paths end in one of three states: Converged (finite endpoint, refined at
t = 1), Divergent (left every bounded region), or Failed (tracking broke
down at bounded norm).

A path tries its endpoint once, at its first step from t >= T_END: Euler's
prediction to t = 1, corrected as one more row of that step's corrector and
accepted only through ``refine_endpoint``.  Most paths end there,
Converged.  Only a path whose try fails walks the geometric tail, which
halves the remaining distance at each step, to T_TAIL, where its endpoint
is refined once more.

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
- ``refine-rejected``: the path's endpoint try failed, it walked the tail
  to T_TAIL, and ``refine_endpoint`` rejected its endpoint there, by the
  residual or the contraction test (Failed: the tail point was accepted,
  so it lies within ``DIVERGENCE_NORM``);
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

# lu_factor is unused here; perfbench/test_perfbench.py and tests/test_api.py
# check this binding of it
from .linalg import SingularMatrixError, factor_stack, lu_factor, lu_solve_factored  # noqa: F401
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
    is one column, numbered in the order met.  A stack of points' monomials
    come from a per-variable power table by one gather and one product per
    variable; the values, the Jacobian entries and the magnitudes are small
    dense coefficient matrices applied to them.  Nothing is kept between
    calls.
    """

    def __init__(self, system: PolySystem):
        n = self.n_vars = system.n_vars
        self.n_polys = len(system)
        column: dict = {}

        def columns(exps):
            return np.array([column.setdefault(e, len(column))
                             for e in map(tuple, exps.tolist())], dtype=np.intp)

        # (row, monomial columns, coefficients) of the nonzero entries; per
        # polynomial, its value then its gradient, so one product gives a
        # batch of points' values and Jacobians
        entries = []
        for i, p in enumerate(system.polys):
            entries.append((i * (n + 1), columns(p.exps), p.coeffs))
            # d/dz_j of c * z^e is e_j * c * z^(e - u_j)
            for j in range(n):
                live = p.exps[:, j] > 0
                shifted = p.exps[live] - np.eye(n, dtype=p.exps.dtype)[j]
                entries.append((i * (n + 1) + 1 + j, columns(shifted),
                                p.exps[live, j] * p.coeffs[live]))
        self._vals_grads = np.zeros((self.n_polys * (n + 1), len(column)), dtype=complex)
        for row, cols, coeffs in entries:
            self._vals_grads[row, cols] = coeffs
        self._abs_vals = np.abs(self._vals_grads[::n + 1])
        exps = np.array(list(column), dtype=np.intp).reshape(-1, n)
        width = int(exps.max()) + 1 if exps.size else 1
        self._exponents = np.arange(width)
        # per variable, each monomial's index into the flattened power table
        self._gather = exps.T + width * np.arange(n)[:, None]

    def evaluate(self, Z: np.ndarray):
        """At the P points Z (P, n_vars): per point and polynomial its value
        and gradient, (P, n_polys, 1 + n_vars), and its magnitude,
        sum_t |c_t| * |z|^e_t, (P, n_polys), the scale against which the
        evaluation round-off floor is set.  Each row comes from the same
        ``einsum`` kernel whatever P is."""
        # the gathered powers are multiplied one variable at a time, so each
        # row's bytes do not depend on P (a ``prod`` would reduce in the
        # layout order of the gather, which changes with P)
        powers = (Z[:, :, None] ** self._exponents).reshape(len(Z), -1)
        gathered = powers.take(self._gather, axis=1)
        mono = gathered[:, 0]
        for v in range(1, self.n_vars):
            mono = mono * gathered[:, v]
        vals_grads = np.einsum("rm,pm->pr", self._vals_grads, mono)
        magnitudes = np.einsum("rm,pm->pr", self._abs_vals, np.abs(mono))
        return vals_grads.reshape(len(Z), self.n_polys, -1), magnitudes

    # ``evaluate`` at one point: nothing in lph calls these three, which
    # perfbench/tracer.py's TARGETS name, so a traced run needs them
    def values(self, z: np.ndarray) -> np.ndarray:
        return self.evaluate(np.asarray(z, dtype=complex)[None])[0][0, :, 0]

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        return self.evaluate(np.asarray(z, dtype=complex)[None])[0][0, :, 1:]

    def magnitude(self, z: np.ndarray) -> np.ndarray:
        return self.evaluate(np.asarray(z, dtype=complex)[None])[1][0]


# Step control: first, smallest and largest step in t.
INITIAL_STEP = 0.05
MIN_STEP = 1e-7
MAX_STEP = 0.1
# A path whose inf-norm passes this is Divergent.
DIVERGENCE_NORM = 1e7
# Endgame: a path tries its endpoint from its first point past T_END; from
# there on, steps are capped by half the remaining distance, and tracking
# stops at T_TAIL, where the final Newton jump to t = 1 starts.
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
    of the system at the point (``SystemEvaluator.evaluate``), so the bound
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

    def weights(self, T: np.ndarray):
        """The weights of G and F at the P values T, for ``evaluate``."""
        a = 1 - T
        return a[:, None, None], (self.gamma * T)[:, None, None], a, abs(self.gamma) * T

    def evaluate(self, Z: np.ndarray, weights):
        """At P points Z (P, n), point p at the t of row p of ``weights``:
        [H | dH/dz] as one (P, n, 1 + n) array, H's evaluation magnitude
        (P,), the values of G and F (P, 2n) for ``dh_dt`` and F's
        magnitude (P,), all from one evaluation of the stacked system."""
        vals_grads, m = self._h.evaluate(Z)
        a, b, a_scale, b_scale = weights
        n = self.n_vars
        h_dz = a * vals_grads[:, :n] + b * vals_grads[:, n:]
        m = m.reshape(len(Z), 2, n).max(axis=2, initial=0.0)
        return h_dz, a_scale * m[:, 0] + b_scale * m[:, 1], vals_grads[:, :, 0], m[:, 1]

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


def _tangents(H: HomotopyPair, Z: np.ndarray, T: np.ndarray):
    """Per row, whether dH/dz is regular at (Z[p], T[p]), and the tangent
    dz/dt from (dH/dz) dz/dt = -dH/dt there (meaningless where it is not)."""
    h_dz, _, values, _ = H.evaluate(Z, H.weights(T))
    regular, factored = factor_stack(h_dz[:, :, 1:], Z)
    return regular, lu_solve_factored(factored, -H.dh_dt(values))


def davidenko_rhs(H: HomotopyPair, z, t: float) -> np.ndarray:
    """The tangent dz/dt at one point: ``_tangents`` on the stack of one.
    Raises SingularMatrixError on a singular Jacobian."""
    regular, dz = _tangents(H, np.asarray(z, dtype=complex)[None], np.array([float(t)]))
    if not regular[0]:
        raise SingularMatrixError("singular under the pivot rule")
    return dz[0]


def _cos_angles(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Per row, the cosine of the angle between U[p] and V[p]; 1 when
    either is zero."""
    Uc = U.conj()
    uu = np.einsum("pi,pi->p", Uc, U).real
    vv = np.einsum("pi,pi->p", V.conj(), V).real
    norms = np.sqrt(uu * vv)
    dot = np.einsum("pi,pi->p", Uc, V).real
    return np.divide(dot, norms, out=np.ones(len(dot)), where=norms != 0.0)


def _correct(H: HomotopyPair, Z: np.ndarray, weights, iters: np.ndarray,
             active: np.ndarray, must_step: np.ndarray, tol: float = NEWTON_TOL):
    """Full Newton steps on the active rows of Z at once, row p at the t of
    row p of ``weights`` with a budget of iters[p] steps, until its inf-norm
    residual passes ``residual_within`` at tol and H's magnitude: a row
    drops out when its residual passes, its budget runs out or its Jacobian
    is singular.  A row of must_step takes one Newton step before its
    residual may pass.  Every row is evaluated and its Jacobian factored in
    each iteration, so the last iteration's evaluation and factors are
    those at the corrected points.  Returns the corrected points, which
    rows passed, and the last iteration's Jacobian verdicts, factors and
    ``HomotopyPair.evaluate`` output."""
    Z = Z.copy()
    passed = np.zeros(len(Z), dtype=bool)
    i = 0
    while True:
        evaluated = H.evaluate(Z, weights)
        h_dz = evaluated[0]
        r = h_dz[:, :, 0]
        within = ((i > 0) | ~must_step) & residual_within(np.abs(r).max(axis=1), tol,
                                                          evaluated[1])
        passed |= active & within
        regular, factored = factor_stack(h_dz[:, :, 1:], Z)
        active &= ~within & (iters > i) & regular
        if not np.count_nonzero(active):
            return Z, passed, regular, factored, evaluated
        np.subtract(Z, lu_solve_factored(factored, r), out=Z, where=active[:, None])
        i += 1


def newton_correct(H: HomotopyPair, z, t: float, max_iters: int = NEWTON_ITERS,
                   tol: float = NEWTON_TOL) -> np.ndarray:
    """``_correct`` on the stack of one point z at t.  Raises
    SingularMatrixError on a singular Jacobian and NoConvergenceError when
    the residual still fails after max_iters steps."""
    Z, passed, regular, _, _ = _correct(
        H, np.asarray(z, dtype=complex)[None], H.weights(np.array([float(t)])),
        np.array([max_iters]), np.ones(1, dtype=bool), np.zeros(1, dtype=bool), tol)
    if passed[0]:
        return Z[0]
    if not regular[0]:
        raise SingularMatrixError("singular under the pivot rule")
    raise NoConvergenceError(f"Newton did not reach {tol} at t={t}")


def contracted(step: np.ndarray, z: np.ndarray) -> bool:
    """The endpoint rule's contraction test: a Newton step from z is at
    round-off level, at most CONTRACTION_TOL * (1 + |z|_inf).  At a regular
    root it is, while a truncated diverging path (or a point near a singular
    root) keeps steps of order |z| even when the magnitude-scaled residual
    test passes.  A NaN step fails."""
    return float(np.abs(step).max()) <= CONTRACTION_TOL * (1.0 + float(np.abs(z).max()))


def refine_endpoint(H: HomotopyPair, z, max_iters: int = NEWTON_ITERS,
                    tol: float = NEWTON_TOL):
    """The endpoint-acceptance rule: ``_correct`` at t = 1 on the stack of
    one, then up to three more Newton steps, each from the evaluation and
    factors at the point it leaves, so no point is evaluated twice.  The
    first two are kept only while the residual falls; the first step not
    kept (or the third) must pass ``contracted``, and the target residual
    must pass ``residual_within`` at ENDPOINT_TOL.  Returns (point,
    residual), or None when the point is rejected."""
    weights = H.weights(np.ones(1))
    Z, passed, regular, factored, evaluated = _correct(
        H, np.asarray(z, dtype=complex)[None], weights, np.array([max_iters]),
        np.ones(1, dtype=bool), np.zeros(1, dtype=bool), tol)
    for polish in range(3):
        if not (passed[0] and regular[0]):
            return None
        r = evaluated[0][:, :, 0]
        step = lu_solve_factored(factored, r)
        if polish == 2:
            break
        kept = H.evaluate(Z - step, weights)
        if np.abs(kept[0][:, :, 0]).max() >= np.abs(r).max():
            break
        Z, evaluated = Z - step, kept
        regular, factored = factor_stack(evaluated[0][:, :, 1:], Z)
    residual = float(np.abs(evaluated[2][0, H.n_vars:]).max())
    if not (residual_within(residual, ENDPOINT_TOL, evaluated[3][0])
            and contracted(step[0], Z[0])):
        return None
    return Z[0], residual


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
    h_dz, scale, _, _ = H.evaluate(Z, H.weights(np.zeros(len(Z))))
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
    # whether the path has tried its endpoint
    tried = np.zeros(len(Z), dtype=bool)
    steps = 0
    while True:
        # the exits of the last step; a path leaves the live set when it ends
        norm = np.abs(Z).max(axis=1)
        ended = np.where(accepted, norm > DIVERGENCE_NORM, step < MIN_STEP) | (T >= T_TAIL)
        if steps >= MAX_STEPS:
            ended[:] = True
        if np.count_nonzero(ended):
            for p in ended.nonzero()[0]:
                # a path whose endpoint try was accepted has its result already
                if results[index[p]] is None:
                    results[index[p]] = _end(H, Z[p], float(T[p]), steps, accepted[p],
                                             norm[p], step[p], DZ[p] if has_dz[p] else None)
            live = ~ended
            (index, Z, T, step, successes, accepted, DZ, has_dz, Zp, Tp, DZp, has_prev,
             tried, norm) = (a[live] for a in (index, Z, T, step, successes, accepted, DZ,
                                               has_dz, Zp, Tp, DZp, has_prev, tried, norm))
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
            regular, dz = _tangents(H, Z[rows], T[rows])
            # a path whose tangent is singular fails its step, standing still
            DZ[rows] = np.where(regular[:, None], dz, 0.0)
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
        active, must_step, Z_from, norm_from = has_dz.copy(), ahead, Z, norm
        # On entering the tail, a path tries its endpoint once: Euler's
        # prediction to t = 1 rides as one more row of this step's corrector,
        # under the tight budget and with no forced Newton step.  A row's
        # bytes do not depend on its batch, so a failed try leaves the
        # path's tail as it is without one.
        trying = np.flatnonzero(has_dz & ~(ahead | tried))
        P = len(Z)
        if trying.size:
            tried[trying] = True
            of_row = np.concatenate([np.arange(P), trying])
            active, must_step = has_dz[of_row], ahead[of_row]
            Z_from, norm_from = Z[of_row], norm[of_row]
            Z_pred = np.concatenate([Z_pred, Z[trying] + (1.0 - T[trying, None]) * DZ[trying]])
            T_new = np.concatenate([T_new, np.ones(trying.size)])
            tight = np.concatenate([tight, np.ones(trying.size, dtype=bool)])
        iters = np.where(tight, STEP_ITERS, NEWTON_ITERS)
        Z_new, ok, regular, factored, evaluated = _correct(H, Z_pred, H.weights(T_new), iters,
                                                           active, must_step)
        # corrector success also requires the correction to stay small
        # against the predicted move; a large pull-back means the iteration
        # latched onto a different path
        move = np.abs(Z_pred - Z_from).max(axis=1)
        corr = np.abs(Z_new - Z_pred).max(axis=1)
        ok &= ~tight | (corr <= np.maximum(0.5 * move, 10 * NEWTON_TOL * (1.0 + norm_from)))
        dz_next = lu_solve_factored(factored, -H.dh_dt(evaluated[2]))
        tries = ()
        if trying.size:
            tries = zip(trying[ok[P:]], Z_new[P:][ok[P:]])
            T_new, Z_new, ok, regular, dz_next = (
                a[:P] for a in (T_new, Z_new, ok, regular, dz_next))
        # tangent consistency: a rotation past 60 degrees in one step means
        # either a hairpin the step cannot resolve or a hop onto a
        # neighboring path, so halve and retry
        checked = ok & (h > 10 * MIN_STEP)
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
        # a tried endpoint that passes is accepted only through
        # refine_endpoint; its path is then at t = 1, and ends
        for p, z in tries:
            refined = refine_endpoint(H, z)
            if refined is not None:
                results[index[p]] = PathResult(CONVERGED, refined[0], 1.0, refined[1],
                                               steps, "converged")
                T[p] = 1.0


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
