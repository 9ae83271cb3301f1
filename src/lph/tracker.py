"""Predictor-corrector continuation of one path of
H(z, t) = (1 - t) * G(z) + gamma * t * F(z) from t = 0 to t = 1.

The predictor is explicit Euler on the Davidenko ODE; the corrector is a
full Newton iteration at fixed t.  A pair compiles one evaluator of the
stacked system [G; F], so each point's values, Jacobians and magnitudes of
both systems are one product each, and the tangent computed to check an
accepted step is the next step's predictor.  Paths end in one of
three states:
Converged (finite endpoint, refined at t = 1), Divergent (left every
bounded region), or Failed (tracking broke down at bounded norm).

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
the column scale (``lu_factor(J, z)``): a Jacobian that looks singular only
because the point's coordinates differ by many orders of magnitude, as on a
path to infinity, is judged again with its columns scaled to the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import SingularMatrixError, lu_factor, lu_solve_factored
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

    def _monomials(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        key = z.tobytes()
        if key != self._key:
            powers = z[:, None] ** self._exponents
            self._mono = powers.ravel()[self._gather].prod(axis=0)
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
# track_path); an endpoint is accepted at ENDPOINT_TOL
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
    never falls below the round-off floor of a large point."""
    return residual <= tol * max(1.0, magnitude)


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

    def eval_dh_dt(self, z: np.ndarray) -> np.ndarray:
        v, n = self._h.values(z), self.n_vars
        return self.gamma * v[n:] - v[:n]

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


@dataclass
class PathResult:
    status: str
    endpoint: Optional[np.ndarray]
    t_reached: float
    residual: float
    steps_taken: int
    reason: str


def davidenko_rhs(H: HomotopyPair, z, t: float) -> np.ndarray:
    """Tangent dz/dt from (dH/dz) dz/dt = -dH/dt."""
    z = np.asarray(z, dtype=complex)
    return lu_solve_factored(lu_factor(H.eval_dh_dz(z, t), z), -H.eval_dh_dt(z))


def _cos_angle(u: np.ndarray, v: np.ndarray) -> float:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 1.0
    return float(np.real(np.vdot(u, v)) / (nu * nv))


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


def track_path(H: HomotopyPair, z0) -> PathResult:
    """Track one path from the start point z0 at t = 0 to t = 1.  A start
    that fails the start test ends the path as Failed, ``start-rejected``;
    a start of the wrong length raises ValueError."""
    z = np.asarray(z0, dtype=complex).copy()
    if z.shape != (H.n_vars,):
        raise ValueError("start point has wrong dimension")
    if not residual_within(np.abs(H.eval_h(z, 0.0)).max(), NEWTON_TOL, H.scale(z, 0.0)):
        return PathResult(FAILED, None, 0.0, float("inf"), 0, START_REJECTED)

    t = 0.0
    step = INITIAL_STEP
    successes = 0
    steps_taken = 0

    # tangent at (z, t): kept through a rejected step, where neither moves,
    # and taken over from the angle check of an accepted step, which
    # computed it at the new (z, t)
    dz = None
    while t < T_TAIL:
        if steps_taken >= MAX_STEPS:
            return PathResult(FAILED, None, t, float("inf"), steps_taken, "max-steps")
        if t >= T_END:
            # Geometric tail: cap the step by a fraction of the remaining
            # distance so far-away endpoints are followed, not jumped at.
            h = min(step, 0.5 * (1.0 - t), T_TAIL - t)
        else:
            h = min(step, T_END - t)
        # Tight per-step corrector budget: a predictor point that needs many
        # Newton iterations has likely strayed toward another path, so fail
        # the step and halve instead.  Once the step is tiny the prediction
        # is accurate and jumping is not a concern, so give Newton its full
        # budget and drop the guard.
        tight = h > 1e-4
        dz_next = None
        try:
            if dz is None:
                dz = davidenko_rhs(H, z, t)
            z_pred = z + h * dz
            z_new = newton_correct(H, z_pred, t + h, STEP_ITERS if tight else NEWTON_ITERS)
            if tight:
                # corrector success also requires the correction to stay
                # small against the predicted move; a large pull-back means
                # the iteration latched onto a different path
                move = float(np.abs(z_pred - z).max())
                corr = float(np.abs(z_new - z_pred).max())
                ok = corr <= max(0.5 * move, 10 * NEWTON_TOL * (1.0 + float(np.abs(z).max())))
            else:
                ok = True
            if ok and h > 10 * MIN_STEP:
                # tangent consistency: a rotation past 60 degrees in one
                # step means either a hairpin the step cannot resolve or a
                # hop onto a neighboring path, so halve and retry
                dz_next = davidenko_rhs(H, z_new, t + h)
                ok = _cos_angle(dz, dz_next) >= 0.5
        except (SingularMatrixError, NoConvergenceError):
            ok = False
        steps_taken += 1
        if ok:
            z = z_new
            t = t + h
            dz = dz_next
            if float(np.abs(z).max()) > DIVERGENCE_NORM:
                return PathResult(DIVERGENT, None, t, float("inf"), steps_taken,
                                  "norm-exceeded")
            successes += 1
            if successes >= 3:
                step = min(step * 1.5, MAX_STEP)
                successes = 0
        else:
            successes = 0
            step = step / 2
            if step < MIN_STEP:
                # no tangent here means it was singular
                growing = dz is not None and float(
                    np.abs(z + MIN_STEP * dz).max()) > float(np.abs(z).max())
                status = DIVERGENT if growing else FAILED
                return PathResult(status, None, t, float("inf"), steps_taken, "min-step")

    refined = refine_endpoint(H, z)
    steps_taken += 1
    if refined is None:
        return PathResult(FAILED, None, t, float("inf"), steps_taken, "refine-rejected")
    z1, residual = refined
    return PathResult(CONVERGED, z1, 1.0, residual, steps_taken, "converged")
