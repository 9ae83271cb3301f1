"""Real witness sets: at least one real point per connected component of a
real variety, via critical points of random linear objectives and recursive
hyperplane augmentation.  Stage endpoints are used as tracked, and a
square stage whose rows are affine but one (the last stage of a
hypersurface) is solved on a line by ``line_points``, whose roots pass
``refine_on``.  Only ``real_filter``, which moves near-real points onto the
real locus, refines a stage's points again, with ``refine_on``.  That
refinement is the only acceptance test of a witness point: its system (the
critical system, or the square system of the last stage) contains f's rows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .poly import MultiPoly, PolySystem, jacobian_transpose
from .solver import LPHProblem, lph_solve
from .start_systems import dedup_points, refine_on, solve_square
from .tracker import HomotopyPair, SystemEvaluator

logger = logging.getLogger(__name__)

# a point is near-real when every imaginary part is below this
TAU_IMAG = 1e-6


@dataclass
class WitnessPoint:
    point: np.ndarray  # real vector in the x-space
    stage: int
    residual: float


@dataclass
class RealWitnessSet:
    points: List[WitnessPoint]
    betas: List[np.ndarray]  # betas[s] is the objective of critical stage s
    c_values: List[float]


def build_critical_system(f: PolySystem, beta) -> LPHProblem:
    """Lagrange critical system of the linear objective with gradient beta:
    {f, sum_i lambda_i grad(f_i) - beta}."""
    return LPHProblem(f, jacobian_transpose(f), np.asarray(beta, dtype=complex))


def augment(f: PolySystem, beta, c: float) -> PolySystem:
    """Append the hyperplane beta . x + c = 0 to f."""
    return PolySystem(f.n_vars, list(f.polys)
                      + [MultiPoly.affine(np.asarray(beta, dtype=float), float(c))])


def real_filter(points, square_system: PolySystem) -> List[np.ndarray]:
    """Keep near-real points, drop imaginary parts and re-converge them with
    ``refine_on`` on the (real-coefficient) square system.  Newton from a
    real point on a real system stays real, so the kept points are real."""
    R = HomotopyPair(square_system, square_system, 1.0)
    out = []
    for z in points:
        z = np.asarray(z, dtype=complex)
        if np.abs(z.imag).max() >= TAU_IMAG:
            continue
        x = refine_on(R, z.real)
        if x is not None:
            out.append(x.real)
    return out


def witness_bound(n: int, k: int, d_f: int, D: int) -> int:
    """Upper bound on the real witness set size over all recursion stages."""
    if not (n > k > 0):
        raise ValueError("require n > k > 0")
    if d_f <= 1:
        raise ValueError("require max degree > 1")
    return sum(
        math.comb(n - 1 - j, n - k - j) * (d_f - 1) ** (n - k - j) * D
        for j in range(n - k + 1)
    )


def full_rank_check(f: PolySystem, sample_points) -> List[dict]:
    """Advisory Jacobian-rank report at sample points near V(f): the rank
    counts singular values above 1e-8 times the largest."""
    k = len(f)
    ev = SystemEvaluator(f)
    report = []
    for pt in sample_points:
        pt = np.asarray(pt, dtype=complex)
        s = np.linalg.svd(ev.jacobian(pt), compute_uv=False)
        r = int((s > 1e-8 * s.max(initial=0.0)).sum())
        deficient = r < k
        if deficient:
            logger.warning("rank-deficient Jacobian (rank %d < %d) at sample", r, k)
        report.append({"point": pt, "rank": r, "deficient": deficient})
    return report


def real_witness_set(
    f: PolySystem,
    rng: Optional[np.random.Generator] = None,
    beta=None,
    c_values=None,
) -> RealWitnessSet:
    """Real witness points of V_R(f), tagged by the recursion stage that
    produced them.  Critical stage s finds the critical points of betas[s] . x
    and then augments with the hyperplane betas[s] . x + c_s = 0; betas[0] is
    `beta` (drawn when None), and each later stage draws a fresh objective,
    since betas[s-1] . x is constant on stage s's slice."""
    rng = rng if rng is not None else np.random.default_rng(0)
    n, k0 = f.n_vars, len(f)
    if k0 > n:
        raise ValueError("more equations than variables")

    def objective():
        return (0.5 + rng.random(n)) * np.where(rng.random(n) < 0.5, -1.0, 1.0)

    if beta is None:
        beta = objective()
    n_stages = n - k0
    # the stages without a given c draw one
    c_values = [] if c_values is None else [float(c) for c in c_values]
    c_values += [float(rng.uniform(-5, 5)) for _ in range(n_stages - len(c_values))]
    betas = [np.asarray(beta, dtype=float)] + [objective() for _ in range(1, n_stages)]

    kept: List[WitnessPoint] = []
    cur = f
    for stage in range(n_stages + 1):
        k = k0 + stage
        if k == n:
            reals = real_filter(solve_square(cur, rng), cur)
        else:
            prob = build_critical_system(cur, betas[stage])
            result = lph_solve(prob, rng)
            full_rank_check(cur, result.witness_M)
            reals_full = real_filter(result.solutions, prob.full_system())
            reals = [r[:n] for r in reals_full]
        # the kept points are distinct, so dedup drops only repeated new ones
        for x in dedup_points([wp.point for wp in kept] + reals)[len(kept):]:
            kept.append(WitnessPoint(x, stage, f.residual(x.astype(complex))))
        if k < n:
            cur = augment(cur, betas[stage], c_values[stage])
    return RealWitnessSet(kept, betas, c_values)
