"""Witness points by generic affine slicing, solved with a total-degree
start system (scaled roots of unity) and the gamma-trick homotopy, whose
paths ``tracker.track_stage`` tracks in lockstep.

A square system whose rows are affine but one is solved on the line the
affine rows cut out, with no path tracked (``line_points``): the nonlinear
row restricts to a univariate polynomial there.  That is every witness
problem of a hypersurface.  A Converged endpoint is used as tracked:
``refine_on`` (``refine_endpoint``, one point per call) runs only where a
point is made or changes, on the roots of ``line_points`` and in
``real_filter``, which drops an imaginary part.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import List, Optional

import numpy as np

from .linalg import SingularMatrixError, lu_factor, lu_solve_factored
from .poly import MultiPoly, PolySystem
# track_path is unused here; perfbench/test_perfbench.py and tests/test_api.py
# check this binding of it
from .tracker import (  # noqa: F401
    CONVERGED,
    ENDPOINT_TOL,
    FAILED,
    HomotopyPair,
    refine_endpoint,
    track_path,
    track_stage,
)

DEDUP_TOL = 1e-6


class ZeroPolynomialError(ValueError):
    pass


class AllPathsFailedError(RuntimeError):
    pass


def unit_complex(rng: np.random.Generator) -> complex:
    return cmath.exp(2j * math.pi * rng.random())


def random_slice(f: PolySystem, rng: np.random.Generator) -> List[MultiPoly]:
    """n-k affine-linear polynomials with unit-modulus coefficients."""
    n = f.n_vars
    k = len(f)
    if k >= n:
        raise ValueError("slicing requires k < n")
    return [MultiPoly.affine([unit_complex(rng) for _ in range(n)],
                             2.0 * (2.0 * rng.random() - 1.0))
            for _ in range(n - k)]


def total_degree_start(degrees: List[int], offsets: List[complex]):
    """The start system {z_i^d_i - r_i} and its prod(d_i) roots, scaled
    roots of unity, the first coordinate varying fastest."""
    n = len(degrees)
    polys = []
    per_coord = []
    for i, (d, r) in enumerate(zip(degrees, offsets)):
        exps = [0] * n
        exps[i] = d
        polys.append(MultiPoly(n, [(tuple(exps), 1.0), ((0,) * n, -r)]))
        mag = abs(r) ** (1.0 / d)
        arg = cmath.phase(r)
        per_coord.append([mag * cmath.exp(1j * (arg + 2 * math.pi * j) / d) for j in range(d)])
    roots = [np.array(root[::-1], dtype=complex)
             for root in itertools.product(*reversed(per_coord))]
    return PolySystem(n, polys), roots


def dedup_points(points):
    kept: list = []
    for p in points:
        if not any(np.abs(p - q).max() < DEDUP_TOL for q in kept):
            kept.append(p)
    return kept


def refine_on(R: HomotopyPair, point: np.ndarray) -> Optional[np.ndarray]:
    """Newton-polish a point against the target of the pair R (a system
    stacked on itself) under the tracker's endpoint-acceptance rule, with
    Newton run to ENDPOINT_TOL in at most 20 steps; None if the point is
    rejected.  Under a path's budget (NEWTON_TOL, NEWTON_ITERS) Newton
    runs on toward a double root until its step passes the contraction
    test: the root of (x - 1)^2 is accepted at 1.0000039."""
    refined = refine_endpoint(R, point, max_iters=20, tol=ENDPOINT_TOL)
    return None if refined is None else refined[0]


def line_points(F: PolySystem) -> Optional[List[np.ndarray]]:
    """The roots of a square F whose rows are affine but one, computed on
    the line x = p + s * v the affine rows cut out: the nonlinear row f of
    degree d restricts to a univariate g(s), whose coefficients come from
    its values at the d + 1 roots of unity, one ``evaluate`` call, and
    whose roots from ``np.roots``.  Each root must pass ``refine_on``.  None
    when F is not of that form, its affine rows are dependent, a root is
    rejected or fewer than d distinct points remain."""
    n = F.n_vars
    nonlinear = [i for i, p in enumerate(F.polys) if p.degree > 1]
    if len(nonlinear) != 1:
        return None
    i = nonlinear[0]
    affine = [row for j, row in enumerate(F.polys) if j != i]
    # an affine row's exponents are unit vectors and the constant's zero
    A = np.array([row.exps.T @ row.coeffs for row in affine], dtype=complex).reshape(n - 1, n)
    b = np.array([row.coeffs[~row.exps.any(axis=1)].sum() for row in affine], dtype=complex)
    # the line: A x = -b and x_j = s, for the first unit row e_j that
    # completes A
    for unit in np.eye(n):
        try:
            factored = lu_factor(np.vstack([A, unit]))
            break
        except SingularMatrixError:
            pass
    else:
        return None
    v = lu_solve_factored(factored, np.eye(n)[-1])
    p = lu_solve_factored(factored, np.append(-b, 0.0))
    # unit direction, and the point of the line nearest the origin
    v = v / np.linalg.norm(v)
    p = p - np.vdot(v, p) * v
    R = HomotopyPair(F, F, 1.0)
    d = F.polys[i].degree
    omega = np.exp(2j * np.pi * np.arange(d + 1) / (d + 1))
    values = R.evaluate(p + omega[:, None] * v, R.weights(np.ones(d + 1)))[2][:, n + i]
    # g(w^m) = sum_k c_k w^(m k): the inverse DFT gives c, lowest first
    coeffs = np.conj(np.vander(omega, increasing=True)) @ values / (d + 1)
    points = []
    for s in np.roots(coeffs[::-1]):
        x = refine_on(R, p + s * v)
        if x is None:
            return None
        points.append(x)
    points = dedup_points(points)
    return points if len(points) == d else None


def solve_square(F: PolySystem, rng: Optional[np.random.Generator] = None) -> List[np.ndarray]:
    """All isolated solutions of a square system: by ``line_points`` when
    every row but one is affine, else (or when it returns None) by a
    total-degree homotopy.  The homotopy's offsets and gamma are drawn
    first either way, so rng ends in the same state on both routes."""
    rng = rng if rng is not None else np.random.default_rng(0)
    if len(F) != F.n_vars:
        raise ValueError("system must be square")
    degrees = []
    for p in F.polys:
        if p.is_zero:
            raise ZeroPolynomialError("zero polynomial in square system")
        degrees.append(max(p.degree, 1))
    offsets = [unit_complex(rng) for _ in degrees]
    gamma = unit_complex(rng)
    points = line_points(F)
    if points is not None:
        return points
    G, roots = total_degree_start(degrees, offsets)
    H = HomotopyPair(G, F, gamma)
    records = track_stage(H, roots)
    endpoints = [res.endpoint for res in records if res.status == CONVERGED]
    if not endpoints and records and all(res.status == FAILED for res in records):
        raise AllPathsFailedError("every path of the total-degree homotopy failed")
    return dedup_points(endpoints)


def witness_points(f: PolySystem, rng: Optional[np.random.Generator] = None):
    """Witness points of V(f) on a random slice, and the slice L: the points
    solve {f, L}, and the witness degree D is their count.  For a
    hypersurface {f, L} is a line, which ``solve_square`` solves with
    ``line_points``."""
    rng = rng if rng is not None else np.random.default_rng(0)
    L = random_slice(f, rng)
    return solve_square(PolySystem(f.n_vars, list(f.polys) + L), rng), L
