"""Linear-product homotopy for the system class {f, J(x) * lambda - beta}.

The solver exploits the product structure: beta is normalized to e_n, a
start system G is built whose first n-1 extra equations are products of d
affine-linear x-factors and one linear lambda-factor, start points are
enumerated combinatorially from witness points of V(f), and two linear
homotopies (x-space slice moves, then G -> F) carry them to the target.
For a hypersurface (k = 1) each slice is a line, and the witness points on
it come from ``line_points`` with no slice move tracked.  When J is affine
too (d = 1), the critical points themselves lie on a line
(``critical_points_on_a_line``): no slice move, back-solve or H2 runs
unless that route declines.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from .linalg import InvalidBetaError, SingularMatrixError, beta_normalizer, lu_solve
from .poly import MultiPoly, PolySystem
from .start_systems import (
    DEDUP_TOL,
    dedup_points,
    line_points,
    refine_on,
    unit_complex,
    witness_points,
)
# track_path is unused here; perfbench/test_perfbench.py and tests/test_api.py
# check this binding of it
from .tracker import (  # noqa: F401
    CONVERGED,
    DIVERGENT,
    FAILED,
    HomotopyPair,
    track_path,
    track_stage,
)

logger = logging.getLogger(__name__)


class DegreeZeroJacobianError(ValueError):
    pass


def root_bound(n: int, k: int, d: int, D: int) -> int:
    """C(n-1, n-k) * d^(n-k) * D, the path/root count of the method."""
    if not (n > k >= 1):
        raise ValueError("require n > k >= 1")
    if d < 0 or D < 0:
        raise ValueError("require d >= 0 and D >= 0")
    return math.comb(n - 1, n - k) * d ** (n - k) * D


def jacobian_degree(J: List[List[MultiPoly]]) -> int:
    """d: the largest total degree among the entries of J (0 if all are
    constant or zero)."""
    return max(max(entry.degree, 0) for row in J for entry in row)


def _critical_system(f: PolySystem, J: List[List[MultiPoly]], rhs) -> PolySystem:
    """{f, J * lambda - rhs} in the n + k variables (x, lambda), where f has
    k polynomials in n variables and J has one row of k entries per
    entry of rhs."""
    n, k = f.n_vars, len(f)
    N = n + k
    polys = [p.lift(N) for p in f.polys]
    for J_row, b in zip(J, rhs):
        row = MultiPoly.constant(N, -b)
        for j, entry in enumerate(J_row):
            row = row + entry.lift(N) * MultiPoly.variable(n + j, N)
        polys.append(row)
    return PolySystem(N, polys)


@dataclass
class LPHProblem:
    """The triple (f, J, beta): k polynomials f in n variables, an n x k
    polynomial matrix J, and a nonzero constant vector beta."""

    f: PolySystem
    J: List[List[MultiPoly]]
    beta: np.ndarray

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=complex)
        n, k = self.f.n_vars, len(self.f)
        if not (n > k >= 1):
            raise ValueError("require n > k >= 1")
        if len(self.J) != n or any(len(row) != k for row in self.J):
            raise ValueError("J must be an n x k matrix of polynomials")
        if self.beta.shape != (n,) or np.abs(self.beta).max() == 0:
            raise InvalidBetaError("beta must be a nonzero vector of length n")

    @property
    def n(self) -> int:
        return self.f.n_vars

    @property
    def k(self) -> int:
        return len(self.f)

    @property
    def d(self) -> int:
        return jacobian_degree(self.J)

    def full_system(self) -> PolySystem:
        """The square (n+k)-dimensional system {f, J * lambda - beta}."""
        return _critical_system(self.f, self.J, self.beta)


@dataclass
class NormalizedProblem:
    """Problem with beta rotated to e_n: J_prime = A @ J, A @ beta = e_n."""

    original: LPHProblem
    A: np.ndarray
    J_prime: List[List[MultiPoly]]

    def normalized_full_system(self) -> PolySystem:
        """{f, J_prime * lambda - e_n}."""
        e_n = np.eye(self.original.n)[-1]
        return _critical_system(self.original.f, self.J_prime, e_n)


def normalize(p: LPHProblem) -> NormalizedProblem:
    A = beta_normalizer(p.beta)
    n, k = p.n, p.k
    J_prime = []
    for i in range(n):
        row = []
        for j in range(k):
            entry = MultiPoly.zero(n)
            for m in range(n):
                entry = entry + p.J[m][j] * A[i, m]
            row.append(entry)
        J_prime.append(row)
    return NormalizedProblem(p, A, J_prime)


@dataclass
class LinearProductG:
    """Start system G = {f, g_1, ..., g_n} with g_i = l_i1 ... l_id * h_i
    for i < n and g_n the last row of the normalized linear part."""

    l_x: List[List[MultiPoly]]        # (n-1) x d affine-linear factors, n x-vars
    h_coeffs: np.ndarray              # (n-1) x k lambda-factor coefficients
    g_last_row: List[MultiPoly]       # J_prime[n-1], n x-vars
    system: PolySystem                # assembled G, n+k vars


def build_G(np_: NormalizedProblem, target: PolySystem,
            rng: np.random.Generator) -> LinearProductG:
    """G from the normalized target ``np_.normalized_full_system()``, which
    the caller assembles once: G shares f and g_n, the target's first k rows
    and its last row."""
    p = np_.original
    n, k, d = p.n, p.k, p.d
    if d < 1:
        raise DegreeZeroJacobianError("constant J: linear-product start system undefined")
    N = n + k
    l_x = [[MultiPoly.affine([unit_complex(rng) for _ in range(n)], unit_complex(rng))
            for _ in range(d)] for _ in range(n - 1)]
    h_coeffs = np.array(
        [[unit_complex(rng) for _ in range(k)] for _ in range(n - 1)], dtype=complex
    )
    # f, then the product rows, then g_n = J_prime[n-1] * lambda - 1
    polys = target.polys[:k]
    for i in range(n - 1):
        g = MultiPoly.constant(N, 1.0)
        for fac in l_x[i]:
            g = g * fac.lift(N)
        h = MultiPoly.zero(N)
        for j in range(k):
            h = h + h_coeffs[i, j] * MultiPoly.variable(n + j, N)
        polys.append(g * h)
    polys.append(target.polys[-1])
    return LinearProductG(l_x, h_coeffs, np_.J_prime[n - 1], PolySystem(N, polys))


def enumerate_choices(n: int, k: int, d: int) -> Iterator[tuple]:
    """All C(n-1, n-k) * d^(n-k) choices (rows, picks): the n-k product
    rows that contribute an x-factor, in increasing order, and the 0-based
    factor picked in each.  Rows run in reverse lexicographic order (the
    order of their sorted 0/1 indicator vectors), then picks."""
    if not (n > k >= 1) or d < 1:
        raise ValueError("require n > k >= 1 and d >= 1")
    for rows in reversed(list(itertools.combinations(range(n - 1), n - k))):
        for picks in itertools.product(range(d), repeat=n - k):
            yield rows, picks


def h1_track(
    M: List[np.ndarray],
    f: PolySystem,
    L: List[MultiPoly],
    L_prime: List[MultiPoly],
    gamma1: complex,
    warnings: list,
) -> List[np.ndarray]:
    """The witness points of V(f) on the slice L_prime: by ``line_points``
    when f has one nonlinear row (a hypersurface), else (or when it
    returns None) by moving the points M from the slice L along the slice
    homotopy."""
    n = f.n_vars
    target = PolySystem(n, list(f.polys) + list(L_prime))
    points = line_points(target)
    if points is not None:
        return points
    start = PolySystem(n, list(f.polys) + list(L))
    H = HomotopyPair(start, target, gamma1)
    out = []
    for res in track_stage(H, M):
        if res.status != CONVERGED:
            msg = f"H1 path ended {res.status}; point dropped"
            logger.warning(msg)
            warnings.append(msg)
        else:
            out.append(res.endpoint)
    return out


def backsolve_lambda(x_star: np.ndarray, G: LinearProductG, rows) -> np.ndarray:
    """Unique lambda with (x_star, lambda) a root of G when the product rows
    ``rows`` vanish through their x-factor: h_i(lambda) = 0 on every other
    product row, plus the inhomogeneous last row."""
    k = len(G.g_last_row)
    A = [G.h_coeffs[i] for i in range(len(G.h_coeffs)) if i not in rows]
    A.append(np.array([g.evaluate(x_star) for g in G.g_last_row], dtype=complex))
    A = np.array(A, dtype=complex)
    if A.shape != (k, k):
        raise ValueError("lambda system is not square")
    rhs = np.zeros(k, dtype=complex)
    rhs[-1] = 1.0
    return lu_solve(A, rhs)


def critical_points_on_a_line(np_: NormalizedProblem,
                              target: PolySystem) -> Optional[List[np.ndarray]]:
    """The roots of the normalized target when k = 1 and d = 1: its last
    row makes lambda nonzero, so J'_i(x) = 0 for i < n, n - 1 affine rows
    that cut out a line.  ``line_points`` solves {f, J'_1, ..., J'_(n-1)},
    lambda = 1 / J'_n(x), and each (x, lambda) is accepted only through
    ``refine_on``.  None when a step declines."""
    f, J_prime = np_.original.f, np_.J_prime
    points = line_points(PolySystem(f.n_vars, f.polys + [row[0] for row in J_prime[:-1]]))
    if points is None:
        return None
    R = HomotopyPair(target, target, 1.0)
    out = []
    for x in points:
        g_n = J_prime[-1][0].evaluate(x)
        z = None if g_n == 0 else refine_on(R, np.append(x, 1.0 / g_n))
        if z is None:
            return None
        out.append(z)
    return out


def _sorted(points: List[np.ndarray]) -> List[np.ndarray]:
    """Points sorted on the DEDUP_TOL grid: parts equal up to round-off (the
    real parts of a conjugate pair) compare equal and the next part decides."""
    return sorted(points, key=lambda z: tuple(round(v / DEDUP_TOL)
                                              for c in z for v in (c.real, c.imag)))


@dataclass
class LPHResult:
    """The solutions and the path counts of one solve: converged, divergent
    and failed partition H2's omega_count paths.  When the critical points
    come from a line, omega_count is D, converged counts the accepted
    points and no path diverges or fails."""

    solutions: List[np.ndarray]
    D: int
    omega_count: int
    bound: int
    converged: int
    divergent: int
    failed: int
    witness_M: List[np.ndarray] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)


def lph_solve(p: LPHProblem, rng: Optional[np.random.Generator] = None) -> LPHResult:
    """All isolated solutions of {f, J * lambda - beta} via the
    linear-product start system (witness slice -> slice moves -> lambda
    back-solve -> final homotopy to the target).  A hypersurface with an
    affine J (k = 1, d = 1) takes its solutions from a line after the
    witness stage, and tracks only when that declines.  A constant J
    (d = 0) has none: lambda decouples from x, which ranges over V(f) of
    dimension n - k >= 1 when J * lambda = beta is solvable.  That route
    returns right after the witness stage, with D and the bound 0."""
    rng = rng if rng is not None else np.random.default_rng(0)
    n, k, d = p.n, p.k, p.d
    warnings: List[str] = []
    M, L = witness_points(p.f, rng)
    D = len(M)
    if d == 0:
        return LPHResult([], D, 0, root_bound(n, k, d, D), 0, 0, 0, witness_M=M)
    np_ = normalize(p)
    target = np_.normalized_full_system()
    G = build_G(np_, target, rng)
    gamma1 = unit_complex(rng)
    gamma2 = unit_complex(rng)
    # a row of J that is identically zero against a nonzero beta entry reads
    # 0 = beta_i: the system has no solution, so no path is tracked
    if any(b != 0 and all(entry.is_zero for entry in row) for row, b in zip(p.J, p.beta)):
        return LPHResult([], D, 0, root_bound(n, k, d, D), 0, 0, 0, witness_M=M)
    if k == 1 and d == 1:
        points = critical_points_on_a_line(np_, target)
        if points is not None:
            return LPHResult(_sorted(points), D, D, root_bound(n, k, d, D), len(points),
                             0, 0, witness_M=M)

    omega: List[np.ndarray] = []
    for rows, picks in enumerate_choices(n, k, d):
        L_prime = [G.l_x[row][pick] for row, pick in zip(rows, picks)]
        M_prime = h1_track(M, p.f, L, L_prime, gamma1, warnings)
        for x_star in M_prime:
            try:
                lam = backsolve_lambda(x_star, G, rows)
            except SingularMatrixError:
                msg = "singular lambda back-solve; point dropped"
                logger.warning(msg)
                warnings.append(msg)
                continue
            omega.append(np.concatenate([x_star, lam]))

    # H2's endpoints are used as tracked: the normalized target differs from
    # {f, J * lambda - beta} by the constant row map diag(I, A), under which
    # Newton's iterates do not change
    H2 = HomotopyPair(G.system, target, gamma2)
    counts = {CONVERGED: 0, DIVERGENT: 0, FAILED: 0}
    endpoints = []
    for res in track_stage(H2, omega):
        counts[res.status] += 1
        if res.status == CONVERGED:
            endpoints.append(res.endpoint)
    return LPHResult(
        _sorted(dedup_points(endpoints)),
        D,
        len(omega),
        root_bound(n, k, d, D),
        counts[CONVERGED],
        counts[DIVERGENT],
        counts[FAILED],
        witness_M=M,
        warnings=warnings,
    )
