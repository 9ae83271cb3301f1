"""Dense complex linear algebra: row-equilibrated LU with a fixed singularity
rule, and construction of the normalization matrix that maps a vector to
e_n.

The singularity rule is that of a hand-written partial-pivot elimination
(``_eliminate``): rows are scaled to unit max magnitude, and the matrix is
singular when some pivot falls below PIVOT_REL_TOL times the equilibrated
inf-norm.  ``lu_factor`` decides most cases without running that loop.
Partial pivoting keeps every multiplier at most 1 in magnitude, so every
pivot of the equilibrated matrix B is at least 1 / ||B^-1||_inf.  When the
LAPACK inverse of B shows that bound above the threshold by
CERTIFY_MARGIN (room for the rounding of both the inverse and the
elimination), B is nonsingular under the rule and the inverse does the
solves.  Otherwise the hand elimination decides and its factors do the
solves, so the decision is always the elimination's.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

PIVOT_REL_TOL = 1e-14
# Factor between the pivot lower bound 1 / ||B^-1||_inf and the threshold
# above which the LAPACK inverse decides a matrix nonsingular.  The rounding
# of the elimination and of the inverse moves pivots by a relative
# O(n^2 * growth * eps * cond(B)); with cond(B) <= 1 / (margin * tol) that is
# far below 1 for the small systems tracked here.
CERTIFY_MARGIN = 1024.0


class SingularMatrixError(ValueError):
    pass


class InvalidBetaError(ValueError):
    pass


class Factored(NamedTuple):
    """A factored matrix A: rows scaled by 1 / ``scales`` give B, which is
    held either as its LAPACK ``inverse`` or as the hand elimination's
    packed ``lu`` factors with row permutation ``piv``."""

    scales: np.ndarray
    inverse: Optional[np.ndarray]
    lu: Optional[np.ndarray]
    piv: Optional[np.ndarray]


def _equilibrate(A):
    """(B, scales, threshold): A with rows scaled to unit max magnitude and
    the pivot threshold of the singularity rule."""
    A = np.asarray(A, dtype=complex)
    n, m = A.shape
    if n != m:
        raise ValueError("matrix must be square")
    absA = np.abs(A)
    # initial=0.0 lets a 0x0 matrix through: no rows, norm 0
    scales = absA.max(axis=1, initial=0.0)
    if not scales.all():
        raise SingularMatrixError("zero row")
    norm = float((absA.sum(axis=1) / scales).max(initial=0.0))
    return A / scales[:, None], scales, PIVOT_REL_TOL * max(norm, 1e-300)


def _eliminate(B, threshold):
    """Reference rule: partial-pivot elimination of B in place; returns
    (packed LU, row permutation), or raises SingularMatrixError when a
    pivot falls below threshold."""
    n = B.shape[0]
    piv = np.arange(n)
    for col in range(n):
        p = col + int(np.argmax(np.abs(B[col:, col])))
        if abs(B[p, col]) < threshold:
            raise SingularMatrixError(f"pivot {abs(B[p, col]):.3e} below threshold")
        if p != col:
            B[[col, p]] = B[[p, col]]
            piv[[col, p]] = piv[[p, col]]
        B[col + 1 :, col] /= B[col, col]
        B[col + 1 :, col + 1 :] -= np.outer(B[col + 1 :, col], B[col, col + 1 :])
    return B, piv


def lu_factor(A) -> Factored:
    """Factor A for lu_solve_factored; raises SingularMatrixError exactly
    where the reference elimination finds a pivot below PIVOT_REL_TOL
    relative to the equilibrated matrix norm (see the module docstring)."""
    B, scales, threshold = _equilibrate(A)
    try:
        inverse = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        inverse = None
    # written so that a NaN bound falls through to the elimination
    if inverse is not None and (
        float(np.abs(inverse).sum(axis=1).max(initial=0.0)) * threshold * CERTIFY_MARGIN <= 1.0
    ):
        return Factored(scales, inverse, None, None)
    lu, piv = _eliminate(B, threshold)
    return Factored(scales, None, lu, piv)


def lu_solve_factored(factored: Factored, b):
    b = np.asarray(b, dtype=complex) / factored.scales
    if factored.inverse is not None:
        return factored.inverse @ b
    LU = factored.lu
    x = b[factored.piv]
    n = LU.shape[0]
    for i in range(1, n):
        x[i] -= LU[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - LU[i, i + 1 :] @ x[i + 1 :]) / LU[i, i]
    return x


def lu_solve(A, b):
    """Solve A x = b; raises SingularMatrixError under the pivot rule."""
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if A.shape[0] != b.shape[0]:
        raise ValueError("dimension mismatch")
    return lu_solve_factored(lu_factor(A), b)


def beta_normalizer(beta) -> np.ndarray:
    """Invertible A with A @ beta = (0, ..., 0, 1)."""
    beta = np.asarray(beta, dtype=complex)
    n = beta.shape[0]
    if n == 0 or np.abs(beta).max() == 0:
        raise InvalidBetaError("beta must be a nonzero vector")
    p = int(np.argmax(np.abs(beta)))
    # Basis matrix B: unit vectors (skipping e_p) in the first n-1 columns,
    # beta last.  det(B) = +/- beta[p] != 0, and B @ e_n = beta.
    B = np.zeros((n, n), dtype=complex)
    cols = [j for j in range(n) if j != p]
    for idx, j in enumerate(cols):
        B[j, idx] = 1.0
    B[:, n - 1] = beta
    factored = lu_factor(B)
    A = np.column_stack(
        [lu_solve_factored(factored, np.eye(n, dtype=complex)[:, j]) for j in range(n)]
    )
    return A
