"""Dense complex linear algebra: one singularity rule on one LAPACK call,
and construction of the normalization matrix that maps a vector to e_n.

The rule: scale the rows of A to unit max magnitude, giving B, and call A
singular unless LAPACK inverts B with cond_inf(B) * PIVOT_REL_TOL < 1 (a
NaN condition number is singular).  The inverse of B then does the solves.

Rows are equilibrated, columns are not, so a column whose entries are tiny
because its variable is huge can make a well-posed A look singular: near
infinity the lambda column of a critical system's Jacobian dwarfs the x
columns by 20 orders of magnitude.  ``lu_factor`` therefore takes an
optional column scale (the tracker passes its point z) and judges a
matrix the rule calls singular again as A * diag(|z|), a zero coordinate
keeping scale 1.  A is singular only when both verdicts say so.  The
column scale is never applied first: a root with a coordinate near zero
would have that column squashed to round-off and be called singular.
"""

from __future__ import annotations

import numpy as np

PIVOT_REL_TOL = 1e-14


class SingularMatrixError(ValueError):
    pass


class InvalidBetaError(ValueError):
    pass


def _inverse(A: np.ndarray):
    """(row scales, inverse of A with its rows scaled by 1 / scales), or
    SingularMatrixError under the rule of the module docstring."""
    absA = np.abs(A)
    # initial=0.0 lets a 0x0 matrix through: no rows, norm 0
    scales = absA.max(axis=1, initial=0.0)
    if not scales.all():
        raise SingularMatrixError("zero row")
    try:
        inverse = np.linalg.inv(A / scales[:, None])
    except np.linalg.LinAlgError:
        raise SingularMatrixError("LAPACK found an exact zero pivot") from None
    cond = (float((absA.sum(axis=1) / scales).max(initial=0.0))
            * float(np.abs(inverse).sum(axis=1).max(initial=0.0)))
    # written so that a NaN condition number is singular
    if not cond * PIVOT_REL_TOL < 1.0:
        raise SingularMatrixError(f"condition number {cond:.3e} of the equilibrated matrix")
    return scales, inverse


def lu_factor(A, col_scale=None):
    """Factor A for lu_solve_factored as (row scales, inverse, column scale
    or None).  Raises SingularMatrixError when the rule calls A singular
    and, if ``col_scale`` is given, also A * diag(|col_scale|)."""
    A = np.asarray(A, dtype=complex)
    n, m = A.shape
    if n != m:
        raise ValueError("matrix must be square")
    try:
        return (*_inverse(A), None)
    except SingularMatrixError:
        if col_scale is None:
            raise
    d = np.abs(col_scale)
    d[d == 0.0] = 1.0
    return (*_inverse(A * d), d)


def lu_solve_factored(factored, b):
    scales, inverse, d = factored
    x = inverse @ (np.asarray(b, dtype=complex) / scales)
    return x if d is None else x * d


def lu_solve(A, b):
    """Solve A x = b; raises SingularMatrixError under the rule."""
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
    # inverse is that of B with its rows scaled by 1 / scales, so
    # B^-1 = inverse @ diag(1 / scales)
    scales, inverse, _ = lu_factor(B)
    return inverse * (1.0 / scales)
