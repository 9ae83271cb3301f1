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

The rule works on a stack of matrices and gives each its own verdict
(``factor_stack``): the tracker factors the Jacobians of every live path
of a stage at once, and a matrix's verdict, factors and solves never depend
on the other matrices of its stack.  ``np.linalg.inv`` on a stack gives
each matrix the bytes of a single call, and ``lu_solve_factored`` uses one
``einsum`` kernel for every stack size.  ``lu_factor`` is the stack of one.
"""

from __future__ import annotations

import numpy as np

PIVOT_REL_TOL = 1e-14


class SingularMatrixError(ValueError):
    pass


class InvalidBetaError(ValueError):
    pass


def _inverse(A: np.ndarray):
    """Per matrix of the stack A, (P, N, N): its row scales, the inverse of
    A with its rows scaled by 1 / scales, and whether the rule of the module
    docstring calls it regular.  A stacked ``inv`` that meets an exactly
    singular matrix (a zero row is one) falls back to one call per matrix."""
    absA = np.abs(A)
    # initial=0.0 lets a 0x0 matrix through: no rows, norm 0; a zero row
    # gets scale 1, which keeps it zero and the rest finite
    scales = absA.max(axis=2, initial=0.0)
    scales += scales == 0.0
    B = A / scales[:, :, None]
    singular = []
    try:
        inverse = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        inverse = np.zeros_like(B)
        for p in range(len(B)):
            try:
                inverse[p] = np.linalg.inv(B[p])
            except np.linalg.LinAlgError:
                singular.append(p)
    cond = ((absA.sum(axis=2) / scales).max(axis=1, initial=0.0)
            * np.abs(inverse).sum(axis=2).max(axis=1, initial=0.0))
    # written so that a NaN condition number is singular
    regular = cond * PIVOT_REL_TOL < 1.0
    if singular:
        regular[singular] = False
    return scales, inverse, regular


def factor_stack(A, col_scale=None):
    """Factor each matrix of the stack A, (P, N, N), under the rule; a matrix
    it calls singular is judged again as A[p] * diag(|col_scale[p]|) when
    ``col_scale`` (P, N) is given.  Returns (regular, factored): the verdict
    per matrix, and the stacked (row scales, inverses, column scales) for
    ``lu_solve_factored``, whose solves mean nothing for a singular matrix.
    The column scales are None when no matrix was scaled, else 0 on the
    rows of a matrix factored unscaled."""
    A = np.asarray(A, dtype=complex)
    scales, inverse, regular = _inverse(A)
    d = None
    singular = (~regular).nonzero()[0]
    if singular.size and col_scale is not None:
        scale = np.abs(col_scale[singular])
        scale[scale == 0.0] = 1.0
        scales[singular], inverse[singular], regular[singular] = _inverse(
            A[singular] * scale[:, None, :])
        d = np.zeros(scales.shape)
        d[singular] = scale
    return regular, (scales, inverse, d)


def lu_factor(A, col_scale=None):
    """Factor A for lu_solve_factored as (row scales, inverse, column scale
    or None): ``factor_stack`` on the stack of one.  Raises
    SingularMatrixError when the rule calls A singular and, if
    ``col_scale`` is given, also A * diag(|col_scale|)."""
    A = np.asarray(A, dtype=complex)
    n, m = A.shape
    if n != m:
        raise ValueError("matrix must be square")
    col_scale = None if col_scale is None else np.asarray(col_scale)[None]
    regular, (scales, inverse, d) = factor_stack(A[None], col_scale)
    if not regular[0]:
        raise SingularMatrixError("singular under the pivot rule")
    return scales[0], inverse[0], None if d is None else d[0]


def lu_solve_factored(factored, b):
    """x with A x = b for one factored matrix and a vector b, or for a
    factored stack and one row of b per matrix."""
    scales, inverse, d = factored
    x = np.einsum("...ij,...j->...i", inverse, np.asarray(b, dtype=complex) / scales)
    if d is not None:
        np.multiply(x, d, out=x, where=d > 0.0)
    return x


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
