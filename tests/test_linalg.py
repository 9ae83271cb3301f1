import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lph.linalg import (
    PIVOT_REL_TOL,
    InvalidBetaError,
    SingularMatrixError,
    beta_normalizer,
    factor_stack,
    lu_factor,
    lu_solve,
    lu_solve_factored,
)


def test_identity_solve():
    b = np.array([1.0, 1j, -2.0])
    assert np.allclose(lu_solve(np.eye(3), b), b)


def test_diagonal_solve():
    A = np.array([[2.0, 0.0], [0.0, 2.0]])
    assert np.allclose(lu_solve(A, np.array([4.0, 6.0])), [2.0, 3.0])


def test_random_solve_multiply_back():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    b = rng.normal(size=8) + 1j * rng.normal(size=8)
    x = lu_solve(A, b)
    assert np.abs(A @ x - b).max() < 1e-10


def test_singular_matrix_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        lu_solve(A, np.array([1.0, 1.0]))


def test_zero_row_raises():
    A = np.array([[0.0, 0.0], [1.0, 2.0]])
    with pytest.raises(SingularMatrixError):
        lu_factor(A)


def test_badly_row_scaled_matrix_is_not_flagged_singular():
    # mixed row scales (1e12 vs 1) defeat a global pivot threshold; row
    # equilibration must keep this solvable
    A = np.array([[1e12, 3e12], [0.02, 1.0]], dtype=complex)
    b = np.array([1.0, 1.0], dtype=complex)
    x = lu_solve(A, b)
    row_scale = np.abs(A).max(axis=1)
    assert (np.abs(A @ x - b) / row_scale).max() < 1e-12


def test_non_square_raises():
    with pytest.raises(ValueError):
        lu_factor(np.ones((2, 3)))


def test_empty_matrix():
    x = lu_solve(np.zeros((0, 0)), np.zeros(0))
    assert x.shape == (0,)


def test_beta_normalizer_already_normalized():
    beta = np.array([0.0, 0.0, 1.0])
    A = beta_normalizer(beta)
    assert np.abs(A @ beta - np.array([0, 0, 1.0])).max() < 1e-12


def test_beta_normalizer_unit_x():
    beta = np.array([1.0, 0.0])
    A = beta_normalizer(beta)
    assert np.abs(A @ beta - np.array([0, 1.0])).max() < 1e-12


def test_beta_normalizer_random_complex():
    rng = np.random.default_rng(9)
    beta = rng.normal(size=5) + 1j * rng.normal(size=5)
    A = beta_normalizer(beta)
    e5 = np.zeros(5)
    e5[4] = 1.0
    assert np.abs(A @ beta - e5).max() < 1e-12
    assert abs(np.linalg.det(A)) > 1e-12


def test_beta_normalizer_zero_rejected():
    with pytest.raises(InvalidBetaError):
        beta_normalizer(np.zeros(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000))
def test_solve_multiply_back_property(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    try:
        x = lu_solve(A, b)
    except SingularMatrixError:
        return
    assert np.abs(A @ x - b).max() < 1e-8 * max(1.0, np.abs(A).max())


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000), st.floats(-16.0, -10.0))
def test_singular_decision_follows_condition_number(n, seed, log_pivot):
    # A = P L U with |L_ij| <= 1 and its smallest pivot swept across the
    # threshold 1e-14 * ||A||.  The rule's cond_inf of the row-equilibrated
    # B is within a factor n of its SVD condition number, so outside that
    # band around the threshold the verdict is fixed.
    rng = np.random.default_rng(seed)
    L = np.tril(rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)), -1)
    L = (L / np.maximum(np.abs(L), 1.0)) + np.eye(n)
    U = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    P = np.eye(n)[rng.permutation(n)]
    k = int(rng.integers(n))
    U[k, k] = 0.0
    norm = np.abs(P @ L @ U).sum(axis=1).max()
    U[k, k] = 10.0 ** log_pivot * norm * np.exp(2j * np.pi * rng.random())
    A = P @ L @ U
    B = A / np.abs(A).max(axis=1)[:, None]
    kappa = np.linalg.cond(B, 2) * PIVOT_REL_TOL
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    try:
        x = lu_solve(A, b)
    except SingularMatrixError:
        assert kappa > 1.0 / n
        return
    assert kappa < n
    # normwise backward error
    scale = np.abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
    assert np.abs(A @ x - b).max() <= 1e-12 * scale


# J * diag(|z|) for the Jacobian J of a critical system
# {f, lambda * grad f - beta} in (x, y, lambda): row 0 (f) has no lambda
# entry.  It is well conditioned.
_CRAWLER_SCALED = np.array([
    [1.0 + 0.2j, 2.0, 0.0],
    [0.3, -0.5 + 0.1j, 1.0],
    [0.7j, 0.2, -1.0 + 0.4j],
])


@pytest.mark.parametrize("z", [
    pytest.param((8e2, 2e4, 1e-18), id="near-infinity"),
    pytest.param((0.0, 2e4, 1e-18), id="zero-coordinate"),
])
def test_solve_retries_column_scaled(z):
    # near infinity |x| and |y| are huge and lambda is tiny: the lambda
    # column dwarfs the others by ~20 orders, which the row-equilibrated
    # rule calls singular although A is well conditioned
    z = np.array(z, dtype=complex)
    d = np.where(z == 0, 1.0, np.abs(z))
    J = _CRAWLER_SCALED / d
    r = np.array([1.0, -2.0 + 1j, 0.5])
    with pytest.raises(SingularMatrixError):
        lu_factor(J)
    with np.errstate(all="raise"):
        x = lu_solve_factored(lu_factor(J, col_scale=z), r)
    assert np.isfinite(x).all()
    norm = np.linalg.norm
    backward = norm(J @ x - r, np.inf) / (norm(J, np.inf) * norm(x, np.inf) + norm(r, np.inf))
    assert backward <= 1e-12
    assert np.allclose(x / d, np.linalg.solve(_CRAWLER_SCALED, r), rtol=1e-12, atol=0)


@pytest.mark.parametrize("J", [
    pytest.param([[1.0, 0.0, 2.0], [3.0, 0.0, 1e17], [0.5, 0.0, -1e17]], id="zero-column"),
    pytest.param([[1.0, 2.0, 2.0], [3.0, 6.0, 1e17], [0.5, 1.0, -1e17]], id="proportional-columns"),
])
def test_solve_keeps_singular_verdict_in_every_scaling(J):
    with pytest.raises(SingularMatrixError):
        lu_solve_factored(lu_factor(np.array(J, dtype=complex),
                                    col_scale=np.array([8e2, 2e4, 1e-18], dtype=complex)),
                          np.ones(3, dtype=complex))


def test_solve_matches_plain_factorization_when_nonsingular():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5):
        J = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        r = rng.normal(size=n) + 1j * rng.normal(size=n)
        z = 10.0 ** rng.uniform(-18, 4, size=n) + 0j
        x = lu_solve_factored(lu_factor(J, col_scale=z), r)
        assert x.tobytes() == lu_solve_factored(lu_factor(J), r).tobytes()


def test_factor_stack_gives_each_matrix_its_own_verdict():
    # one stack: a regular matrix, one with a zero row, an exactly singular
    # one (a stacked inv raises LinAlgError on it) and one the rule calls
    # singular until its columns are scaled by its point
    z = np.array([8e2, 2e4, 1e-18], dtype=complex)
    rng = np.random.default_rng(3)
    regular = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    zero_row = regular.copy()
    zero_row[1] = 0.0
    singular = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 1.0, -1.0]], dtype=complex)
    crawler = _CRAWLER_SCALED / np.abs(z)
    stack = np.array([regular, zero_row, singular, crawler])
    col_scale = np.array([z, z, z, z])
    verdicts, factored = factor_stack(stack, col_scale)
    assert verdicts.tolist() == [True, False, False, True]
    # each verdict is the one it gets in a stack of one
    for p in range(len(stack)):
        assert factor_stack(stack[p:p + 1], col_scale[p:p + 1])[0].tolist() == [verdicts[p]]
    # the regular matrix factors and solves byte for byte as a stack of one
    alone = factor_stack(stack[:1], col_scale[:1])[1]
    assert factored[0][0].tobytes() == alone[0][0].tobytes()
    assert factored[1][0].tobytes() == alone[1][0].tobytes()
    b = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    x = lu_solve_factored(factored, b)
    assert x[0].tobytes() == lu_solve_factored(alone, b[:1])[0].tobytes()
    assert x[0].tobytes() == lu_solve_factored(lu_factor(regular, col_scale=z), b[0]).tobytes()
    # the column-scaled one solves its system
    assert np.allclose(x[3] / np.abs(z), np.linalg.solve(_CRAWLER_SCALED, b[3]),
                       rtol=1e-12, atol=0)
    for A in (zero_row, singular):
        with pytest.raises(SingularMatrixError):
            lu_factor(A, col_scale=z)
