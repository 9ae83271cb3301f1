import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lph.linalg import (
    InvalidBetaError,
    SingularMatrixError,
    _eliminate,
    _equilibrate,
    beta_normalizer,
    lu_factor,
    lu_solve,
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


def _reference_rejects(A):
    B, _, threshold = _equilibrate(A)
    try:
        _eliminate(B, threshold)
    except SingularMatrixError:
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000), st.floats(-16.0, -10.0))
def test_singular_decision_matches_reference_elimination(n, seed, log_pivot):
    # A = P L U with |L_ij| <= 1 and its smallest pivot swept across the
    # threshold 1e-14 * ||A||, where the LAPACK bound and the hand
    # elimination must agree
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
    rejects = _reference_rejects(A)
    try:
        lu_factor(A)
    except SingularMatrixError:
        assert rejects
        return
    assert not rejects
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = lu_solve(A, b)
    # normwise backward error
    scale = np.abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
    assert np.abs(A @ x - b).max() <= 1e-12 * scale
