import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lph.poly import (
    MAX_POWER_DEGREE,
    MultiPoly,
    ParseError,
    PolySystem,
    jacobian_transpose,
    parse,
    parse_poly,
)

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def test_parse_circle_terms_and_degree():
    p = parse_poly("x^2 + y^2 - 1", XY)
    assert len(p.coeffs) == 3
    assert p.degree == 2


def test_parse_sparse_cubic_terms_and_degree():
    p = parse_poly("-62*x*y + 97*y - 4*x*y*z - 4", XYZ)
    assert len(p.coeffs) == 4
    assert p.degree == 3


def test_zero_polynomial():
    p = parse_poly("0", XY)
    assert p.is_zero
    assert len(p.coeffs) == 0
    assert p.degree == -1


def test_canonical_form_merges_duplicates():
    p = MultiPoly(2, [((1, 0), 2.0), ((1, 0), 3.0), ((0, 0), 0.0)])
    assert len(p.coeffs) == 1
    assert p.coeffs[0] == 5.0


def test_affine_row():
    # sum_i coeffs[i] * x_i + constant; a zero coefficient drops its term
    row = MultiPoly.affine([2.0, 0.0, -1.5j], 3.0)
    assert row == parse_poly("2*x + 3", XYZ) + MultiPoly.variable(2, 3) * -1.5j
    assert row.exps.tolist() == [[1, 0, 0], [0, 0, 1], [0, 0, 0]]


def test_evaluate_linear():
    p = parse_poly("x + y", XY)
    assert p.evaluate(np.array([1.0, 2.0])) == pytest.approx(3.0)


def test_evaluate_paper_point_on_cubic():
    p = parse_poly("y^2 - x^3 + 4*x + 1", XY)
    v = p.evaluate(np.array([-1.44299, -1.32941], dtype=complex))
    assert abs(v) < 1e-4


def test_power_matches_repeated_multiplication():
    rng = np.random.default_rng(3)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    p = parse_poly("x^5", XY)
    x = MultiPoly.variable(0, 2)
    q = x
    for _ in range(4):
        q = q * x
    assert p.evaluate(z) == pytest.approx(q.evaluate(z))
    assert p.evaluate(z) == pytest.approx(z[0] ** 5)


def test_differentiate_power_rule():
    p = parse_poly("x^2*y", XY)
    d = p.differentiate(0)
    assert d == parse_poly("2*x*y", XY)


def test_differentiate_circle():
    p = parse_poly("x^2 + y^2 - 1", XY)
    assert p.differentiate(0) == parse_poly("2*x", XY)


def _random_poly(rng, n_vars, deg, n_terms):
    terms = []
    for _ in range(n_terms):
        exps = tuple(int(e) for e in rng.integers(0, deg + 1, size=n_vars))
        terms.append((exps, complex(rng.normal(), rng.normal())))
    return MultiPoly(n_vars, terms)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(10):
        p = _random_poly(rng, 2, 3, 5)
        z = rng.normal(size=2).astype(complex)
        for j in range(2):
            dz = np.zeros(2, dtype=complex)
            dz[j] = h
            fd = (p.evaluate(z + dz) - p.evaluate(z - dz)) / (2 * h)
            exact = p.differentiate(j).evaluate(z)
            denom = max(1.0, abs(exact))
            assert abs(fd - exact) / denom < 1e-6


def test_jacobian_transpose_circle():
    f = PolySystem(2, [parse_poly("x^2 + y^2 - 1", XY)])
    Jt = jacobian_transpose(f)
    assert len(Jt) == 2 and len(Jt[0]) == 1
    assert Jt[0][0] == parse_poly("2*x", XY)
    assert Jt[1][0] == parse_poly("2*y", XY)


def test_jacobian_transpose_sparse_pair_degree():
    f = parse("-62*x*y + 97*y - 4*x*y*z - 4\n80*x - 44*x*y + 71*y^2 - 17*y^3 + 2", XYZ)
    Jt = jacobian_transpose(f)
    assert len(Jt) == 3 and all(len(row) == 2 for row in Jt)
    assert max(e.degree for row in Jt for e in row) == 2


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("x^2 + @", XY, line_no=4)
    assert exc.value.line == 4
    assert "line 4" in str(exc.value)


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        parse_poly("x + w", XY)


@pytest.mark.parametrize("names", [["x", "x"], ["x", "2"], ["x", "2y"]],
                         ids=["repeated", "number", "not-identifier"])
def test_variables_must_be_distinct_identifiers(names):
    # a repeated name used to map to its last coordinate, leaving the first free
    with pytest.raises(ParseError, match="line 3: variable "):
        parse_poly("x^2 - 1", names, line_no=3)
    with pytest.raises(ParseError):
        parse("x^2 - 1", names)


def test_power_degree_cap():
    p = parse_poly("(x + y + z)^3", XYZ)
    assert p.degree == 3 and len(p.coeffs) == 10
    assert parse_poly(f"x^{MAX_POWER_DEGREE}", XYZ).degree == MAX_POWER_DEGREE
    for text in ("(x + y + z)^500", f"x^{MAX_POWER_DEGREE + 1}",
                 f"(x^2)^{MAX_POWER_DEGREE // 2 + 1}", "2^1000", "x^1e400"):
        with pytest.raises(ParseError) as exc:
            parse_poly(text, XYZ)
        assert exc.value.col == text.rindex("^") + 2


def test_implicit_multiplication():
    assert parse_poly("4x", XY) == parse_poly("4*x", XY)
    assert parse_poly("2(x + 1)", XY) == parse_poly("2*x + 2", XY)


def test_lift_preserves_values():
    p = parse_poly("x^2 - y", XY)
    q = p.lift(4)
    z = np.array([1.5, -2.0, 9.0, 9.0], dtype=complex)
    assert q.evaluate(z) == pytest.approx(p.evaluate(z[:2]))


coeff = st.floats(min_value=-10, max_value=10, allow_nan=False).filter(
    lambda c: abs(c) > 1e-6
)
exponent = st.tuples(st.integers(0, 3), st.integers(0, 3))
poly_terms = st.lists(st.tuples(exponent, coeff), min_size=0, max_size=6)


@settings(max_examples=50, deadline=None)
@given(poly_terms, poly_terms)
def test_addition_is_pointwise(t1, t2):
    p, q = MultiPoly(2, t1), MultiPoly(2, t2)
    z = np.array([0.7 - 0.2j, -1.3 + 0.4j])
    assert (p + q).evaluate(z) == pytest.approx(p.evaluate(z) + q.evaluate(z))


@settings(max_examples=50, deadline=None)
@given(poly_terms, poly_terms)
def test_multiplication_is_pointwise(t1, t2):
    p, q = MultiPoly(2, t1), MultiPoly(2, t2)
    z = np.array([0.9 + 0.1j, -0.5 - 0.3j])
    assert (p * q).evaluate(z) == pytest.approx(
        p.evaluate(z) * q.evaluate(z), rel=1e-9, abs=1e-9
    )


@settings(max_examples=50, deadline=None)
@given(poly_terms)
def test_derivative_of_sum_with_self(t):
    p = MultiPoly(2, t)
    assert (p + p).differentiate(0) == p.differentiate(0) + p.differentiate(0)


def test_system_residual():
    f = parse("x^2 - 1\ny - 2", XY)
    assert f.residual(np.array([1.0, 2.0], dtype=complex)) == pytest.approx(0.0)
    assert f.residual(np.array([0.0, 0.0], dtype=complex)) == pytest.approx(2.0)
