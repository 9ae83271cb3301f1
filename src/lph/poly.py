"""Sparse multivariate polynomials over complex coefficients.

Polynomials are stored in canonical form: terms keyed by exponent vector,
sorted by graded-lexicographic order (highest first), with near-zero
coefficients dropped so that equality tests are deterministic.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

# Coefficients below this magnitude are treated as arithmetic noise.
COEFF_DROP = 1e-14
# Largest degree of a parsed power base^e (it bounds the number of
# multiplications that expand it).
MAX_POWER_DEGREE = 32
# Largest number of term pairs one parsed product may multiply out (the
# work of MultiPoly multiplication); checked before every product.
MAX_PRODUCT_PAIRS = 20000


class ParseError(ValueError):
    """A parse failure at a line and, where it has one, a column."""

    def __init__(self, message: str, line: int, col: Optional[int] = None):
        where = f"line {line}" if col is None else f"line {line}, col {col}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.col = col


def _grlex_key(exps):
    return (sum(exps), exps)


class MultiPoly:
    """Immutable sparse polynomial in ``n_vars`` complex variables."""

    __slots__ = ("n_vars", "exps", "coeffs")

    def __init__(self, n_vars: int, terms: Iterable[tuple]):
        """terms: iterable of (exponent tuple, coefficient); duplicates are merged."""
        acc: dict = {}
        for exps, coeff in terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != n_vars:
                raise ValueError("exponent vector length mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            acc[exps] = acc.get(exps, 0) + complex(coeff)
        items = [(e, c) for e, c in acc.items() if abs(c) > COEFF_DROP]
        items.sort(key=lambda t: _grlex_key(t[0]), reverse=True)
        self.n_vars = n_vars
        self.exps = np.array([e for e, _ in items], dtype=np.int64).reshape(len(items), n_vars)
        self.coeffs = np.array([c for _, c in items], dtype=complex)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "MultiPoly":
        return cls(n_vars, [])

    @classmethod
    def constant(cls, n_vars: int, value: complex) -> "MultiPoly":
        return cls(n_vars, [((0,) * n_vars, value)])

    @classmethod
    def variable(cls, index: int, n_vars: int) -> "MultiPoly":
        exps = [0] * n_vars
        exps[index] = 1
        return cls(n_vars, [(tuple(exps), 1.0)])

    @classmethod
    def affine(cls, coeffs: Sequence[complex], constant: complex) -> "MultiPoly":
        """sum_i coeffs[i] * x_i + constant, in len(coeffs) variables."""
        n = len(coeffs)
        terms = [(tuple(int(i == j) for j in range(n)), c) for i, c in enumerate(coeffs)]
        return cls(n, terms + [((0,) * n, constant)])

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    @property
    def degree(self) -> int:
        if self.is_zero:
            return -1
        return int(self.exps.sum(axis=1).max())

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.n_vars == other.n_vars
            and self.exps.shape == other.exps.shape
            and np.array_equal(self.exps, other.exps)
            and np.allclose(self.coeffs, other.coeffs, rtol=0, atol=1e-12)
        )

    def __hash__(self):
        raise TypeError("MultiPoly is not hashable")

    # -- arithmetic --------------------------------------------------------

    def _pairs(self):
        return zip(map(tuple, self.exps), self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = MultiPoly.constant(self.n_vars, other)
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")
        return MultiPoly(self.n_vars, list(self._pairs()) + list(other._pairs()))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.n_vars, [(e, -c) for e, c in self._pairs()])

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = MultiPoly.constant(self.n_vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return MultiPoly(self.n_vars, [(e, c * other) for e, c in self._pairs()])
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")
        terms = []
        for ea, ca in self._pairs():
            for eb, cb in other._pairs():
                terms.append((tuple(a + b for a, b in zip(ea, eb)), ca * cb))
        return MultiPoly(self.n_vars, terms)

    __rmul__ = __mul__

    # -- calculus / evaluation ---------------------------------------------

    def evaluate(self, point) -> complex:
        point = np.asarray(point, dtype=complex)
        if point.shape != (self.n_vars,):
            raise ValueError(f"expected point of length {self.n_vars}, got {point.shape}")
        if self.is_zero:
            return 0j
        mono = np.prod(point[None, :] ** self.exps, axis=1)
        return complex(self.coeffs @ mono)

    def differentiate(self, var_index: int) -> "MultiPoly":
        if not 0 <= var_index < self.n_vars:
            raise IndexError(f"variable index {var_index} out of range")
        terms = []
        for exps, coeff in self._pairs():
            e = exps[var_index]
            if e == 0:
                continue
            new = list(exps)
            new[var_index] = e - 1
            terms.append((tuple(new), coeff * e))
        return MultiPoly(self.n_vars, terms)

    def lift(self, n_vars: int) -> "MultiPoly":
        """Embed into a larger variable space as its first variables."""
        if self.n_vars > n_vars:
            raise ValueError("lift target too small")
        pad = (0,) * (n_vars - self.n_vars)
        return MultiPoly(n_vars, [(exps + pad, coeff) for exps, coeff in self._pairs()])


class PolySystem:
    """A list of polynomials sharing one variable space."""

    __slots__ = ("n_vars", "polys")

    def __init__(self, n_vars: int, polys: Sequence[MultiPoly]):
        for p in polys:
            if p.n_vars != n_vars:
                raise ValueError("all polynomials must share n_vars")
        self.n_vars = n_vars
        self.polys = list(polys)

    def __len__(self):
        return len(self.polys)

    def evaluate(self, point) -> np.ndarray:
        return np.array([p.evaluate(point) for p in self.polys], dtype=complex)

    def residual(self, point) -> float:
        vals = self.evaluate(point)
        return float(np.abs(vals).max()) if len(vals) else 0.0


def jacobian_transpose(f: PolySystem) -> list:
    """n x k matrix of polynomials; entry (i, j) is d f_j / d x_i."""
    n = f.n_vars
    return [[f.polys[j].differentiate(i) for j in range(len(f))] for i in range(n)]


# -- parsing ---------------------------------------------------------------

# a variable name of the grammar
_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    rf"|(?P<ident>{_IDENTIFIER_RE.pattern})"
    r"|(?P<op>[-+*^()])"
    r")"
)


def _tokenize(text: str, line_no: int):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        col = m.start() + 1
        if m.group("num") is not None:
            tokens.append(("num", float(m.group(0)), col))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), col))
        else:
            tokens.append(("op", m.group("op"), col))
        pos = m.end()
    return tokens


class _PolyParser:
    """Recursive-descent parser for the term grammar (see module docstring)."""

    def __init__(self, tokens, var_index, line_no):
        self.tokens = tokens
        self.i = 0
        self.vars = var_index
        self.line = line_no

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def error(self, msg):
        tok = self.peek()
        col = tok[2] if tok else (self.tokens[-1][2] + 1 if self.tokens else 1)
        raise ParseError(msg, self.line, col)

    def multiply(self, a: MultiPoly, b: MultiPoly) -> MultiPoly:
        if len(a.coeffs) * len(b.coeffs) > MAX_PRODUCT_PAIRS:
            self.error(f"product of more than {MAX_PRODUCT_PAIRS} term pairs")
        return a * b

    def parse(self, n_vars) -> MultiPoly:
        p = self.expression(n_vars)
        if self.peek() is not None:
            self.error(f"trailing input {self.peek()[1]!r}")
        return p

    def expression(self, n_vars) -> MultiPoly:
        sign = 1.0
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            sign = -1.0 if tok[1] == "-" else 1.0
            self.i += 1
        total = self.term(n_vars) * sign
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                break
            self.i += 1
            t = self.term(n_vars)
            total = total + (t if tok[1] == "+" else -t)
        return total

    def term(self, n_vars) -> MultiPoly:
        prod = self.factor(n_vars)
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok[0] == "op" and tok[1] == "*":
                self.i += 1
                prod = self.multiply(prod, self.factor(n_vars))
            elif tok[0] == "ident" or (tok[0] == "op" and tok[1] == "("):
                # implicit multiplication, e.g. "4x" or "2(x+1)"
                prod = self.multiply(prod, self.factor(n_vars))
            else:
                break
        return prod

    def factor(self, n_vars) -> MultiPoly:
        tok = self.peek()
        if tok is None:
            self.error("expected a factor")
        kind, value, _ = tok
        if kind == "num":
            self.i += 1
            base = MultiPoly.constant(n_vars, value)
        elif kind == "ident":
            if value not in self.vars:
                self.error(f"unknown identifier {value!r}")
            self.i += 1
            base = MultiPoly.variable(self.vars[value], n_vars)
        elif kind == "op" and value == "(":
            self.i += 1
            base = self.expression(n_vars)
            tok = self.peek()
            if tok is None or tok[1] != ")":
                self.error("expected ')'")
            self.i += 1
        else:
            self.error(f"unexpected token {value!r}")
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.i += 1
            tok = self.peek()
            if tok is None or tok[0] != "num" or not tok[1].is_integer():
                self.error("exponent must be a non-negative integer")
            e = int(tok[1])
            # base^e is expanded by e multiplications (a constant base
            # counts as degree 1), so cap its degree before expanding
            if e * max(base.degree, 1) > MAX_POWER_DEGREE:
                self.error(f"power of degree above {MAX_POWER_DEGREE}")
            self.i += 1
            out = MultiPoly.constant(n_vars, 1.0)
            for _ in range(e):
                out = self.multiply(out, base)
            return out
        return base


def variable_index(variable_order: Sequence[str], line_no: int = 1) -> Dict[str, int]:
    """Each variable name's coordinate.  The names must be distinct
    identifiers of the grammar, else a ParseError at line_no."""
    index: Dict[str, int] = {}
    for i, name in enumerate(variable_order):
        if not _IDENTIFIER_RE.fullmatch(name):
            raise ParseError(f"variable {name!r} is not an identifier", line_no)
        if name in index:
            raise ParseError(f"variable {name!r} declared twice", line_no)
        index[name] = i
    return index


def parse_poly(text: str, variable_order: Sequence[str], line_no: int = 1) -> MultiPoly:
    var_index = variable_index(variable_order, line_no)
    tokens = _tokenize(text, line_no)
    if not tokens:
        raise ParseError("empty polynomial", line_no, 1)
    return _PolyParser(tokens, var_index, line_no).parse(len(variable_order))


def parse(text: str, variable_order: Sequence[str]) -> PolySystem:
    """Parse one polynomial per non-empty line into a system."""
    polys = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        polys.append(parse_poly(raw, variable_order, line_no=ln))
    return PolySystem(len(variable_order), polys)
