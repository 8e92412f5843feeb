"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are sparse maps from exponent tuples to ``fractions.Fraction``
coefficients.  Every operation is exact; nothing is ever rounded.  The two
ambients that matter downstream are ``("t", "x1", "x2")`` for the family and
``("x1", "x2")`` for its restriction to t = 0, but the arithmetic is generic
in the variable tuple.

The term order used for serialization (and everywhere else in the package)
is the anti-degree reverse-lexicographic local order: lower total degree
means a *larger* monomial, ties broken reverse-lexicographically, so the
constant term always prints first.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

Monomial = tuple[int, ...]

#: canonical ambients
VARS_TX = ("t", "x1", "x2")
VARS_X = ("x1", "x2")


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_sort_key(m: Monomial):
    """Ascending sort by this key lists monomials from largest to smallest.

    Largest first means: 1 first, then degree 1, ... with reverse-lex
    tie-breaking inside a degree.
    """
    return (sum(m), tuple(reversed(m)))


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Monomial, Fraction] | None = None):
        object.__setattr__(self, "vars", tuple(vars))
        clean: dict[Monomial, Fraction] = {}
        if terms:
            n = len(self.vars)
            for mono, coeff in terms.items():
                c = _as_fraction(coeff)
                if c == 0:
                    continue
                mono = tuple(mono)
                if len(mono) != n or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent vector {mono} for {self.vars}")
                clean[mono] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Poly":
        return cls(vars)

    @classmethod
    def constant(cls, c, vars: Sequence[str]) -> "Poly":
        return cls(vars, {tuple([0] * len(vars)): _as_fraction(c)})

    @classmethod
    def variable(cls, name: str, vars: Sequence[str]) -> "Poly":
        vars = tuple(vars)
        if name not in vars:
            raise ValueError(f"unknown variable {name!r} in ambient {vars}")
        expo = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {expo: Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get(tuple([0] * len(self.vars)), Fraction(0))

    # -- ring operations ---------------------------------------------------

    def _check_same_ambient(self, other: "Poly"):
        if self.vars != other.vars:
            raise ValueError(f"ambient mismatch: {self.vars} vs {other.vars}")

    def _lift(self, other) -> "Poly":
        if isinstance(other, Poly):
            self._check_same_ambient(other)
            return other
        return Poly.constant(other, self.vars)

    def __add__(self, other) -> "Poly":
        other = self._lift(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, Fraction(0)) + coeff
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return Poly(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Poly":
        return self._lift(other) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = _as_fraction(other)
            if c == 0:
                return Poly.zero(self.vars)
            return Poly(self.vars, {m: k * c for m, k in self.terms.items()})
        self._check_same_ambient(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = monomial_mul(m1, m2)
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return Poly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Poly.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- comparisons, hashing, display --------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical order (largest monomial of the local order first)."""
        return sorted(self.terms.items(), key=lambda t: monomial_sort_key(t[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.sorted_terms():
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, mono)
                if e
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({'*'.join(self.vars)}: {self})"


# -- calculus ---------------------------------------------------------------


def partial(p: Poly, v: int) -> Poly:
    """Exact formal partial derivative with respect to variable index v."""
    if not 0 <= v < len(p.vars):
        raise ValueError(f"variable index {v} out of range for {p.vars}")
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in p.terms.items():
        e = mono[v]
        if e == 0:
            continue
        lowered = mono[:v] + (e - 1,) + mono[v + 1 :]
        out[lowered] = out.get(lowered, Fraction(0)) + coeff * e
    return Poly(p.vars, out)


def det(rows: Sequence[Sequence]):
    """Determinant of a square matrix over a commutative ring (int, Fraction
    or Poly entries), by cofactor expansion along the first row."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("det needs a square matrix")
    if n <= 1:
        return rows[0][0] if rows else 1
    total = 0
    for j, a in enumerate(rows[0]):
        term = a * det([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total - term if j % 2 else total + term
    return total


def jacobian2(p: Poly, q: Poly, v1: int, v2: int) -> Poly:
    """The 2x2 Jacobian determinant d(p,q)/d(v1,v2)."""
    if v1 == v2:
        raise ValueError("jacobian2 needs two distinct variables")
    p._check_same_ambient(q)
    return det([[partial(p, v1), partial(p, v2)], [partial(q, v1), partial(q, v2)]])


def jacobian_det(components: Sequence[Poly]) -> Poly:
    """Expanded determinant of the derivative matrix of a square map."""
    n = len(components)
    if n == 0 or len(components[0].vars) != n:
        raise ValueError("jacobian_det needs as many components as variables")
    return det([[partial(c, j) for j in range(n)] for c in components])


def _require_t_first(p: Poly):
    if not p.vars or p.vars[0] != "t":
        raise ValueError(f"operation needs ambient starting with 't', got {p.vars}")


def substitute_t_squared(p: Poly) -> Poly:
    """Replace t by t^2: t-exponents double, others unchanged."""
    _require_t_first(p)
    return Poly(p.vars, {(2 * m[0],) + m[1:]: c for m, c in p.terms.items()})


def set_t_zero(p: Poly) -> Poly:
    """Restrict to t = 0; the result lives in the ambient without t."""
    _require_t_first(p)
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in p.terms.items():
        if mono[0] == 0:
            out[mono[1:]] = coeff
    return Poly(p.vars[1:], out)
