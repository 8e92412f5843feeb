"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a sparse map from packed monomials (pack_monomial) to int
numerators over one positive int denominator.  Every operation is exact;
nothing is ever rounded.  Poly, partial and substitute_t_squared are generic
in the variable tuple, which is the input format and names the printed
variables.

Every germ of the analysis is a map of ``("t", "x1", "x2")``, and so is
every Jacobian.  Each Jacobian determinant and 2x2 minor is a first-row
expansion (expand_first_row) over the cofactors of the two rows below it
(jacobian_cofactors), the cross product of their gradients, so maps that
differ only in their first component share one set of cofactors.
d(p, q)/d(x1, x2) is jacobian_det([p, q, t]), and the cofactors of (p, q)
are the signed minors of d(p, q)/d(t, x1, x2).

The term order used for serialization (and everywhere else in the package)
is the anti-degree reverse-lexicographic local order: lower total degree
means a *larger* monomial, ties broken reverse-lexicographically, so the
constant term always prints first.  Ascending packed int is that order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import ExponentOverflow

Monomial = tuple[int, ...]

#: canonical ambients
VARS_TX = ("t", "x1", "x2")
VARS_X = ("x1", "x2")

#: width of one exponent field of a packed monomial; the top bit of each
#: field is a guard bit that stays clear
FIELD_BITS = 16
#: largest degree, and so largest exponent, a packed monomial holds
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1
FIELD_MASK = (1 << FIELD_BITS) - 1


# -- packed monomials ---------------------------------------------------------


def pack_monomial(m: Monomial) -> int:
    """The monomial as one int: its degree in the top field and below it the
    exponents from the last variable down to the first, FIELD_BITS each.

    With shift = FIELD_BITS * len(m), the degree is k >> shift; ascending int
    order is the local order, largest monomial first, and the product of two
    monomials is the sum of their ints.  The packing is exact when every
    exponent is at most MAX_DEGREE.
    """
    k = sum(m)
    for e in reversed(m):
        k = (k << FIELD_BITS) + e
    return k


def unpack_monomial(k: int, nvars: int) -> Monomial:
    """The exponent tuple of a packed monomial in nvars variables."""
    return tuple((k >> (FIELD_BITS * i)) & FIELD_MASK for i in range(nvars))


def guard_bits(nvars: int) -> int:
    """The guard bits G of the exponent fields.  For packed a and b,
    a | b exactly when ((b | G) - a) & G == G: each field of b - a is
    computed above its set guard bit, so no field borrows from the next, and
    a field keeps its guard exactly when b's exponent is at least a's."""
    return sum(1 << (FIELD_BITS * i + FIELD_BITS - 1) for i in range(nvars))


def check_degree(d: int) -> None:
    """Raise before a monomial of degree d is packed, when it cannot be."""
    if d > MAX_DEGREE:
        raise ExponentOverflow(
            f"degree {d} exceeds {MAX_DEGREE}, the largest a packed monomial holds"
        )


class Poly:
    """Immutable sparse polynomial with exact rational coefficients.

    terms maps packed monomials to nonzero int numerators over den > 0, and
    den is coprime to their content (1 for the zero polynomial), so equal
    polynomials have equal terms and den.  No monomial has degree above
    MAX_DEGREE: an operation whose result would raises ExponentOverflow.
    """

    __slots__ = ("vars", "terms", "den")

    def __init__(
        self, vars: Sequence[str], terms: Mapping[Monomial, int | Fraction] | None = None
    ):
        """terms maps exponent tuples to int or Fraction coefficients."""
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError(f"repeated variable in the ambient {vars}")
        fracs: dict[int, Fraction] = {}
        for mono, c in (terms or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
            mono = tuple(mono)
            ok = len(mono) == len(vars) and all(isinstance(e, int) and e >= 0 for e in mono)
            if not ok or sum(mono) > MAX_DEGREE:
                raise ValueError(
                    f"bad exponent vector {mono} for {vars} (non-negative ints, "
                    f"degree at most {MAX_DEGREE})"
                )
            if c:
                fracs[pack_monomial(mono)] = Fraction(c)
        # the lcm of reduced denominators is coprime to the content
        den = lcm(*(c.denominator for c in fracs.values()))
        nums = {m: c.numerator * (den // c.denominator) for m, c in fracs.items()}
        self._set(vars, nums, den)

    def _set(self, vars, terms, den) -> None:
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "den", den)

    @classmethod
    def _packed(cls, vars: tuple[str, ...], terms: dict[int, int], den=1) -> "Poly":
        """The Poly of packed terms over den > 0, none zero, made canonical."""
        g = den
        for c in terms.values():
            if g == 1:
                break
            g = gcd(g, c)
        if g != 1:
            terms = {m: c // g for m, c in terms.items()}
            den //= g
        p = object.__new__(cls)
        p._set(vars, terms, den)
        return p

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _packed, not through __setattr__
        return (Poly._packed, (self.vars, self.terms, self.den))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Poly":
        return cls(vars)

    @classmethod
    def constant(cls, c, vars: Sequence[str]) -> "Poly":
        return cls(vars, {tuple([0] * len(vars)): c})

    @classmethod
    def variable(cls, name: str, vars: Sequence[str]) -> "Poly":
        vars = tuple(vars)
        if name not in vars:
            raise ValueError(f"unknown variable {name!r} in ambient {vars}")
        return cls(vars, {tuple(int(v == name) for v in vars): 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get(0, 0), self.den)

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
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {m: c * a for m, c in self.terms.items()} if a != 1 else dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c * b
            if s:
                out[m] = s
            else:
                del out[m]
        return Poly._packed(self.vars, out, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._packed(self.vars, {m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other) -> "Poly":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Poly":
        return self._lift(other) - self

    def __mul__(self, other) -> "Poly":
        other = self._lift(other)
        if not (self.terms and other.terms):
            return Poly.zero(self.vars)
        shift = FIELD_BITS * len(self.vars)
        # the degree guard: no exponent field can carry into the next
        check_degree((max(self.terms) >> shift) + (max(other.terms) >> shift))
        out: dict[int, int] = {}
        theirs = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in theirs:
                m = m1 + m2
                out[m] = out.get(m, 0) + c1 * c2
        return Poly._packed(
            self.vars, {m: c for m, c in out.items() if c}, self.den * other.den
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        # one check up front; then n products, none larger than the result
        shift = FIELD_BITS * len(self.vars)
        check_degree(n * max(max(self.terms, default=0) >> shift, 1))
        result = Poly.constant(1, self.vars)
        for _ in range(n):
            result = result * self
        return result

    # -- comparisons, hashing, display --------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and (self.vars, self.den, self.terms) == (
            other.vars, other.den, other.terms)

    def __hash__(self) -> int:
        return hash((self.vars, self.den, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms as (exponent tuple, coefficient) in canonical order (largest
        monomial of the local order first)."""
        n = len(self.vars)
        return [
            (unpack_monomial(m, n), Fraction(c, self.den))
            for m, c in sorted(self.terms.items())
        ]

    def __str__(self) -> str:
        parts: list[str] = []
        for mono, coeff in self.sorted_terms():
            factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(self.vars, mono) if e]
            mag = abs(coeff)
            body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
            if parts:
                body = ("+ " if coeff > 0 else "- ") + body
            elif coeff < 0:
                body = "-" + body
            parts.append(body)
        return " ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"Poly({'*'.join(self.vars)}: {self})"


# -- calculus ---------------------------------------------------------------


def partial(p: Poly, v: int) -> Poly:
    """Exact formal partial derivative with respect to variable index v."""
    if not 0 <= v < len(p.vars):
        raise ValueError(f"variable index {v} out of range for {p.vars}")
    at = FIELD_BITS * v
    # one less in field v and in the degree
    step = (1 << (FIELD_BITS * len(p.vars))) + (1 << at)
    return Poly._packed(p.vars, {
        m - step: c * e for m, c in p.terms.items() if (e := (m >> at) & FIELD_MASK)
    }, p.den)


def jacobian_cofactors(rest: Sequence[Poly]) -> list[Poly]:
    """The cofactors of the first row of the derivative matrix of a map
    (p, q, r) of (t, x1, x2), for rest = (q, r): the cross product of the
    gradients of q and r.  They do not depend on p: the map's Jacobian
    determinant is expand_first_row(p, c), linear in p, so maps that share
    rest share one expansion."""
    if len(rest) != 2 or any(c.vars != VARS_TX for c in rest):
        raise ValueError("the rows below the first are two components in (t, x1, x2)")
    (a0, a1, a2), (b0, b1, b2) = ([partial(c, j) for j in range(3)] for c in rest)
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def expand_first_row(p: Poly, cofactors: Sequence[Poly]) -> Poly:
    """The sum of d p/d v_j * cofactors[j]: the Jacobian determinant of the
    map (p, *rest), for the cofactors jacobian_cofactors(rest).  The partial
    along a zero cofactor is never taken."""
    if p.vars != VARS_TX or len(cofactors) != 3:
        raise ValueError(
            "expand_first_row needs a row in (t, x1, x2) and its three cofactors"
        )
    terms = (partial(p, j) * c for j, c in enumerate(cofactors) if c.terms)
    return sum(terms, Poly.zero(VARS_TX))


def jacobian_det(components: Sequence[Poly]) -> Poly:
    """Expanded determinant of the derivative matrix of a map of
    (t, x1, x2), along its first row."""
    if len(components) != 3:
        raise ValueError("jacobian_det needs three components in (t, x1, x2)")
    return expand_first_row(components[0], jacobian_cofactors(components[1:]))


def substitute_t_squared(p: Poly) -> Poly:
    """Replace t by t^2: t-exponents double, others unchanged."""
    if p.vars[:1] != ("t",):
        raise ValueError(f"t -> t^2 needs an ambient starting with 't', got {p.vars}")
    shift = FIELD_BITS * len(p.vars)
    # t is the lowest field: its exponent is added there and to the degree; a
    # doubled exponent is below 2^FIELD_BITS, so no field carries
    out = {m + (m & FIELD_MASK) * (1 + (1 << shift)): c for m, c in p.terms.items()}
    check_degree(max(out, default=0) >> shift)
    return Poly._packed(p.vars, out, p.den)
