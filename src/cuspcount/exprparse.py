"""Recursive-descent parser turning written expressions into Poly values.

Accepted syntax (also shown in the CLI help):

    expr   :=  term (("+" | "-") term)*
    term   :=  unary ("*" unary)*
    unary  :=  "-" unary | integer "/" integer | atom ["^" exponent]
    atom   :=  integer  |  variable  |  "(" expr ")"

Multiplication must be written explicitly ("t*x1", never "t x1" or "tx1"),
"/" is only allowed inside a rational literal such as 3/4, and exponents are
non-negative integers up to EXPONENT_CAP.  A rational literal takes no
exponent: "2/3^2" is an error at the "^" (usual precedence reads it as 2/9,
a grammar with "^" on the literal as 4/9), and "(2/3)^2" is the square.
Integers take the ASCII digits 0-9 only (str.isdigit would also take
superscripts), and no more of them than Python converts to an int (4300 by
default where the interpreter limits it): a longer literal is an error at
its first digit.  The same limit bounds the numerator and denominator of
every coefficient: the "*" whose result first has a longer one is an error,
and so is the "^" one of whose partial products base^k, k <= e, has one,
and a whole expression whose sum has one (at position 0).  So every factor
stays under the limit, and the parsed polynomial prints.
Whitespace is ignored.

EXPONENT_CAP also bounds the degree of the parsed polynomial in each
variable, so nested powers and products cannot get past it: "(x1^8)^8" is
accepted, "(x1^64)^64" and "x1^64*x1" are not.  The degree in a variable of
a product is the sum of the factors' degrees and that of a power is the
exponent times the base's, so the "^" or "*" that would first exceed the cap
is rejected before its result is expanded.

NESTING_CAP bounds how deep parentheses and unary minus signs nest, counted
together ("-(-(x1))" nests 4 deep), so that deep input cannot exhaust the
interpreter's stack: the "(" or "-" that would pass it is rejected.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Sequence

from .errors import ParseError
from .polyring import VARS_TX, Poly, unpack_monomial

EXPONENT_CAP = 64
NESTING_CAP = 64

_TOKEN_CHARS = set("+-*/^()")
_DIGITS = set("0123456789")
_SLASH = "'/' is only allowed inside a rational literal"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Returns (kind, value, position) triples; kind is NUM, NAME or OP."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("NUM", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        elif ch in _TOKEN_CHARS:
            tokens.append(("OP", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


def _int(value: str, at: int) -> int:
    """The value of the integer literal at position `at`."""
    try:
        return int(value)
    except ValueError:  # over sys.get_int_max_str_digits()
        raise ParseError("integer literal too long", at) from None


def _degrees(p: Poly) -> list[int]:
    """Degree of p in each variable (all 0 for the zero polynomial)."""
    n = len(p.vars)
    return [max(e) for e in zip(*(unpack_monomial(m, n) for m in p.terms))] or [0] * n


class _Parser:
    def __init__(self, text: str, vars: tuple[str, ...]):
        self.vars = vars
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses and unary minus signs
        self.digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        self.bound = 10**self.digits  # the least int with more digits

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, at = self.peek()
        if kind != "OP" or value != op:
            raise ParseError(f"expected {op!r}", at)
        self.advance()

    def parse(self) -> Poly:
        poly = self.expr()
        kind, value, at = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected {value!r}", at)
        return self.check_coefficients(poly, 0)

    def expr(self) -> Poly:
        acc = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "OP" and value in "+-":
                self.advance()
                rhs = self.term()
                acc = acc + rhs if value == "+" else acc - rhs
            else:
                return acc

    def term(self) -> Poly:
        acc = self.unary()
        while True:
            kind, value, at = self.peek()
            if kind == "OP" and value == "*":
                self.advance()
                rhs = self.unary()
                self.check_degrees(
                    [a + b for a, b in zip(_degrees(acc), _degrees(rhs))], at
                )
                acc = self.check_coefficients(acc * rhs, at)
            elif kind in ("NAME", "NUM") or (kind == "OP" and value == "("):
                raise ParseError("adjacent factors need an explicit '*'", at)
            elif kind == "OP" and value == "/":
                raise ParseError(_SLASH, at)
            else:
                return acc

    def unary(self) -> Poly:
        kind, value, at = self.peek()
        if kind == "OP" and value == "-":
            self.advance()
            return -self.nested(self.unary, at)
        return self.power()

    def nested(self, parse, at: int) -> Poly:
        """parse() one level deeper, for the "(" or "-" at position `at`."""
        if self.depth == NESTING_CAP:
            raise ParseError(
                "parentheses and unary minus signs nest deeper than the "
                f"nesting cap of {NESTING_CAP}", at
            )
        self.depth += 1
        inner = parse()
        self.depth -= 1
        return inner

    def power(self) -> Poly:
        base = self.atom()
        kind, value, op_at = self.peek()
        if kind == "OP" and value == "^":
            self.advance()
            kind, value, at = self.peek()
            if kind != "NUM":
                raise ParseError("exponent must be a non-negative integer", at)
            self.advance()
            e = _int(value, at)
            if e > EXPONENT_CAP:
                raise ParseError(f"exponent {e} exceeds the cap of {EXPONENT_CAP}", at)
            self.check_degrees([e * d for d in _degrees(base)], op_at)
            # every partial product is checked, so none grows past the limit
            acc = Poly.constant(1, self.vars)
            for _ in range(e):
                acc = self.check_coefficients(acc * base, op_at)
            return acc
        return base

    def check_degrees(self, degrees: list[int], at: int) -> None:
        """Rejects the operator at `at` when its result would have a degree
        above EXPONENT_CAP in some variable."""
        for v, d in zip(self.vars, degrees):
            if d > EXPONENT_CAP:
                raise ParseError(
                    f"degree {d} in {v} exceeds the cap of {EXPONENT_CAP}", at
                )

    def check_coefficients(self, p: Poly, at: int) -> Poly:
        """p, the result of the operator at `at`, unless a coefficient of p
        has a numerator or denominator with more digits than Python converts
        to a string: the operator is then rejected."""
        bound = self.bound
        # p's ints bound its reduced coefficients: only past them are those read
        if self.digits and max([p.den, *map(abs, p.terms.values())]) >= bound:
            for _, c in p.sorted_terms():
                if max(abs(c.numerator), c.denominator) >= bound:
                    raise ParseError(
                        f"a coefficient has more than {self.digits} digits, the "
                        "most Python converts to a string", at
                    )
        return p

    def atom(self) -> Poly:
        kind, value, at = self.advance()
        if kind == "NUM":
            num = _int(value, at)
            kind2, value2, _ = self.peek()
            if kind2 == "OP" and value2 == "/":
                self.advance()
                kind3, value3, at3 = self.peek()
                if kind3 != "NUM":
                    raise ParseError("denominator must be an integer literal", at3)
                self.advance()
                den = _int(value3, at3)
                if den == 0:
                    raise ParseError("denominator must be nonzero", at3)
                kind4, value4, at4 = self.peek()
                if kind4 == "OP" and value4 == "^":
                    raise ParseError(
                        "a power of a rational literal needs parentheses, "
                        f"as in ({num}/{den})^...", at4
                    )
                return Poly.constant(Fraction(num, den), self.vars)
            return Poly.constant(num, self.vars)
        if kind == "NAME":
            if value not in self.vars:
                raise ParseError(f"unknown identifier {value!r}", at)
            return Poly.variable(value, self.vars)
        if kind == "OP" and value == "(":
            inner = self.nested(self.expr, at)
            self.expect_op(")")
            return inner
        if kind == "OP" and value == "/":
            raise ParseError(_SLASH, at)
        raise ParseError(f"unexpected {value or 'end of input'!r}", at)


def parse_poly(text: str, vars: Sequence[str] = VARS_TX) -> Poly:
    """Parse an expression in the given (distinct) variables into its
    canonical expanded Poly."""
    vars = tuple(vars)
    if len(set(vars)) != len(vars):
        raise ValueError("declared variables must be distinct")
    if not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, vars).parse()
