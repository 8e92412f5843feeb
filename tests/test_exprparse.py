import random
import sys
import time

import pytest

from cuspcount.errors import ParseError
from cuspcount.exprparse import EXPONENT_CAP, NESTING_CAP, parse_poly
from cuspcount.polyring import Poly, VARS_TX, VARS_X

from support import random_poly


def test_worked_family_component():
    f = parse_poly("x1^3 + x2^2 + t*x1")
    x1 = Poly.variable("x1", VARS_TX)
    x2 = Poly.variable("x2", VARS_TX)
    t = Poly.variable("t", VARS_TX)
    assert f == x1**3 + x2**2 + t * x1


def test_zero_literal():
    assert parse_poly("0").is_zero()


def test_expansion_identity():
    assert parse_poly("(x1 + x2)^2 - x1^2 - x2^2 - 2*x1*x2").is_zero()


def test_rational_literals():
    from fractions import Fraction

    f = parse_poly("3/4*x1 - 1/2")
    assert dict(f.sorted_terms())[(0, 1, 0)] == Fraction(3, 4)
    assert f.constant_term() == Fraction(-1, 2)
    assert parse_poly("1 / 2") == parse_poly("1/2")


def test_rational_literal_takes_no_exponent():
    # "2/3^2" would read 4/9 with "^" on the literal and 2/9 by usual
    # precedence, so it is an error at the "^"
    for text, at in (("2/3^2", 3), ("-2/3^2 + x1", 4), ("x1 + 1 / 2 ^ 3", 11)):
        with pytest.raises(ParseError, match="needs parentheses") as e:
            parse_poly(text)
        assert e.value.position == at, text
    assert parse_poly("(2/3)^2") == parse_poly("4/9")
    assert parse_poly("2/3*x1^2") == parse_poly("x1^2") * parse_poly("2/3")


def test_whitespace_insensitive():
    assert parse_poly("t *x1+ x2 ^ 2") == parse_poly("t*x1+x2^2")


def test_subtraction_is_left_associative():
    a = parse_poly("1 - t - t")
    b = parse_poly("(1 - t) - t")
    assert a == b


def test_unary_minus():
    assert parse_poly("-x1^2") == -parse_poly("x1^2")
    assert parse_poly("--x1") == parse_poly("x1")
    assert parse_poly("2 - -3") == parse_poly("5")


def test_custom_variables():
    f = parse_poly("x - x^2", ("x",))
    assert f.vars == ("x",)


def test_roundtrip_on_random_polys():
    rng = random.Random(21)
    for vars in (VARS_TX, VARS_X, ("x",)):
        for _ in range(40):
            p = random_poly(rng, vars, rational=True)
            assert parse_poly(str(p), vars) == p


def test_error_positions():
    with pytest.raises(ParseError) as e:
        parse_poly("x1 + + x2")
    assert e.value.position == 5
    with pytest.raises(ParseError) as e:
        parse_poly("x1 + y")
    assert e.value.position == 5


def test_unknown_identifier():
    with pytest.raises(ParseError):
        parse_poly("x3 + 1")


def test_negative_exponent_rejected():
    # any token after '^' but an integer literal is rejected where it stands
    for text in ("x1^-2", "x1^x2", "x1^(2)"):
        with pytest.raises(ParseError, match="exponent must be a non-negative integer") as e:
            parse_poly(text)
        assert e.value.position == 3


def test_exponent_cap():
    parse_poly(f"x1^{EXPONENT_CAP}")
    with pytest.raises(ParseError):
        parse_poly(f"x1^{EXPONENT_CAP + 1}")


def test_exponent_cap_bounds_nested_powers_and_products():
    assert parse_poly("(x1^8)^8") == parse_poly(f"x1^{EXPONENT_CAP}")
    # the error sits at the '^' or '*' whose result first exceeds the cap
    for text, at in (("(x1^64)^64", 7), ("((x1^64)^64)^64", 8), ("x1^64*x1", 5),
                     ("(x1^32*x2)^3", 10)):
        with pytest.raises(ParseError, match=f"cap of {EXPONENT_CAP}") as e:
            parse_poly(text)
        assert e.value.position == at, text


def test_nesting_cap():
    for depth in (NESTING_CAP, NESTING_CAP + 1, 300):
        # parentheses alone, minus signs alone, and the two counted together
        mixed = "".join("(-"[i % 2] for i in range(depth))
        for opens in ("(" * depth, "-" * depth, mixed):
            text = opens + "x1" + ")" * opens.count("(")
            if depth <= NESTING_CAP:
                want = "-x1" if opens.count("-") % 2 else "x1"
                assert parse_poly(text) == parse_poly(want)
                continue
            # the error sits at the '(' or '-' that passes the cap
            with pytest.raises(ParseError, match=f"nesting cap of {NESTING_CAP}") as e:
                parse_poly(text)
            assert e.value.position == NESTING_CAP, text
    # the cap bounds depth, not count: siblings do not add up
    parse_poly(" + ".join(["(x1)"] * 200) + " - " + " - ".join(["-x2"] * 200))


@pytest.mark.parametrize("text", ["x1^\u00b2", "x1^\u0663"])
def test_only_ascii_digits(text):
    # superscript two and Arabic-Indic three pass str.isdigit but are not
    # integers of the grammar
    with pytest.raises(ParseError, match="unexpected character") as e:
        parse_poly(text)
    assert e.value.position == 3


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python converts integer strings of any length",
)
def test_integer_literal_past_the_int_conversion_limit():
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    # as a numerator, a denominator and an exponent; the error sits at the
    # literal, not in a bare ValueError
    for text, at in ((digits + "*x1", 0), ("x2 + 1/" + digits, 7), ("x1^" + digits, 3)):
        with pytest.raises(ParseError, match="integer literal too long") as e:
            parse_poly(text)
        assert e.value.position == at


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python converts integers of any length to strings",
)
def test_coefficient_past_the_int_conversion_limit():
    limit = sys.get_int_max_str_digits()
    # 10^(64*k) has 64*k + 1 digits: k factors of 10^64 are the first past
    # the limit, and the error sits at the '*' that multiplies in the k-th,
    # the (k-1)-th '*' of the product, at 6*(k-1) - 1
    k = limit // 64 + 1
    square = f"x2 + (1/{10 ** (limit - 1)} + x1)^2"  # a denominator, at the '^'
    for text, at in (
        ("*".join(["10^64"] * k) + "*x1^3 + x2^2 + t*x1", 6 * (k - 1) - 1),
        (square, square.index("^")),
        (f"{'9' * limit} + {'9' * limit}", 0),  # a sum: the whole expression
    ):
        with pytest.raises(ParseError, match=f"more than {limit} digits") as e:
            parse_poly(text)
        assert e.value.position == at, text[:40]
    parse_poly("*".join(["10^64"] * (k - 1)) + "*x1")
    # the rule is on the reduced coefficients, not on the common denominator:
    # 1/P*x1 + 1/Q*x2 has den P*Q, twice as long as the limit, and prints
    p, q = 10 ** (limit - 1) + 1, 10 ** (limit - 1) + 3
    f = parse_poly(f"1/{p}*x1 + 1/{q}*x2")
    assert f.den == p * q and parse_poly(str(f)) == f


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python converts integers of any length to strings",
)
def test_power_stops_at_its_first_long_partial_product():
    # N is under the limit and N^2 past it: the '^' fails at base^2, not
    # after expanding base^16 (about 25 s once, with 4000-digit N)
    limit = sys.get_int_max_str_digits()
    n = "9" * (limit - 300)
    text = f"({n} + {n}*t + {n}*x1 + {n}*x2)^16"
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"more than {limit} digits") as e:
        parse_poly(text)
    assert e.value.position == text.index("^")
    assert time.perf_counter() - start < 5


def test_adjacency_rejected():
    with pytest.raises(ParseError) as e:
        parse_poly("2 x1")
    assert "explicit '*'" in str(e.value)
    with pytest.raises(ParseError):
        parse_poly("x1 x2")
    with pytest.raises(ParseError):
        parse_poly("2(x1 + x2)")


def test_division_only_in_literals():
    # a "/" that starts a factor or follows one joins no rational literal,
    # and is named at its own position
    for text, at in (("/3", 0), ("x1/2", 2), ("(x1+x2)/2", 7), ("2/3/4", 3)):
        with pytest.raises(ParseError) as e:
            parse_poly(text)
        assert str(e.value) == (
            f"'/' is only allowed inside a rational literal (at position {at})"
        )
        assert e.value.position == at
    with pytest.raises(ParseError):
        parse_poly("1/x1")
    with pytest.raises(ParseError):
        parse_poly("1/0")


def test_empty_input():
    with pytest.raises(ParseError):
        parse_poly("   ")


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_poly("(x1 + x2")
    with pytest.raises(ParseError, match=r"unexpected '\)' \(at position 7\)"):
        parse_poly("x1 + x2)")


def test_distinct_variable_names_required():
    with pytest.raises(ValueError):
        parse_poly("x", ("x", "x"))
