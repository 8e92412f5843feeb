import copy
import pickle
import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from cuspcount.errors import ExponentOverflow
from cuspcount.polyring import (
    MAX_DEGREE,
    Poly,
    VARS_TX,
    VARS_X,
    det,
    expand_first_row,
    jacobian_cofactors,
    jacobian_det,
    partial,
    substitute_t_squared,
)
from cuspcount.exprparse import parse_poly

from support import flip_t, leibniz_det, minor, random_poly, set_t_zero


def p(text, vars=VARS_TX):
    return parse_poly(text, vars)


def test_partial_power_rule():
    f = p("x1^3 + x2^2 + t*x1")
    assert partial(f, 1) == p("3*x1^2 + t")
    assert partial(f, 2) == p("2*x2")


def test_partial_absent_variable():
    assert partial(p("x1*x2"), 0).is_zero()


def test_partial_bad_index():
    with pytest.raises(ValueError):
        partial(p("x1"), 5)


def test_padded_jacobian_identity_map():
    # d(a, b)/d(x1, x2) is the Jacobian of the map (a, b, t)
    assert jacobian_det([p("x1"), p("x2"), p("t")]) == p("1")


def test_padded_jacobian_worked_family():
    # d(f1,f2)/d(x1,x2) for f = (x1^3 + x2^2 + t*x1, x1*x2)
    J = jacobian_det([p("x1^3 + x2^2 + t*x1"), p("x1*x2"), p("t")])
    assert J == p("3*x1^3 + t*x1 - 2*x2^2")


def test_padded_jacobian_antisymmetry_and_diagonal():
    rng = random.Random(11)
    t = p("t")
    for _ in range(25):
        a = random_poly(rng, VARS_TX)
        b = random_poly(rng, VARS_TX)
        assert jacobian_det([a, b, t]) == -jacobian_det([b, a, t])
        assert jacobian_det([a, a, t]).is_zero()


def test_jacobian3_trivial_diagonals():
    t, x1, x2 = (Poly.variable(v, VARS_TX) for v in VARS_TX)
    assert jacobian_det([t, x1, x2]) == p("1")
    assert jacobian_det([t * t, x1, x2]) == p("2*t")
    assert jacobian_det([t + x1, x1, x2]) == p("1")


def test_det_matches_leibniz_on_integer_matrices():
    rng = random.Random(12)
    for _ in range(200):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        if rng.random() < 0.2:
            rows[2] = [2 * a - b for a, b in zip(rows[0], rows[1])]
        assert det(rows) == leibniz_det(rows)
    assert det([[7]]) == 7
    assert det([]) == 1
    with pytest.raises(ValueError, match="square"):
        det([[1, 2], [3]])


def test_det_and_jacobians_match_leibniz_on_random_maps():
    rng = random.Random(13)
    for vars in (VARS_X, VARS_TX) * 30:
        n = len(vars)
        comps = [random_poly(rng, vars) for _ in range(n)]
        rows = [[partial(c, j) for j in range(n)] for c in comps]
        expected = leibniz_det(rows)
        assert det(rows) == expected
        assert jacobian_det(comps) == expected
        # each cofactor is the signed Leibniz minor of the rows below the
        # first, without column j
        for rest in permutations(comps, n - 1):
            for j, c in enumerate(jacobian_cofactors(rest)):
                below = [[partial(r, v) for v in range(n) if v != j] for r in rest]
                assert c == (-1) ** j * leibniz_det(below)


def test_expansion_skips_zero_cofactors():
    # a constant row (t's, or a constant's) makes cofactors zero; the
    # expansion must not depend on the partials it then never takes
    rng = random.Random(16)
    t, two = p("t"), p("2")
    for _ in range(25):
        # a depends on t, so d a/d t is nonzero where the cofactor is zero
        a, b = random_poly(rng, VARS_TX) + t * t, random_poly(rng, VARS_TX)
        cofactors = jacobian_cofactors([b, t])
        assert cofactors[0].is_zero()
        assert expand_first_row(a, cofactors) == minor(a, b, 1, 2)
        assert jacobian_det([a, b, two]).is_zero()


def test_substitute_t_squared_examples():
    assert substitute_t_squared(p("t*x1 + x2^2")) == p("t^2*x1 + x2^2")
    assert substitute_t_squared(p("x1*x2")) == p("x1*x2")
    assert substitute_t_squared(p("t^3")) == p("t^6")


def test_substitute_t_negated():
    # t -> -t^2 is t -> -t followed by t -> t^2
    assert substitute_t_squared(flip_t(p("t + t^2"))) == p("-t^2 + t^4")


def test_set_t_zero_examples():
    q = set_t_zero(p("x1^3 + x2^2 + t*x1"))
    assert q.vars == VARS_X
    assert q == p("x1^3 + x2^2", VARS_X)
    assert set_t_zero(p("t^2")).is_zero()
    assert set_t_zero(p("x1*x2")) == p("x1*x2", VARS_X)


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(30):
        a = random_poly(rng, VARS_X, rational=True)
        b = random_poly(rng, VARS_X, rational=True)
        c = random_poly(rng, VARS_X, rational=True)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == Poly.zero(VARS_X)


def test_leibniz_rule_random():
    rng = random.Random(8)
    for _ in range(30):
        a = random_poly(rng, VARS_TX)
        b = random_poly(rng, VARS_TX)
        for v in range(3):
            assert partial(a * b, v) == partial(a, v) * b + a * partial(b, v)


def test_substitution_is_ring_homomorphism():
    rng = random.Random(9)
    for _ in range(30):
        a = random_poly(rng, VARS_TX)
        b = random_poly(rng, VARS_TX)
        assert substitute_t_squared(a + b) == substitute_t_squared(a) + substitute_t_squared(b)
        assert substitute_t_squared(a * b) == substitute_t_squared(a) * substitute_t_squared(b)


def assert_canonical(q):
    """den > 0, no zero numerator, and den coprime to the content."""
    assert q.den > 0
    assert all(q.terms.values())
    content = 0
    for c in q.terms.values():
        content = gcd(content, c)
    assert gcd(content, q.den) == 1


def test_coefficients_stay_reduced():
    rng = random.Random(10)
    acc = Poly.constant(Fraction(1, 3), VARS_X)
    for _ in range(10):
        acc = acc * random_poly(rng, VARS_X, rational=True) + acc
        assert_canonical(acc)
    for _, coeff in acc.sorted_terms():
        assert coeff != 0


def test_canonical_form_is_unique():
    rng = random.Random(14)
    for vars in (VARS_X, VARS_TX) * 40:
        a = random_poly(rng, vars, rational=True)
        b = random_poly(rng, vars, rational=True)
        for q in (a, a + b, a - b, a * b, a - a, partial(a, 0), a * Fraction(6, 4)):
            assert_canonical(q)
        third = a * Fraction(1, 3)
        assert_canonical(third)
        assert third * 3 == a and hash(third * 3) == hash(a)
        # the same polynomial built from its terms, or by another route
        assert Poly(vars, dict(a.sorted_terms())) == a
        assert hash((a + b) - b) == hash(a) and (a + b) - b == a
    assert Poly.zero(VARS_X).den == 1 and (p("x1") * Fraction(1, 2) * 0).den == 1


def test_no_zero_coefficients_stored():
    q = p("x1 + x2") - p("x2")
    assert [m for m, _ in q.sorted_terms()] == [(0, 1, 0)]


def evaluate(q, point):
    """Independent evaluation from the exponent tuples of sorted_terms()."""
    total = Fraction(0)
    for mono, c in q.sorted_terms():
        for x, e in zip(point, mono):
            c *= x ** e
        total += c
    return total


def evaluate_partial(q, v, point):
    """The derivative in variable v, evaluated term by term."""
    total = Fraction(0)
    for mono, c in q.sorted_terms():
        if mono[v]:
            c *= mono[v]
            for i, (x, e) in enumerate(zip(point, mono)):
                c *= x ** (e - 1 if i == v else e)
            total += c
    return total


def test_ring_operations_agree_with_evaluation():
    rng = random.Random(15)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    for vars in (VARS_X, VARS_TX) * 40:
        a = random_poly(rng, vars, rational=True)
        b = random_poly(rng, vars, rational=True)
        c = rational()
        n = rng.randint(0, 3)
        for _ in range(3):
            pt = tuple(rational() for _ in vars)
            va, vb = evaluate(a, pt), evaluate(b, pt)
            assert evaluate(a + b, pt) == va + vb
            assert evaluate(a - b, pt) == va - vb
            assert evaluate(-a, pt) == -va
            assert evaluate(a * b, pt) == va * vb
            assert evaluate(a * c, pt) == va * c
            assert evaluate(a + c, pt) == va + c
            assert evaluate(c - a, pt) == c - va
            assert evaluate(a ** n, pt) == va ** n
            for v in range(len(vars)):
                assert evaluate(partial(a, v), pt) == evaluate_partial(a, v, pt)
            if vars == VARS_TX:
                t, *x = pt
                assert evaluate(substitute_t_squared(a), pt) == evaluate(a, (t * t, *x))
                assert evaluate(set_t_zero(a), x) == evaluate(a, (0, *x))


def test_degree_past_the_packed_fields_raises():
    t = Poly.variable("t", VARS_TX)
    with pytest.raises(ValueError):
        Poly(VARS_TX, {(MAX_DEGREE + 1, 0, 0): 1})
    with pytest.raises(ValueError):
        Poly(VARS_TX, {(MAX_DEGREE, 1, 0): 1})
    top = t ** MAX_DEGREE
    assert top.sorted_terms() == [((MAX_DEGREE, 0, 0), 1)]
    with pytest.raises(ExponentOverflow):
        t ** (MAX_DEGREE + 1)
    with pytest.raises(ExponentOverflow):
        top * p("x2 + 1")
    half = t ** 16383
    assert substitute_t_squared(half).sorted_terms() == [((32766, 0, 0), 1)]
    with pytest.raises(ExponentOverflow):
        substitute_t_squared(t ** 16384)


def test_pow():
    assert p("x1 + 1") ** 0 == p("1")
    assert p("x1 + x2") ** 2 == p("x1^2 + 2*x1*x2 + x2^2")
    assert p("2") ** 10 == p("1024") and p("0") ** 3 == p("0")
    with pytest.raises(ValueError):
        p("x1") ** -1


def test_pow_checks_the_degree_before_multiplying():
    # n * max(degree, 1) is checked up front: the 40000th power of x1 + x2
    # raises before its first product, and so does any exponent past
    # MAX_DEGREE, on a constant base as on a zero one
    for base in (p("x1 + x2"), p("2"), p("0")):
        with pytest.raises(ExponentOverflow):
            base ** (MAX_DEGREE + 1)
    with pytest.raises(ExponentOverflow):
        p("x1 + x2") ** 40000
    with pytest.raises(ExponentOverflow):
        p("x1^2") ** (MAX_DEGREE // 2 + 1)
    top = p("x1^2") ** (MAX_DEGREE // 2)
    assert top.sorted_terms() == [((0, MAX_DEGREE - 1, 0), 1)]


def test_non_int_exponents_raise_value_error():
    for mono in ((1.0, 0), ("1", 0)):
        with pytest.raises(ValueError, match="bad exponent vector"):
            Poly(VARS_X, {mono: 1})


def test_repeated_variable_in_the_ambient_raises():
    with pytest.raises(ValueError, match="repeated variable"):
        Poly.variable("x1", ("x1", "x1"))
    with pytest.raises(ValueError, match="repeated variable"):
        Poly.zero(("t", "x1", "t"))


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        p("x1") + p("x1", VARS_X)


def test_immutability():
    q = p("x1")
    with pytest.raises(AttributeError):
        q.terms = {}


def test_pickle_and_copy_round_trip():
    rng = random.Random(12)
    polys = [p("0"), p("1/2*x1 + t"), p("x1", VARS_X)]
    polys += [random_poly(rng, VARS_TX, rational=True) for _ in range(20)]
    for q in polys:
        for r in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q)):
            assert r == q and hash(r) == hash(q)
            assert (r.vars, r.terms, r.den) == (q.vars, q.terms, q.den)
