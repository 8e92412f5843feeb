import random
from fractions import Fraction

import numpy as np
import pytest

from cuspcount.elk_degree import (
    DegreeCertificate,
    build_algebra,
    local_degree,
    signature,
)
from cuspcount.errors import DegenerateJacobianClass, NotAlgebraicallyIsolated
from cuspcount.exprparse import parse_poly
from cuspcount.polyring import (
    MapGerm,
    VARS_TX,
    VARS_X,
    jacobian2,
    monomial_mul,
    partial,
    set_t_zero,
)

from oracle import germ_is_oracle_friendly, preimage_degree, winding_degree
from support import EX1, random_origin_poly


def p2(text):
    return parse_poly(text, VARS_X)


def p3(text):
    return parse_poly(text, VARS_TX)


# -- build_algebra ----------------------------------------------------------


def test_algebra_identity_germ():
    a = build_algebra([p2("x1"), p2("x2")])
    assert a.dim == 1
    assert a.cobasis == ((0, 0),)


def test_algebra_staircase_dims():
    assert build_algebra([p2("x1^2"), p2("x2^2")]).dim == 4
    assert build_algebra([p2("x1^3"), p2("x2")]).dim == 3


def test_algebra_rejects_nonisolated():
    with pytest.raises(NotAlgebraicallyIsolated):
        build_algebra([p2("x1^2"), p2("x1*x2")])


def test_algebra_coords_are_linear():
    rng = random.Random(41)
    a = build_algebra([p2("x1^3 + x2^2"), p2("x1*x2")])
    for _ in range(20):
        f = random_origin_poly(rng, VARS_X, max_deg=4)
        g = random_origin_poly(rng, VARS_X, max_deg=4)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        lhs = a.coords(f * c + g)
        rhs = tuple(c * x + y for x, y in zip(a.coords(f), a.coords(g)))
        assert lhs == rhs


def test_algebra_mult_table_properties():
    a = build_algebra([p2("x1^2 - x2^3"), p2("x1*x2")])
    table = a.mult_table()
    one = a.cobasis.index((0, 0))
    for i, m in enumerate(a.cobasis):
        key = (min(one, i), max(one, i))
        expected = tuple(
            Fraction(1 if j == i else 0) for j in range(a.dim)
        )
        assert table[key] == expected
    # spot-check associativity via coords of triple products
    rng = random.Random(42)
    for _ in range(10):
        i, j, k = (rng.randrange(a.dim) for _ in range(3))
        mi, mj, mk = a.cobasis[i], a.cobasis[j], a.cobasis[k]
        left = a.coords_monomial(monomial_mul(monomial_mul(mi, mj), mk))
        right = a.coords_monomial(monomial_mul(mi, monomial_mul(mj, mk)))
        assert left == right


# -- signature --------------------------------------------------------------


def test_signature_examples():
    assert signature([[2, 0, 0], [0, -3, 0], [0, 0, 5]]) == (2, 1, 0)
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature([[0, 0, 0]] * 3) == (0, 0, 3)


def _zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def test_signature_validates_input():
    with pytest.raises(ValueError):
        signature([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        signature([[0, 1]])
    # large and sparse: one asymmetric entry, or one row of the wrong length
    for i, j, back in ((3, 41, 0), (41, 3, 0), (17, 29, 2), (49, 0, -1)):
        m = _zeros(50)
        m[i][j] = Fraction(1)
        m[j][i] = Fraction(back)
        with pytest.raises(ValueError, match="symmetric"):
            signature(m)
    for width in (49, 51):
        m = _zeros(50)
        m[7][7] = Fraction(1)
        m[30] = [Fraction(0)] * width
        with pytest.raises(ValueError, match="square"):
            signature(m)


def test_signature_path_graph_zero_diagonal():
    # the path graph's adjacency eigenvalues 2*cos(k*pi/(n+1)) pair off as
    # +-, with one zero when n is odd
    for n in range(2, 41):
        m = _zeros(n)
        for i in range(n - 1):
            m[i][i + 1] = m[i + 1][i] = Fraction(1)
        assert signature(m) == (n // 2, n // 2, n % 2), n


def test_signature_hyperbolic_planes_zero_diagonal():
    # each plane [[0, c], [c, 0]] has eigenvalues +-c
    rng = random.Random(48)
    m = _zeros(40)
    for b in range(20):
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
        m[2 * b][2 * b + 1] = m[2 * b + 1][2 * b] = c
    assert signature(m) == (20, 20, 0)


def test_signature_sparse_congruent_to_singular_diagonal():
    # P = (permutation) * (sparse unit lower triangular) * H is invertible,
    # so P*D*P^T has the inertia of D, zeros on D's diagonal included.  H
    # turns pairs (c, -c) of D into planes [[0, 2c], [2c, 0]], so the zero
    # diagonal step runs as well.
    rng = random.Random(49)
    for _ in range(12):
        n = rng.randint(30, 60)
        d, planes = [], []
        while len(d) < n:
            c = rng.choice([-2, -1, 0, 1, 3])
            if c and len(d) < n - 1 and rng.random() < 0.5:
                planes.append(len(d))
                d += [c, -c]
            else:
                d.append(c)
        low = _zeros(n)
        for i in range(n):
            low[i][i] = Fraction(1)
            for j in rng.sample(range(i), min(i, 2)):
                if rng.random() < 0.3:
                    low[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        p = [low[i][:] for i in range(n)]
        for k in planes:
            for i in range(n):
                a, b = low[i][k], low[i][k + 1]
                p[i][k], p[i][k + 1] = a + b, a - b
        perm = list(range(n))
        rng.shuffle(perm)
        p = [p[perm[i]] for i in range(n)]
        pd = [[p[i][k] * d[k] for k in range(n)] for i in range(n)]
        m = [[sum(pd[i][k] * p[j][k] for k in range(n) if p[j][k])
              for j in range(n)] for i in range(n)]
        want = (sum(x > 0 for x in d), sum(x < 0 for x in d), d.count(0))
        assert signature(m) == want


def _random_symmetric(rng, n):
    m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[j][i] = m[i][j]
    return m


def _random_invertible(rng, n):
    while True:
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        # determinant by fraction-free expansion on small n
        import itertools

        det = Fraction(0)
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = Fraction(sign)
            for i in range(n):
                prod *= a[i][perm[i]]
            det += prod
        if det != 0:
            return a


def _congruent(m, a):
    n = len(m)
    am = [[sum(a[k][i] * m[k][l] for k in range(n)) for l in range(n)] for i in range(n)]
    return [[sum(am[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def test_signature_congruence_invariance():
    rng = random.Random(43)
    for n in (2, 3, 4):
        m = _random_symmetric(rng, n)
        base = signature(m)
        for _ in range(25):
            a = _random_invertible(rng, n)
            got = signature(_congruent(m, a))
            # congruence by an invertible matrix preserves the full inertia
            assert got == base


def test_signature_diagonal_equals_sign_count():
    rng = random.Random(44)
    for _ in range(25):
        n = rng.randint(1, 6)
        d = [rng.randint(-5, 5) for _ in range(n)]
        m = [[Fraction(d[i] if i == j else 0) for j in range(n)] for i in range(n)]
        want = (sum(1 for x in d if x > 0), sum(1 for x in d if x < 0),
                sum(1 for x in d if x == 0))
        assert signature(m) == want


# -- local degree: exact cases ----------------------------------------------


def test_degree_trivial_germs():
    assert local_degree([p3("t"), p3("x1"), p3("x2")]).degree == 1
    assert local_degree([p2("x1"), p2("-x2")]).degree == -1
    assert local_degree([p2("x1^2 - x2^2"), p2("2*x1*x2")]).degree == 2


def test_degree_worked_family():
    f1, f2 = p3(EX1[0]), p3(EX1[1])
    J = jacobian2(f1, f2, 1, 2)
    assert local_degree([set_t_zero(f1), set_t_zero(f2)]).degree == -1
    assert local_degree([partial(J, 0), partial(J, 1), partial(J, 2)]).degree == 1
    assert local_degree([J, partial(J, 1), partial(J, 2)]).degree == -1


def test_degree_gradient_with_empty_negative_side():
    # gradient (9*x1^2, -4*x2): the first component never goes negative, so a
    # value (-eps, 0) has no preimage and the degree is 0
    cert = local_degree([p2("9*x1^2"), p2("-4*x2")])
    assert cert.degree == 0
    assert winding_degree([p2("9*x1^2"), p2("-4*x2")], (0.0, 0.0), 0.05) == 0


def test_degree_unit_component_is_zero():
    cert = local_degree(
        MapGerm((p3("1 + 2*t"), p3("x1"), p3("x2")), check_origin=False)
    )
    assert cert == DegreeCertificate(0, 0, (), (), (0, 0))


def test_even_multiplicity_degree_zero():
    # preimages of a regular value come in sign-cancelling pairs
    cert = local_degree([p2("x1^2"), p2("x2^2 + x1^2")])
    assert cert.degree == 0
    assert cert.algebra_dim == 4


def test_real_isolation_only_is_rejected():
    # (x1, x2) * (x1^2 + x2^2): the only real zero is the origin but the
    # complex zero set contains two lines, so the algebra is infinite
    comps = [p2("x1^3 + x1*x2^2"), p2("x2*x1^2 + x2^3")]
    with pytest.raises(NotAlgebraicallyIsolated):
        local_degree(comps)


def test_certificate_invariants():
    rng = random.Random(45)
    found = 0
    while found < 15:
        comps = [random_origin_poly(rng, VARS_X, max_deg=3, n_terms=4) for _ in range(2)]
        try:
            cert = local_degree(comps)
        except (NotAlgebraicallyIsolated, DegenerateJacobianClass):
            continue
        found += 1
        pos, neg = cert.signature_split
        assert pos - neg == cert.degree
        assert pos + neg == cert.algebra_dim
        assert abs(cert.degree) <= cert.algebra_dim
        assert cert.degree % 2 == cert.algebra_dim % 2
        phi_j = sum(f * c for f, c in zip(cert.functional, cert.jacobian_class))
        assert phi_j > 0


def test_functional_choice_does_not_change_degree():
    comps = [p2("x1^3 + x2^2"), p2("x1*x2")]
    cert = local_degree(comps)
    algebra = build_algebra(comps)
    from cuspcount.polyring import jacobian_det

    jclass = algebra.coords(jacobian_det(comps))
    admissible = [i for i, c in enumerate(jclass) if c != 0]
    assert len(admissible) >= 1
    for i in admissible:
        sign = 1 if jclass[i] > 0 else -1
        table = algebra.functional_table(algebra.cobasis[i])
        n_cap = algebra._n
        b = []
        for r, mr in enumerate(algebra.cobasis):
            row = []
            for c, mc in enumerate(algebra.cobasis):
                prod = monomial_mul(mr, mc)
                row.append(sign * table[prod] if sum(prod) < n_cap else Fraction(0))
            b.append(row)
        pos, neg, zero = signature(b)
        assert zero == 0
        assert pos - neg == cert.degree


def test_orientation_swap_flips_degree():
    for comps in ([p2("x1^3 + x2^2"), p2("x1*x2")],
                  [p2("x1^2 - x2^2"), p2("2*x1*x2")]):
        swapped = [comps[1], comps[0]]
        assert local_degree(swapped).degree == -local_degree(comps).degree


# -- numeric oracle agreement -------------------------------------------------


def _random_isolated_germ(rng, vars, max_dim):
    while True:
        comps = [random_origin_poly(rng, vars, max_deg=3, n_terms=4,
                                    coeff_range=2)
                 for _ in range(len(vars))]
        try:
            cert = local_degree(comps)
        except (NotAlgebraicallyIsolated, DegenerateJacobianClass):
            continue
        if cert.algebra_dim > max_dim:
            continue
        return comps, cert


def test_numeric_oracle_agreement_sample():
    """A slice of the acceptance-gate oracle suite, for quick feedback."""
    rng = random.Random(46)
    np_rng = np.random.default_rng(47)
    agreed = 0
    attempts = 0
    while agreed < 8 and attempts < 200:
        attempts += 1
        comps, cert = _random_isolated_germ(rng, VARS_X, max_dim=5)
        if not germ_is_oracle_friendly(comps):
            continue
        picked = None
        for retry in range(4):
            norm = 1e-3 / (10 ** (retry // 2))
            ang = np_rng.uniform(0, 2 * np.pi)
            v = norm * np.array([np.cos(ang), np.sin(ang)])
            count, deg, clear = preimage_degree(comps, v, local_radius=0.4,
                                                seed=retry)
            if clear and count <= cert.algebra_dim and (count - cert.algebra_dim) % 2 == 0:
                picked = deg
                break
        if picked is None:
            continue
        assert picked == cert.degree, (comps, cert.degree, picked)
        agreed += 1
    assert agreed == 8
