import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from cuspcount import elk_degree
from cuspcount.branch_counter import build_H
from cuspcount.cusp_pipeline import derive, run
from cuspcount.elk_degree import (
    DegreeCertificate,
    build_algebra,
    local_degree,
    signature,
)
from cuspcount.errors import DimensionInfinite, InternalInconsistency
from cuspcount.exprparse import parse_poly
from cuspcount.polyring import (
    Poly,
    VARS_TX,
    VARS_X,
    jacobian_det,
    pack_monomial,
    partial,
    substitute_t_squared,
)
from cuspcount.standard_basis import LocalIdeal

from oracle import (
    germ_evaluator,
    germ_is_oracle_friendly,
    jacobian_evaluator,
    preimage_degree,
    winding_degree,
)
from support import (
    CRAFTED_FAMILIES,
    EX1,
    EX2,
    congruent,
    germ_degree,
    lift,
    minor,
    pad,
    random_invertible,
    random_origin_poly,
    random_poly,
    random_symmetric,
    set_t_zero,
)


def p2(text):
    return parse_poly(text, VARS_X)


def px(*texts):
    """The planar germ of texts in (x1, x2) as the germ (t, *texts)."""
    return pad([p2(text) for text in texts])


def p3(text):
    return parse_poly(text, VARS_TX)


# -- build_algebra ----------------------------------------------------------


def test_algebra_identity_germ():
    a = build_algebra(LocalIdeal(px("x1", "x2")))
    assert a.dim == 1
    assert a.cobasis == ((0, 0, 0),)


def test_algebra_staircase_dims():
    assert build_algebra(LocalIdeal(px("x1^2", "x2^2"))).dim == 4
    assert build_algebra(LocalIdeal(px("x1^3", "x2"))).dim == 3


def test_algebra_rejects_nonisolated():
    with pytest.raises(DimensionInfinite):
        build_algebra(LocalIdeal(px("x1^2", "x1*x2")))


def test_algebra_rejects_malformed_germs():
    for germ in (px("x1"), [p3("x1"), p3("x2")]):
        with pytest.raises(ValueError, match="square"):
            build_algebra(LocalIdeal(germ))
    # no components, or a component outside (t, x1, x2)
    with pytest.raises(ValueError, match="at least one"):
        LocalIdeal([])
    with pytest.raises(ValueError, match="ambient"):
        LocalIdeal([p3("x1"), parse_poly("y", ("x1", "y"))])


def test_degree_rejects_a_jacobian_outside_t_x1_x2():
    # the degree engine takes germs of (t, x1, x2), which LocalIdeal
    # enforces, and their Jacobians: one in (x1, x2) is refused by name
    with pytest.raises(ValueError, match=r"\(t, x1, x2\)"):
        local_degree(LocalIdeal(px("x1", "x2")), p2("1"))
    assert local_degree(LocalIdeal(px("x1", "x2")), p3("1")).degree == 1


def _large_H_algebra():
    """A dim >= 50 algebra whose reducers have leading coefficients 4, 6
    and 54, so coords' fraction-free reduction carries a multiplier."""
    d = derive(p3(CRAFTED_FAMILIES[0][0]), p3(CRAFTED_FAMILIES[0][1]))
    g1, g2, g3 = (substitute_t_squared(g) for g in (d.F1, d.F2, d.J))
    return build_algebra(LocalIdeal(build_H(g1, g2, g3, 6)[0][0]))


def test_algebra_coords_are_linear():
    rng = random.Random(41)
    small = build_algebra(LocalIdeal(px("x1^3 + x2^2", "x1*x2")))
    large = _large_H_algebra()
    assert {4, 6, 54} <= {r.lc for r in large._reducers}
    # small's polynomials are drawn in (x1, x2), where its germ was
    for a, vars, max_deg in ((small, VARS_X, 4), (large, VARS_TX, large._n + 2)):
        high = 0  # terms at or above the nilpotency degree N
        for _ in range(20):
            f, g = (random_origin_poly(rng, vars, max_deg=max_deg,
                                       n_terms=8, rational=True)
                    for _ in range(2))
            if vars == VARS_X:
                f, g = lift(f), lift(g)
            high += sum(sum(m) >= a._n for q in (f, g) for m, _ in q.sorted_terms())
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            lhs = a.coords(f * c + g)
            rhs = tuple(c * x + y for x, y in zip(a.coords(f), a.coords(g)))
            assert lhs == rhs
        assert high > 20


def _mono(m):
    return Poly(VARS_TX, {m: Fraction(1)})


def monomial_mul(a, b):
    """The product of two monomials given as exponent tuples."""
    return tuple(x + y for x, y in zip(a, b))


def test_algebra_mult_table_properties():
    a = build_algebra(LocalIdeal(px("x1^2 - x2^3", "x1*x2")))

    def times(*ms):
        prod = (0, 0, 0)
        for m in ms:
            prod = monomial_mul(prod, m)
        return a.coords(_mono(prod))

    for i, m in enumerate(a.cobasis):
        unit = tuple(Fraction(1 if j == i else 0) for j in range(a.dim))
        assert times((0, 0, 0), m) == times(m) == unit
    for mi in a.cobasis:
        for mj in a.cobasis:
            assert times(mi, mj) == times(mj, mi)
            for mk in a.cobasis:
                # (mi*mj)*mk, reduced through the class of mi*mj, agrees
                # with mi*(mj*mk), reduced through the class of mj*mk
                left = Poly.zero(VARS_TX)
                for c, mb in zip(times(mi, mj), a.cobasis):
                    left = left + _mono(monomial_mul(mb, mk)) * c
                right = Poly.zero(VARS_TX)
                for c, mb in zip(times(mj, mk), a.cobasis):
                    right = right + _mono(monomial_mul(mi, mb)) * c
                assert a.coords(left) == a.coords(right) == times(mi, mj, mk)


def _assert_sweeps_are_dual(algebra):
    """coords (primal reduction) and functional_table (dual recursion) agree on
    every monomial below the nilpotency degree: each table holds only nonzero
    ints den*phi over a positive den.  socle_pairing()[i][j] is the int den
    times the last coordinate of the product of staircase monomials i and j,
    for den the denominator of the last staircase monomial's table."""
    n = algebra._n
    monos = [m for m in product(range(n), repeat=3) if sum(m) < n]
    tables = [algebra.functional_table(pack_monomial(b)) for b in algebra.cobasis]
    for table, den in tables:
        assert type(den) is int and den > 0
        assert all(type(v) is int and v for v in table.values())
    for m in monos:
        vec = algebra.coords(_mono(m))
        assert vec == tuple(
            Fraction(table.get(pack_monomial(m), 0), den) for table, den in tables
        ), m
    pairing = algebra.socle_pairing()
    den = tables[-1][1]
    for i, mi in enumerate(algebra.cobasis):
        for j, mj in enumerate(algebra.cobasis):
            prod = _mono(monomial_mul(mi, mj))
            assert type(pairing[i][j]) is int, (mi, mj)
            assert pairing[i][j] == den * algebra.coords(prod)[-1], (mi, mj)


def test_coords_dual_to_functional_tables_ex1():
    d = derive(p3(EX1[0]), p3(EX1[1]))
    dims = []
    for germ in (d.f0, d.d1, d.d2):
        algebra = build_algebra(germ)
        dims.append(algebra.dim)
        _assert_sweeps_are_dual(algebra)
    assert dims == [5, 1, 3]


def test_coords_dual_to_functional_tables_large_H():
    algebra = _large_H_algebra()
    assert algebra.dim >= 50
    _assert_sweeps_are_dual(algebra)


# -- signature --------------------------------------------------------------


def test_signature_examples():
    assert signature([[2, 0, 0], [0, -3, 0], [0, 0, 5]]) == (2, 1, 0)
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature([[0, 0, 0]] * 3) == (0, 0, 3)
    # int input is exact: in floats the Schur complement 10^40 + 1 - 10^40
    # cancels to 0, which would read (1, 0, 1)
    assert signature([[1, 10**20], [10**20, 10**40 + 1]]) == (2, 0, 0)


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


def test_signature_congruence_invariance():
    rng = random.Random(43)
    for n in (2, 3, 4):
        m = random_symmetric(rng, n)
        base = signature(m)
        for _ in range(25):
            a = random_invertible(rng, n)
            got = signature(congruent(m, a))
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


def _inertia_by_descartes(matrix):
    """Inertia of a real symmetric matrix from its characteristic polynomial,
    independently of signature: the roots are all real, so Descartes' rule
    of signs counts the positive ones exactly, and those of p(-x) the
    negative ones."""
    n = len(matrix)
    # a positive multiple has the same inertia and an integer char. poly
    scale = math.lcm(*(Fraction(x).denominator for row in matrix for x in row))
    a = [[int(Fraction(x) * scale) for x in row] for row in matrix]
    # Faddeev-LeVerrier: M_k = A*M_(k-1) + c_(n-k+1)*I, c_(n-k) = -tr(A*M_k)/k
    coeffs = [1]  # c_n, c_(n-1), ..., c_0 of det(x*I - A)
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(a[i][l] * m[l][j] for l in range(n) if m[l][j])
              + (coeffs[-1] if i == j else 0) for j in range(n)] for i in range(n)]
        trace = sum(a[i][l] * m[l][i] for i in range(n) for l in range(n))
        c, r = divmod(-trace, k)
        assert r == 0
        coeffs.append(c)
    low = coeffs[::-1]  # low[d] is the coefficient of x^d

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    zeros = next(d for d, c in enumerate(low) if c)
    return (sign_changes(low),
            sign_changes([-c if d % 2 else c for d, c in enumerate(low)]),
            zeros)


def test_inertia_by_descartes_examples():
    assert _inertia_by_descartes([[2, 0, 0], [0, -3, 0], [0, 0, 0]]) == (1, 1, 1)
    assert _inertia_by_descartes([[0, 1], [1, 0]]) == (1, 1, 0)
    assert _inertia_by_descartes([[1, 2], [2, 4]]) == (1, 0, 1)


def _random_sparse_symmetric(rng, n):
    """Mostly zero diagonal; every fourth matrix gets a planted kernel: a
    row that repeats another, or a zero row."""
    den = rng.randint(1, 6)
    m = _zeros(n)
    for i in range(n):
        if rng.random() < 0.15:
            m[i][i] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), den)
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                m[i][j] = m[j][i] = Fraction(rng.randint(-4, 4), den)
    if n >= 2 and rng.random() < 0.25:
        q, r = rng.sample(range(n), 2)
        for j in range(n):
            m[r][j] = m[j][r] = Fraction(0)
        if rng.random() < 0.6:
            for j in range(n):
                m[r][j] = m[j][r] = m[q][j]
            m[r][r] = m[q][r] = m[r][q] = m[q][q]
    return m


def test_signature_matches_descartes_on_random_sparse_matrices():
    rng = random.Random(50)
    singular = 0
    for _ in range(200):
        m = _random_sparse_symmetric(rng, rng.randint(1, 12))
        want = _inertia_by_descartes(m)
        assert signature(m) == want, m
        singular += want[2] > 0
    assert 40 <= singular <= 160


def test_signature_exact_on_int_input():
    # singular: float elimination leaves 121 - 55*55/25 = -1.4e-14 and would
    # read (1, 1, 0)
    assert signature([[25, 55], [55, 121]]) == (1, 0, 1)
    # singular too, through the 2x2 pivot [[0, 3], [3, 5]]: in floats 1/3
    # leaves a residue and reads (2, 1, 0)
    assert signature([[0, 3, 3], [3, 5, 8], [3, 8, 11]]) == (1, 1, 1)
    # int entries stay ints until an update touches them; dividing by a
    # positive s, or writing some entries as Fractions, keeps the inertia
    rng = random.Random(53)
    singular = 0
    for _ in range(100):
        m = _random_sparse_symmetric(rng, rng.randint(1, 12))
        ints = [[int(x * 60) for x in row] for row in m]
        s = rng.randint(1, 10**6)
        scaled = [[Fraction(x, s) for x in row] for row in ints]
        mixed = [[Fraction(x) if (i + j) % 2 else x for j, x in enumerate(row)]
                 for i, row in enumerate(ints)]
        want = signature(ints)
        assert want == _inertia_by_descartes(ints), ints
        assert signature(scaled) == want, (ints, s)
        assert signature(mixed) == want, ints
        singular += want[2] > 0
    assert 20 <= singular <= 80


def test_signature_matches_descartes_on_ex1_pairings(monkeypatch):
    algebras = []

    def recording(ideal):
        algebra = build_algebra(ideal)
        algebras.append(algebra)
        return algebra

    monkeypatch.setattr(elk_degree, "build_algebra", recording)
    run(p3(EX1[0]), p3(EX1[1]))
    checked = [a for a in algebras if 0 < a.dim <= 30]
    assert sorted(a.dim for a in checked) == [1, 2, 3, 5, 30, 30]
    for algebra in checked:
        b = algebra.socle_pairing()
        assert signature(b) == _inertia_by_descartes(b), algebra.dim


# -- local degree: exact cases ----------------------------------------------


def test_degree_trivial_germs():
    assert germ_degree([p3("t"), p3("x1"), p3("x2")]).degree == 1
    assert germ_degree(px("x1", "-x2")).degree == -1
    assert germ_degree(px("x1^2 - x2^2", "2*x1*x2")).degree == 2


def test_degree_worked_family():
    f1, f2 = p3(EX1[0]), p3(EX1[1])
    J = minor(f1, f2, 1, 2)
    assert germ_degree(pad([set_t_zero(f1), set_t_zero(f2)])).degree == -1
    assert germ_degree([partial(J, 0), partial(J, 1), partial(J, 2)]).degree == 1
    assert germ_degree([J, partial(J, 1), partial(J, 2)]).degree == -1


def test_degree_gradient_with_empty_negative_side():
    # gradient (9*x1^2, -4*x2): the first component never goes negative, so a
    # value (-eps, 0) has no preimage and the degree is 0
    cert = germ_degree(px("9*x1^2", "-4*x2"))
    assert cert.degree == 0
    assert winding_degree([p2("9*x1^2"), p2("-4*x2")], (0.0, 0.0), 0.05) == 0


def test_degree_unit_component_is_zero():
    cert = germ_degree([p3("1 + 2*t"), p3("x1"), p3("x2")])
    assert cert == DegreeCertificate(0, 0, (), (0, 0))


def test_degree_rejects_a_jacobian_off_the_socle():
    # the caller hands local_degree the Jacobian; a class that is not a
    # nonzero multiple of the socle monomial x1*x2 is an internal error
    germ = px("x1^2", "x2^2")
    ideal = LocalIdeal(germ)
    assert local_degree(ideal, jacobian_det(germ)).degree == 0
    for wrong in (p3("x1"), p3("x1^2"), p3("x1*x2 + x2")):
        with pytest.raises(InternalInconsistency, match="socle"):
            local_degree(ideal, wrong)


def test_degenerate_pairing_is_an_internal_error(monkeypatch):
    # the residue pairing of a finite algebra is nondegenerate, so a zero in
    # its inertia beside a nonzero Jacobian class is a bug
    monkeypatch.setattr(
        elk_degree, "signature", lambda matrix: (len(matrix) - 1, 0, 1)
    )
    germ = px("x1^2", "x2^2")
    with pytest.raises(InternalInconsistency, match="degenerate"):
        local_degree(LocalIdeal(germ), jacobian_det(germ))


def test_functional_table_takes_a_staircase_monomial():
    algebra = build_algebra(LocalIdeal(px("x1^2", "x2^2")))
    with pytest.raises(ValueError, match="not a packed staircase monomial"):
        algebra.functional_table(pack_monomial((0, 2, 0)))


def test_even_multiplicity_degree_zero():
    # preimages of a regular value come in sign-cancelling pairs
    cert = germ_degree(px("x1^2", "x2^2 + x1^2"))
    assert cert.degree == 0
    assert cert.algebra_dim == 4


def test_real_isolation_only_is_rejected():
    # (x1, x2) * (x1^2 + x2^2): the only real zero is the origin but the
    # complex zero set contains two lines, so the algebra is infinite
    comps = px("x1^3 + x1*x2^2", "x2*x1^2 + x2^3")
    with pytest.raises(DimensionInfinite):
        germ_degree(comps)


def test_certificate_invariants():
    rng = random.Random(45)
    found = 0
    while found < 15:
        comps = [random_origin_poly(rng, VARS_X, max_deg=3, n_terms=4) for _ in range(2)]
        try:
            cert = germ_degree(pad(comps))
        except DimensionInfinite:
            continue
        found += 1
        pos, neg = cert.signature_split
        assert pos - neg == cert.degree
        assert pos + neg == cert.algebra_dim
        assert abs(cert.degree) <= cert.algebra_dim
        assert cert.degree % 2 == cert.algebra_dim % 2
        assert cert.jacobian_class[-1] != 0


def test_functional_choice_does_not_change_degree():
    comps = px("x1^3 + x2^2", "x1*x2")
    cert = germ_degree(comps)
    algebra = build_algebra(LocalIdeal(comps))
    jclass = algebra.coords(jacobian_det(comps))
    admissible = [i for i, c in enumerate(jclass) if c != 0]
    assert len(admissible) >= 1
    for i in admissible:
        sign = 1 if jclass[i] > 0 else -1
        table, den = algebra.functional_table(pack_monomial(algebra.cobasis[i]))
        assert den > 0
        n_cap = algebra._n
        b = []
        for r, mr in enumerate(algebra.cobasis):
            row = []
            for c, mc in enumerate(algebra.cobasis):
                prod = monomial_mul(mr, mc)
                row.append(sign * table.get(pack_monomial(prod), 0) if sum(prod) < n_cap
                           else Fraction(0))
            b.append(row)
        pos, neg, zero = signature(b)
        assert zero == 0
        assert pos - neg == cert.degree


def _assert_class_spans_the_socle(germ):
    algebra = build_algebra(LocalIdeal(germ))
    jclass = algebra.coords(jacobian_det(germ))
    assert jclass[-1] != 0 and not any(jclass[:-1]), germ
    degrees = [sum(m) for m in algebra.cobasis]
    assert degrees.index(max(degrees)) == algebra.dim - 1, germ
    return algebra.dim


def test_jacobian_class_spans_the_last_staircase_monomial():
    # the Jacobian class of a finite local algebra spans its one-dimensional
    # socle (Eisenbud-Levine); on the staircase basis the socle is the last
    # monomial, the only one of top degree, and local_degree takes phi there
    rng = random.Random(48)
    checked = 0
    while checked < 200:
        vars = (VARS_X, VARS_TX)[checked % 2]
        comps = [random_origin_poly(rng, vars, max_deg=3, n_terms=4, coeff_range=2)
                 for _ in vars]
        if vars == VARS_X:
            comps = pad(comps)
        try:
            if build_algebra(LocalIdeal(comps)).dim == 0:
                continue
        except DimensionInfinite:
            continue
        _assert_class_spans_the_socle(comps)
        checked += 1
    # EX2's H+ after t -> t^2, the largest algebra of the worked families
    d = derive(p3(EX2[0]), p3(EX2[1]))
    g1, g2, g3 = (substitute_t_squared(g) for g in (d.F1, d.F2, d.J))
    assert _assert_class_spans_the_socle(build_H(g1, g2, g3, 6)[0][0]) == 238


def _assert_pairing_vanishes_at_degree_n(algebra):
    n = algebra._n
    degrees = [sum(m) for m in algebra.cobasis]
    b = algebra.socle_pairing()
    for i, di in enumerate(degrees):
        for j, dj in enumerate(degrees):
            if di + dj >= n:
                assert b[i][j] == 0, (algebra.cobasis[i], algebra.cobasis[j])
    return b


def test_pairing_vanishes_at_degree_n():
    # phi(m_i*m_j) = 0 once deg m_i + deg m_j >= N, so the staircase
    # monomials of degree >= N/2 span a totally isotropic block.  signature's
    # 2x2 pivots keep that block zero, which is what makes them fast; they
    # are correct on any symmetric matrix
    rng = random.Random(51)
    checked = 0
    while checked < 100:
        vars = (VARS_X, VARS_TX)[checked % 2]
        comps = [random_origin_poly(rng, vars, max_deg=3, n_terms=4, coeff_range=2)
                 for _ in vars]
        if vars == VARS_X:
            comps = pad(comps)
        try:
            algebra = build_algebra(LocalIdeal(comps))
        except DimensionInfinite:
            continue
        if algebra.dim == 0:
            continue
        _assert_pairing_vanishes_at_degree_n(algebra)
        checked += 1
    d = derive(p3(EX2[0]), p3(EX2[1]))
    g1, g2, g3 = (substitute_t_squared(g) for g in (d.F1, d.F2, d.J))
    algebra = build_algebra(LocalIdeal(build_H(g1, g2, g3, 6)[0][0]))
    assert algebra.dim == 238
    b = _assert_pairing_vanishes_at_degree_n(algebra)
    # the pairing is den*phi, all ints
    assert all(type(x) is int for row in b for x in row)


def test_orientation_swap_flips_degree():
    for comps in ([p2("x1^3 + x2^2"), p2("x1*x2")],
                  [p2("x1^2 - x2^2"), p2("2*x1*x2")]):
        swapped = [comps[1], comps[0]]
        assert germ_degree(pad(swapped)).degree == -germ_degree(pad(comps)).degree


# -- numeric oracle agreement -------------------------------------------------


def _random_isolated_germ(rng, vars, max_dim):
    """A germ drawn in vars, as drawn, with the certificate of its germ of
    (t, x1, x2)."""
    while True:
        comps = [random_origin_poly(rng, vars, max_deg=3, n_terms=4,
                                    coeff_range=2)
                 for _ in range(len(vars))]
        try:
            cert = germ_degree(comps if vars == VARS_TX else pad(comps))
        except DimensionInfinite:
            continue
        if cert.algebra_dim > max_dim:
            continue
        return comps, cert


def _termwise_values(p, x):
    # the reference evaluation: every term's powers from its own exponent
    # tuple, multiplied along the tuple, then the terms summed
    terms = p.sorted_terms()
    exps = np.array([m for m, _ in terms], dtype=np.int64).reshape(-1, x.shape[1])
    coeffs = np.array([float(c) for _, c in terms])
    return (coeffs * np.prod(x[:, None, :] ** exps[None, :, :], axis=2)).sum(axis=1)


def test_oracle_evaluators_match_the_termwise_reference():
    # one shared power table per call must change no bit of any value, so
    # the oracle's Newton runs and verdicts stay what they were
    rng = random.Random(48)
    np_rng = np.random.default_rng(49)
    for k in range(60):
        vars = (VARS_X, VARS_TX)[k % 2]
        comps = [random_poly(rng, vars, max_deg=rng.randint(1, 6),
                             n_terms=rng.randint(0, 10), rational=k % 3 == 0)
                 for _ in vars]
        x = np_rng.normal(scale=10.0 ** np_rng.uniform(-4, 1),
                          size=(int(np_rng.integers(1, 200)), len(vars)))
        germ = np.stack([_termwise_values(c, x) for c in comps], axis=1)
        jac = np.stack([_termwise_values(partial(c, j), x)
                        for c in comps for j in range(len(vars))], axis=1)
        assert np.array_equal(germ_evaluator(comps)(x), germ)
        assert np.array_equal(jacobian_evaluator(comps)(x),
                              jac.reshape(-1, len(vars), len(vars)))


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
