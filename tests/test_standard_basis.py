import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from cuspcount import elk_degree
from cuspcount.cusp_pipeline import run
from cuspcount.elk_degree import build_algebra
from cuspcount.errors import (
    DimensionInfinite,
    ExponentOverflow,
    InternalInconsistency,
    NotAlgebraicallyIsolated,
)
from cuspcount.exprparse import parse_poly
from cuspcount.polyring import (
    FIELD_BITS,
    MAX_DEGREE,
    Poly,
    VARS_TX,
    VARS_X,
    guard_bits,
    pack_monomial,
    unpack_monomial,
)
from cuspcount.standard_basis import (
    INFINITE,
    LocalAlgebra,
    LocalIdeal,
    _box,
    _divides,
    _Elem,
    _hreduce,
    _lcm,
    _primitive,
    _staircase,
)

from support import (
    EX1,
    EX2,
    germ_degree,
    minor,
    random_origin_poly,
    random_poly,
    reference_cusp_triple,
)


def p(text, vars=VARS_TX):
    return parse_poly(text, vars)


def monomial_sort_key(m):
    """The reference for the packed order: ascending sort by this key lists
    exponent tuples from largest to smallest monomial of the local order,
    1 first, then degree 1, ... with reverse-lex ties inside a degree."""
    return (sum(m), tuple(reversed(m)))


def brute_staircase_count(gen_monos, nvars):
    """Independent lattice-point count under the staircase of a monomial
    ideal: bound the box by the pure powers among the generators and count
    monomials divisible by no generator."""
    bounds = []
    for v in range(nvars):
        pure = [m[v] for m in gen_monos if m[v] > 0 and sum(m) == m[v]]
        if not pure:
            return INFINITE
        bounds.append(min(pure))
    count = 0
    for mono in product(*(range(b) for b in bounds)):
        if not any(all(g[i] <= mono[i] for i in range(nvars)) for g in gen_monos):
            count += 1
    return count


def ex1_data():
    f1, f2 = p(EX1[0]), p(EX1[1])
    return f1, f2, *reference_cusp_triple(f1, f2)


def test_std_basis_already_a_basis():
    ideal = LocalIdeal([p("x1", VARS_X), p("x2", VARS_X)])
    assert sorted(ideal.lead_monomials) == [(0, 1), (1, 0)]


def test_local_unit_factor_absorbed():
    # x - x^2 = x(1 - x): locally the ideal is <x>
    ideal = LocalIdeal([p("x - x^2", ("x",))])
    assert ideal.lead_monomials == ((1,),)
    assert ideal.quotient_dim() == 1


def test_worked_family_staircase_size():
    f1, f2, *_ = ex1_data()
    t = Poly.variable("t", VARS_TX)
    assert LocalIdeal([t, f1, f2]).quotient_dim() == 5


def test_normal_form_unit_ideal_cases():
    ideal = LocalIdeal([p("x - x^2", ("x",))])
    assert ideal.contains(p("x", ("x",)))
    m = LocalIdeal([p("x1", VARS_X), p("x2", VARS_X)])
    assert not m.contains(p("1", VARS_X))
    assert not m.contains(p("1 + x1", VARS_X))


def test_membership_exponent_worked_family():
    _, _, J, F1, F2 = ex1_data()
    t = Poly.variable("t", VARS_TX)
    j2 = LocalIdeal([F1, F2, J * J])
    assert not j2.contains(t * J)
    assert j2.contains(t * t * J)


def test_quotient_dim_monomial_staircase():
    ideal = LocalIdeal([p("x1^2", VARS_X), p("x2^3", VARS_X)])
    assert ideal.quotient_dim() == 6


def test_quotient_dim_worked_family_values():
    f1, f2, J, F1, F2 = ex1_data()
    t = Poly.variable("t", VARS_TX)
    assert LocalIdeal([t, F1, F2]).quotient_dim() == 7
    i_prime = LocalIdeal([
        J, F1, F2, minor(F1, J, 1, 2), minor(F2, J, 1, 2)
    ])
    assert i_prime.quotient_dim() == 8


def test_quotient_dim_infinite():
    assert LocalIdeal([p("x1", VARS_X)]).quotient_dim() == INFINITE


def test_cobasis_examples():
    assert LocalIdeal([p("x1", VARS_X), p("x2", VARS_X)]).cobasis() == ((0, 0),)
    cb = LocalIdeal([p("x1^2", VARS_X), p("x2^2", VARS_X)]).cobasis()
    assert set(cb) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert cb[0] == (0, 0)


def test_cobasis_infinite_raises():
    with pytest.raises(DimensionInfinite):
        LocalIdeal([p("x1", VARS_X)]).cobasis()


def test_cobasis_size_matches_independent_enumeration():
    _, _, J, F1, F2 = ex1_data()
    t = Poly.variable("t", VARS_TX)
    q = LocalIdeal([t, J, F1, F2])
    cb = q.cobasis()
    leads = list(q.lead_monomials)
    if q.truncation_degree is not None:
        d = q.truncation_degree
        leads += [m for m in product(range(d + 1), repeat=3) if sum(m) == d]
    assert len(cb) == q.quotient_dim() == brute_staircase_count(leads, 3)


def test_staircase_oracle_random_monomial_ideals():
    rng = random.Random(31)
    for trial in range(100):
        nvars = rng.choice((1, 2, 3))
        vars = ("t", "x1", "x2")[:nvars]
        monos = []
        for v in range(nvars):
            e = rng.randint(1, 5)
            monos.append(tuple(e if i == v else 0 for i in range(nvars)))
        for _ in range(rng.randint(0, 4)):
            monos.append(tuple(rng.randint(0, 4) for _ in range(nvars)))
        monos = [m for m in monos if sum(m) > 0]
        gens = [Poly(vars, {m: Fraction(1)}) for m in monos]
        ideal = LocalIdeal(gens)
        assert ideal.quotient_dim() == brute_staircase_count(monos, nvars), monos


def test_staircase_with_truncation_matches_enumeration():
    rng = random.Random(35)
    for trial in range(300):
        nvars = rng.choice((1, 2, 3))
        leads = [tuple(rng.randint(0, 4) for _ in range(nvars))
                 for _ in range(rng.randint(0, 6))]
        leads = [m for m in leads if sum(m) > 0]
        trunc = rng.choice((None, rng.randint(1, 8)))
        got = _staircase([pack_monomial(m) for m in leads], nvars, trunc)
        if trunc is None and brute_staircase_count(leads, nvars) == INFINITE:
            assert got is None, (leads, trunc)
            continue
        side = trunc if trunc is not None else 9
        expected = [
            mono for mono in product(range(side), repeat=nvars)
            if (trunc is None or sum(mono) < trunc)
            and not any(all(g[i] <= mono[i] for i in range(nvars)) for g in leads)
        ]
        # packed and ascending, which is the local order, largest first
        assert got == sorted(got), (leads, trunc)
        assert [unpack_monomial(m, nvars) for m in got] == sorted(
            expected, key=monomial_sort_key
        ), (leads, trunc)


def test_box_is_the_staircase_of_no_leads_descending():
    for nvars in range(1, 5):
        for n in range(1, 26):
            assert _box(nvars, n) == _staircase((), nvars, n)[::-1], (nvars, n)


def test_socle_pairing_is_the_dense_table_on_ex2(monkeypatch):
    # rows stop at their degree cut and are padded with zeros: entry for
    # entry the table read at every product, on EX2's largest algebras
    algebras = []

    def recording(ideal):
        algebra = build_algebra(ideal)
        algebras.append(algebra)
        return algebra

    monkeypatch.setattr(elk_degree, "build_algebra", recording)
    run(p(EX2[0]), p(EX2[1]))
    large = [a for a in algebras if a.dim in (122, 238)]
    assert sorted(a.dim for a in large) == [122, 122, 238, 238]
    for a in large:
        st = a._staircase
        table, _ = a.functional_table(st[-1])
        assert a.socle_pairing() == [
            [table.get(mi + mj, 0) for mj in st] for mi in st
        ], a.dim


def _divides_tuple(a, b):
    return all(x <= y for x, y in zip(a, b))


def test_packed_monomials_match_tuple_definitions():
    rng = random.Random(39)
    edge = (0, 1, MAX_DEGREE - 1, MAX_DEGREE)
    for trial in range(2000):
        nvars = rng.choice((1, 2, 3))
        shift = FIELD_BITS * nvars
        guards = guard_bits(nvars)

        def draw():
            return tuple(
                rng.choice(edge) if rng.random() < 0.3 else rng.randint(0, 6)
                for _ in range(nvars)
            )

        a, b = draw(), draw()
        pa, pb = pack_monomial(a), pack_monomial(b)
        assert unpack_monomial(pa, nvars) == a and pa >> shift == sum(a)
        assert (pa < pb) == (monomial_sort_key(a) < monomial_sort_key(b)), (a, b)
        prod = tuple(x + y for x, y in zip(a, b))
        assert pa + pb == pack_monomial(prod) and unpack_monomial(pa + pb, nvars) == prod
        assert _divides(pa, pb, guards) == _divides_tuple(a, b), (a, b)
        assert _divides(pb, pa, guards) == _divides_tuple(b, a), (a, b)
        lcm = tuple(map(max, a, b))
        assert _lcm(pa, pb, guards, shift) == pack_monomial(lcm), (a, b)
        if _divides_tuple(b, a):
            assert unpack_monomial(pa - pb, nvars) == tuple(x - y for x, y in zip(a, b))


def test_exponent_overflow_is_named_and_fast():
    x = Poly.variable("x2", VARS_X)
    # no Poly holds a generator past the field width
    with pytest.raises(ValueError):
        Poly(VARS_X, {(MAX_DEGREE + 1, 0): Fraction(1)})
    # an s-pair past it: the lead x1*x2 carries a homogenizer of degree
    # MAX_DEGREE - 2, and its lcm with x1^1000 has degree 1001
    spoly = Poly(VARS_X, {(1, 1): Fraction(1), (0, MAX_DEGREE): Fraction(1)})
    with pytest.raises(ExponentOverflow):
        LocalIdeal([spoly, Poly(VARS_X, {(1000, 0): Fraction(1)})]).quotient_dim()
    # a truncation degree past it: the staircase of <x1^2, x2^MAX_DEGREE>
    # reaches degree MAX_DEGREE
    pure = [Poly(VARS_X, {(2, 0): Fraction(1)}),
            Poly(VARS_X, {(0, MAX_DEGREE): Fraction(1)})]
    with pytest.raises(ExponentOverflow):
        LocalIdeal(pure).quotient_dim()
    # the largest degree still fits
    assert LocalIdeal([Poly(VARS_X, {(MAX_DEGREE, 0): Fraction(1)}), x]).quotient_dim() \
        == MAX_DEGREE


def rational_hreduce(d_p, p_terms, basis):
    """Top-down reduction dividing by lead coefficients, on exponent tuples;
    basis holds (terms, degree) pairs and the reducer is chosen as in
    _hreduce (the oldest, i.e. the first in basis)."""
    leads = [min(t, key=monomial_sort_key) for t, _ in basis]
    h = {m: Fraction(c) for m, c in p_terms.items()}
    out = {}
    while h:
        m = min(h, key=monomial_sort_key)
        c = h.pop(m)
        fits = [idx for idx, ((t, d), lm) in enumerate(zip(basis, leads))
                if d - sum(lm) <= d_p - sum(m) and _divides_tuple(lm, m)]
        if not fits:
            out[m] = c
            continue
        idx = min(fits)
        terms, lm = basis[idx][0], leads[idx]
        w = tuple(a - b for a, b in zip(m, lm))
        for mono, cc in terms.items():
            if mono == lm:
                continue
            mm = tuple(a + b for a, b in zip(mono, w))
            h[mm] = h.get(mm, 0) - c / terms[lm] * cc
            if h[mm] == 0:
                del h[mm]
    return out


def primitive_tuple_terms(out):
    """Rational terms scaled to coprime integers with a positive lead."""
    if not out:
        return {}
    lead = out[min(out, key=monomial_sort_key)]
    scaled = {m: c / lead for m, c in out.items()}
    den = 1
    for c in scaled.values():
        den = den * c.denominator // gcd(den, c.denominator)
    return {m: int(c * den) for m, c in scaled.items()}


def _packed(terms):
    return {pack_monomial(m): c for m, c in terms.items()}


def test_fraction_free_reduction_matches_rational_reduction():
    rng = random.Random(36)
    nonzero = 0
    for trial in range(200):
        nvars = rng.choice((2, 3))

        def terms(n):
            out = {}
            for _ in range(n):
                m = tuple(rng.randint(0, 3) for _ in range(nvars))
                out[m] = rng.choice((-6, -4, -3, -2, -1, 1, 2, 3, 5, 9))
            return out

        basis = []
        for idx in range(rng.randint(1, 5)):
            t = terms(rng.randint(1, 4))
            basis.append((t, max(map(sum, t)) + rng.randint(0, 2)))
        p_terms = terms(rng.randint(1, 6))
        d_p = max(map(sum, p_terms)) + rng.randint(0, 3)
        elems = [_Elem(_packed(t), d, idx, FIELD_BITS * nvars)
                 for idx, (t, d) in enumerate(basis)]
        unbounded = (MAX_DEGREE + 1) << (FIELD_BITS * nvars)
        got, mult = _hreduce(d_p, _packed(p_terms), elems, unbounded, nvars)
        want = rational_hreduce(d_p, p_terms, basis)
        # the multiplier undoes the fraction-free scaling exactly
        assert {unpack_monomial(m, nvars): Fraction(c, mult)
                for m, c in got.items()} == want, (basis, p_terms)
        # and the completion's primitive remainder is the normalized one
        assert {unpack_monomial(m, nvars): c
                for m, c in _primitive(got).items()} \
            == primitive_tuple_terms(want), (basis, p_terms)
        nonzero += bool(got)
    assert nonzero > 100


def test_normal_form_vanishes_on_explicit_combinations():
    rng = random.Random(32)
    for trial in range(100):
        vars = rng.choice((VARS_X, VARS_TX))
        gens = [random_origin_poly(rng, vars, max_deg=2, n_terms=3)
                for _ in range(rng.randint(2, 3))]
        ideal = LocalIdeal(gens)
        combo = Poly.zero(vars)
        for g in gens:
            combo = combo + random_poly(rng, vars, max_deg=2, n_terms=2) * g
        assert ideal.contains(combo), (gens, combo)


def _zero_dim_ideal(rng, vars):
    """Pure powers of every variable plus random tails; the codimension may
    still come out infinite, so callers check."""
    gens = []
    for v in range(len(vars)):
        power = Poly(vars, {tuple(rng.randint(1, 3) if i == v else 0
                                  for i in range(len(vars))): Fraction(1)})
        gens.append(power + random_origin_poly(rng, vars, max_deg=3, n_terms=2))
    return gens


def test_algebra_names_a_monomial_no_reducer_covers():
    algebra = build_algebra(LocalIdeal([p("x1^2", VARS_X), p("x2^2", VARS_X)]))
    # without the reducer of x1^2, x1^2 is neither standard nor reducible
    algebra._reducers = [r for r in algebra._reducers
                         if r.lm != pack_monomial((2, 0))]
    with pytest.raises(InternalInconsistency, match="neither standard"):
        algebra.coords(p("x1^2 + x2", VARS_X))
    with pytest.raises(InternalInconsistency, match="neither standard"):
        algebra.socle_pairing()


def test_membership_agrees_with_algebra_coordinates():
    # contains() completes I + <q>; coords reduces q in the local algebra
    # of I: q is a member exactly when its class is zero
    rng = random.Random(36)
    verdicts = []
    tried = 0
    while len(verdicts) < 120:
        vars = (VARS_X, VARS_TX)[tried % 2]
        tried += 1
        gens = _zero_dim_ideal(rng, vars)
        ideal = LocalIdeal(gens)
        if ideal.quotient_dim() == INFINITE:
            continue
        algebra = build_algebra(LocalIdeal(gens))
        for _ in range(4):
            q = random_poly(rng, vars, max_deg=3, n_terms=3)
            if rng.random() < 0.5:
                for g in gens:
                    q = q + random_poly(rng, vars, max_deg=2, n_terms=2) * g
            member = ideal.contains(q)
            assert member == (not any(algebra.coords(q))), (gens, q)
            verdicts.append(member)
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_membership_infinite_codimension():
    rng = random.Random(37)
    t = Poly.variable("t", VARS_TX)
    flips = 0
    for _ in range(25):
        g2 = random_origin_poly(rng, VARS_TX, max_deg=2, n_terms=3)
        g3 = random_origin_poly(rng, VARS_TX, max_deg=2, n_terms=3)
        k = rng.randint(1, 3)
        # t^k * g3 = g1 - c*g2 is planted in the ideal
        g1 = t**k * g3 + g2 * rng.choice((-2, -1, 1, 2))
        ideal = LocalIdeal([g1, g2])
        assert ideal.quotient_dim() == INFINITE
        combo = (random_poly(rng, VARS_TX, max_deg=2, n_terms=2) * g1
                 + random_poly(rng, VARS_TX, max_deg=2, n_terms=2) * g2)
        assert ideal.contains(combo), (g1, g2, combo)
        # the scan in compute_xi stops at the first s with t^s * g3 inside
        scan = [ideal.contains(t**s * g3) for s in range(k + 2)]
        assert scan == sorted(scan), (g1, g2, g3, scan)
        assert scan[k]
        flips += not scan[0]
    assert flips >= 15


def _mixed_ideal(rng, k):
    """The k-th of a cycle of ideals in VARS_X and VARS_TX: finite
    codimension for k % 4 < 2, else random generators through the origin,
    made a unit ideal for k % 4 == 3."""
    vars = (VARS_X, VARS_TX)[k % 2]
    if k % 4 < 2:
        return _zero_dim_ideal(rng, vars)
    gens = [random_origin_poly(rng, vars, max_deg=3, n_terms=3)
            for _ in range(rng.randint(1, 3))]
    if k % 4 == 3:
        gens[0] = gens[0] + Poly.constant(rng.choice((-2, -1, 1, 3)), vars)
    return gens


def test_completion_hands_over_its_final_staircase():
    # the cobasis is the staircase of the completion's final walk over its
    # minimal leads; it must be the staircase of the finished lead ideal,
    # and the algebra's truncation degree must be the completion's; the
    # basis is handed over oldest first, the order every reduction uses
    rng = random.Random(38)
    kinds = {"finite": 0, "infinite": 0, "unit": 0}
    for k in range(240):
        gens = _mixed_ideal(rng, k)
        vars = gens[0].vars
        ideal = LocalIdeal(gens)
        reducers = ideal._ensure_core().reducers
        idxs = [r.idx for r in reducers]
        assert idxs == sorted(idxs), gens
        trunc = ideal.truncation_degree
        if ideal.quotient_dim() == INFINITE:
            kinds["infinite"] += 1
            continue
        kinds["unit" if ideal.quotient_dim() == 0 else "finite"] += 1
        leads = [pack_monomial(m) for m in ideal.lead_monomials]
        staircase = _staircase(leads, len(vars), trunc)
        assert ideal._ensure_core().staircase == tuple(staircase), gens
        assert ideal.cobasis() == tuple(sorted(
            (unpack_monomial(m, len(vars)) for m in staircase), key=monomial_sort_key
        )), gens
        top = max((sum(m) for m in ideal.cobasis()), default=-1)
        assert LocalAlgebra(ideal)._n == trunc == 1 + top, gens
        if ideal.quotient_dim():
            # the leads of degree trunc are the monomials of that degree no
            # lower lead divides
            lower = [lm for lm in ideal.lead_monomials if sum(lm) < trunc]
            uncovered = [
                m for m in product(range(trunc + 1), repeat=len(vars))
                if sum(m) == trunc
                and not any(all(a <= b for a, b in zip(lm, m)) for lm in lower)
            ]
            assert sorted(lm for lm in ideal.lead_monomials
                          if sum(lm) == trunc) == uncovered, gens
    assert kinds["finite"] >= 100 and kinds["infinite"] >= 20 and kinds["unit"] >= 40, kinds


def test_basis_kept_as_written_generates_the_ideal():
    # basis elements keep the terms they had when they were added, even
    # those past a truncation degree found later: the basis must still
    # generate the ideal and give the same leads
    rng = random.Random(39)
    kinds = {"finite": 0, "infinite": 0, "unit": 0}
    past_trunc = 0
    for k in range(80):
        gens = _mixed_ideal(rng, k)
        ideal = LocalIdeal(gens)
        basis = ideal.std_basis
        again = LocalIdeal(basis)
        assert sorted(again.lead_monomials) == sorted(ideal.lead_monomials), gens
        assert again.quotient_dim() == ideal.quotient_dim(), gens
        assert all(ideal.contains(e) for e in basis), gens
        assert all(again.contains(g) for g in gens), gens
        dim = ideal.quotient_dim()
        kinds["infinite" if dim == INFINITE else "unit" if dim == 0 else "finite"] += 1
        if dim == INFINITE or dim == 0:
            continue
        trunc = ideal.truncation_degree
        assert all(sum(lm) <= trunc for lm in ideal.lead_monomials), gens
        for e in basis:
            # led below trunc, with a tail term at or past it
            (lead, _), *tail = e.sorted_terms()
            past_trunc += sum(lead) < trunc <= max((sum(m) for m, _ in tail), default=-1)
    assert kinds["finite"] >= 30 and kinds["infinite"] >= 10 and kinds["unit"] >= 10, kinds
    # elements written before the final truncation degree was found
    assert past_trunc >= 5


def test_generator_past_the_truncation_degree_is_dropped():
    # x1^2 and x2^2 give truncation degree 3, and every term of the third
    # generator has degree 4
    ideal = LocalIdeal([p("x1^2", VARS_X), p("x2^2", VARS_X),
                        p("x1^3*x2 + x1^4", VARS_X)])
    assert ideal.quotient_dim() == 4
    assert ideal.truncation_degree == 3
    assert {(3, 1), (4, 0)}.isdisjoint(ideal.lead_monomials)


def test_membership_is_class_invariant():
    rng = random.Random(34)
    for _ in range(20):
        gens = [random_origin_poly(rng, VARS_X, max_deg=3, n_terms=3) for _ in range(2)]
        ideal = LocalIdeal(gens)
        q = random_poly(rng, VARS_X)
        shift = Poly.zero(VARS_X)
        for g in gens:
            shift = shift + random_poly(rng, VARS_X, max_deg=2, n_terms=2) * g
        assert ideal.contains(q) == ideal.contains(q + shift)


def test_quotient_dim_invariances():
    rng = random.Random(35)
    f1, f2, *_ = ex1_data()
    t = Poly.variable("t", VARS_TX)
    gens = [t, f1, f2]
    base = LocalIdeal(gens).quotient_dim()
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert LocalIdeal(shuffled).quotient_dim() == base
    # multiply one generator by a unit 1 + (maximal ideal element)
    unit = p("1") + random_origin_poly(rng, VARS_TX, max_deg=2, n_terms=2)
    scaled = [gens[0], gens[1] * unit, gens[2]]
    assert LocalIdeal(scaled).quotient_dim() == base


def test_locality_witness():
    assert LocalIdeal([p("x - x^2", ("x",))]).quotient_dim() == 1


def test_std_basis_deterministic_and_cached():
    f1, f2, *_ = ex1_data()
    t = Poly.variable("t", VARS_TX)
    a = LocalIdeal([t, f1, f2])
    b = LocalIdeal([t, f1, f2])
    assert a.std_basis == b.std_basis
    assert a._ensure_core() is a._ensure_core()


def test_zero_ideal():
    zero = Poly.zero(VARS_X)
    ideal = LocalIdeal([zero, zero])
    assert ideal.quotient_dim() == INFINITE
    assert ideal.std_basis == () and ideal.truncation_degree is None
    assert ideal.contains(zero)
    assert not ideal.contains(p("x1", VARS_X))
    with pytest.raises(DimensionInfinite):
        ideal.cobasis()
    with pytest.raises(NotAlgebraicallyIsolated):
        germ_degree([zero, p("x2", VARS_X)])


def test_unit_ideal():
    ideal = LocalIdeal([p("1 + x1", VARS_X)])
    assert ideal.quotient_dim() == 0
    assert ideal.cobasis() == ()
    assert ideal.contains(p("x1", VARS_X))
