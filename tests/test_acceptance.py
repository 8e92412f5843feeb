"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import contextlib
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cuspcount.branch_counter import (
    COMBINATION_MATRIX,
    build_H,
    choose_combination,
    count_branches,
)
from cuspcount.elk_degree import local_degree, signature
from cuspcount.errors import DimensionInfinite
from cuspcount.exprparse import parse_poly
from cuspcount.cusp_pipeline import derive, run
from cuspcount.polyring import Poly, VARS_TX, VARS_X
from cuspcount.standard_basis import LocalIdeal

from oracle import (
    germ_is_oracle_friendly,
    preimage_degree,
    solve_square_system,
    winding_degree,
)
from support import (
    CRAFTED_FAMILIES,
    EX1,
    EX2,
    brute_staircase_count,
    congruent,
    germ_degree,
    lift,
    pad,
    pad_monomials,
    random_combination,
    random_invertible,
    random_origin_poly,
    random_poly,
    random_symmetric,
)

_CACHE: dict = {}


@contextlib.contextmanager
def criterion(num, desc):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {desc} [{time.time()-start:.1f}s]",
              flush=True)
        raise
    print(f"\nACCEPTANCE {num}: PASS - {desc} [{time.time()-start:.1f}s]",
          flush=True)


def _family_report(key):
    if key not in _CACHE:
        f1, f2 = {"ex1": EX1, "ex2": EX2}.get(key, key)
        _CACHE[key] = run(parse_poly(f1), parse_poly(f2))
    return _CACHE[key]


def test_criterion_1_example_regression_cubic():
    with criterion(1, "cubic family regression, exact, < 60 s"):
        start = time.time()
        r = run(parse_poly(EX1[0]), parse_poly(EX1[1]))
        elapsed = time.time() - start
        _CACHE["ex1"] = r
        h = r.hypotheses
        assert (h.dim_t_f1_f2, h.dim_t_F1_F2, h.dim_t_gradJ) == (5, 7, 2)
        assert (h.dim_I_prime, h.dim_d1_ideal, h.dim_d2_ideal) == (8, 1, 3)
        assert h.dim_I_dblprime == 8
        assert (r.deg_f0, r.deg_d1, r.deg_d2) == (-1, 1, -1)
        assert (r.branch.xi, r.branch.k) == (2, 4)
        assert (r.branch.deg_H_plus, r.branch.deg_H_minus) == (2, -2)
        assert r.b0 == 4
        assert (r.branch_positive_t.deg_H_plus,
                r.branch_positive_t.deg_H_minus) == (1, -1)
        assert r.b0_prime == 2
        assert (r.cusp_deg_pos_t, r.cusp_deg_neg_t) == (-1, -3)
        assert r.sigma == (0, 1, 0, 3)
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_example_regression_quartic():
    with criterion(2, "quartic family regression, exact, < 5 min"):
        start = time.time()
        r = run(parse_poly(EX2[0]), parse_poly(EX2[1]))
        elapsed = time.time() - start
        _CACHE["ex2"] = r
        h = r.hypotheses
        assert (h.dim_t_f1_f2, h.dim_t_F1_F2, h.dim_t_gradJ) == (8, 24, 9)
        assert (h.dim_I_prime, h.dim_d1_ideal, h.dim_d2_ideal) == (33, 3, 12)
        assert h.dim_I_dblprime == 45
        assert (r.deg_f0, r.deg_d1, r.deg_d2) == (0, 1, 0)
        assert (r.branch.xi, r.branch.k) == (2, 4)
        assert (r.branch.deg_H_plus, r.branch.deg_H_minus) == (0, -2)
        assert r.b0 == 2
        assert (r.cusp_deg_pos_t, r.cusp_deg_neg_t) == (-1, -1)
        assert r.sigma == (0, 1, 0, 1)
        # computed directly, agreeing with the parameter-reversal symmetry
        assert r.b0_prime == 2
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def _collect_oracle_germs(n_two, n_three):
    rng = random.Random(101)
    np_rng = np.random.default_rng(102)
    collected = []
    attempts = 0
    want = [(VARS_X, n_two), (VARS_TX, n_three)]
    for vars, quota in want:
        got = 0
        while got < quota:
            attempts += 1
            assert attempts < 4000, "germ generation budget exhausted"
            comps = [
                random_origin_poly(rng, vars, max_deg=3, n_terms=4, coeff_range=2)
                for _ in range(len(vars))
            ]
            try:
                # a planar germ g is certified as the germ (t, g1, g2)
                cert = germ_degree(comps if vars == VARS_TX else pad(comps))
            except DimensionInfinite:
                continue
            if cert.algebra_dim > 5:
                continue
            if not germ_is_oracle_friendly(comps):
                continue
            measured = None
            for retry in range(6):
                norm = 1e-3 / (10 ** (retry // 2))
                direction = np_rng.normal(size=len(vars))
                v = norm * direction / np.linalg.norm(direction)
                count, deg, clear = preimage_degree(
                    comps, v, local_radius=0.4, seed=retry
                )
                if (clear and count <= cert.algebra_dim
                        and (count - cert.algebra_dim) % 2 == 0):
                    measured = deg
                    break
            if measured is None:
                continue
            collected.append((comps, cert.degree, measured))
            got += 1
    return collected


def test_criterion_3_elk_vs_numeric_oracle():
    with criterion(3, ">= 50 random germs: ELK degree == preimage oracle"):
        germs = _collect_oracle_germs(n_two=30, n_three=25)
        assert len(germs) >= 50
        mismatches = [
            (c, exact, got) for c, exact, got in germs if exact != got
        ]
        assert not mismatches, mismatches


def test_criterion_4_signature_suite():
    with criterion(4, "inertia invariance, diagonal counts, nondegenerate certificates"):
        rng = random.Random(103)
        bases = [
            [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(-3)]],
            [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]],
            random_symmetric(rng, 3),
            random_symmetric(rng, 4),
        ]
        for m in bases:
            base = signature(m)
            for _ in range(100):
                a = random_invertible(rng, len(m))
                assert signature(congruent(m, a)) == base
        for _ in range(30):
            n = rng.randint(1, 6)
            d = [rng.randint(-5, 5) for _ in range(n)]
            m = [[Fraction(d[i] if i == j else 0) for j in range(n)]
                 for i in range(n)]
            assert signature(m) == (
                sum(1 for x in d if x > 0),
                sum(1 for x in d if x < 0),
                sum(1 for x in d if x == 0),
            )
        # every certificate's residue form is nondegenerate
        produced = 0
        while produced < 15:
            comps = [random_origin_poly(rng, VARS_X, max_deg=3, n_terms=4)
                     for _ in range(2)]
            try:
                cert = germ_degree(pad(comps))
            except DimensionInfinite:
                continue
            pos, neg = cert.signature_split
            assert pos + neg == cert.algebra_dim
            produced += 1


def test_criterion_5_standard_basis_suite():
    with criterion(5, "staircase counts, locality witness, membership of combinations"):
        rng = random.Random(104)
        for _ in range(100):
            nvars = rng.choice((1, 2, 3))
            monos = []
            for v in range(nvars):
                e = rng.randint(1, 5)
                monos.append(tuple(e if i == v else 0 for i in range(nvars)))
            for _ in range(rng.randint(0, 4)):
                monos.append(tuple(rng.randint(0, 4) for _ in range(nvars)))
            monos = [m for m in monos if sum(m) > 0]
            # in (t, x1, x2), which the missing variables join
            gens = [Poly(VARS_TX, {m: Fraction(1)})
                    for m in pad_monomials(monos, nvars)]
            want = brute_staircase_count(monos, nvars)
            assert LocalIdeal(gens).quotient_dim() == want

        assert LocalIdeal(pad([parse_poly("x - x^2", ("x",))])).quotient_dim() == 1

        for _ in range(100):
            vars = rng.choice((VARS_X, VARS_TX))
            gens = [random_origin_poly(rng, vars, max_deg=2, n_terms=3)
                    for _ in range(rng.randint(2, 3))]
            combo = Poly.zero(vars)
            for g in gens:
                combo = combo + random_poly(rng, vars, max_deg=2, n_terms=2) * g
            if vars == VARS_X:
                gens, combo = pad(gens), lift(combo)
            assert LocalIdeal(gens).contains(combo)


def _negate_vars(p, flip_x):
    out = {}
    for mono, c in p.sorted_terms():
        parity = mono[0] + (mono[1] + mono[2] if flip_x else 0)
        out[mono] = -c if parity % 2 else c
    return Poly(VARS_TX, out)


def test_criterion_6_pipeline_property_suite():
    with criterion(6, "pipeline invariants on both worked families plus crafted ones"):
        keys = ["ex1", "ex2"] + list(CRAFTED_FAMILIES)
        for key in keys:
            r = _family_report(key)
            assert r.b0 == sum(r.sigma)
            assert r.sigma[0] - r.sigma[1] == r.cusp_deg_pos_t
            assert r.sigma[2] - r.sigma[3] == r.cusp_deg_neg_t
            dim_q = r.hypotheses.dim_Q
            assert r.sigma[0] + r.sigma[1] <= dim_q
            assert (r.sigma[0] + r.sigma[1]) % 2 == dim_q % 2
            assert r.sigma[2] + r.sigma[3] <= dim_q
            assert (r.sigma[2] + r.sigma[3]) % 2 == dim_q % 2

            # parameter-reversal symmetry, when syntactically present,
            # forces equal counts on both parameter signs
            texts = {"ex1": EX1, "ex2": EX2}.get(key, key)
            f1, f2 = parse_poly(texts[0]), parse_poly(texts[1])
            symmetric = any(
                _negate_vars(f1, flip) == f1 and _negate_vars(f2, flip) == f2
                for flip in (False, True)
            )
            if symmetric:
                assert (r.sigma[0], r.sigma[1]) == (r.sigma[2], r.sigma[3]), key

            d = derive(f1, f2)
            g = choose_combination(d.J, d.F1, d.F2)
            # b0 invariance under k -> k + 2
            deg_plus, deg_minus = (
                local_degree(LocalIdeal(germ), jacobian).degree
                for germ, jacobian in build_H(*g, r.branch.k + 2)
            )
            assert deg_plus - deg_minus == r.b0, key
            # b0 invariance under a second verified combination matrix
            rows, other = random_combination(d.J, d.F1, d.F2, seed=4)
            assert rows != COMBINATION_MATRIX
            assert count_branches(*other).b0 == r.b0, key


def _fix_t(p, t_value):
    out = {}
    for mono, coeff in p.sorted_terms():
        c = coeff * t_value ** mono[0]
        key = mono[1:]
        out[key] = out.get(key, Fraction(0)) + c
    return Poly(VARS_X, out)


def test_criterion_7_numeric_end_to_end():
    with criterion(7, "cubic family at t = ±1/100: solved cusps match sigma"):
        r = _family_report("ex1")
        d = derive(parse_poly(EX1[0]), parse_poly(EX1[1]))
        for t_val, expect_plus, expect_minus in (
            (Fraction(1, 100), r.sigma[0], r.sigma[1]),
            (Fraction(-1, 100), r.sigma[2], r.sigma[3]),
        ):
            jt = _fix_t(d.J, t_val)
            f1t = _fix_t(d.f1, t_val)
            f2t = _fix_t(d.f2, t_val)
            others = [_fix_t(d.F1, t_val), _fix_t(d.F2, t_val)]
            sols = solve_square_system(
                [jt, _fix_t(d.F1, t_val)], np.zeros(2), box_radius=0.45,
                seed=9, n_starts=4000,
            )
            from oracle import germ_evaluator, poly_evaluator

            f2_ev = poly_evaluator(others[1])
            cusps = [s for s in sols if abs(f2_ev(s[None, :])[0]) < 1e-8]
            ft_ev = germ_evaluator([f1t, f2t])
            degrees = []
            for c in cusps:
                target = ft_ev(c[None, :])[0]
                w1 = winding_degree([f1t, f2t], c, 1e-4, target=target)
                w2 = winding_degree([f1t, f2t], c, 2e-4, target=target)
                assert w1 == w2
                degrees.append(w1)
            assert len(cusps) == expect_plus + expect_minus, (t_val, cusps)
            assert sum(1 for g in degrees if g == 1) == expect_plus
            assert sum(1 for g in degrees if g == -1) == expect_minus
