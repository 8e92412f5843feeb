import os
import subprocess
import sys
from pathlib import Path

import pytest

from cuspcount import branch_counter, standard_basis
from cuspcount.branch_counter import (
    COMBINATION_MATRIX,
    build_H,
    choose_combination,
    compute_xi,
    count_branches,
    count_branches_positive_t,
    curve_criterion_ideal,
)
from cuspcount.cusp_pipeline import derive, run
from cuspcount.elk_degree import DegreeCertificate, local_degree
from cuspcount.errors import NegativeBranchCount, OddBPrime, XiSearchExceededBound
from cuspcount.exprparse import parse_poly
from cuspcount.polyring import (
    Poly,
    VARS_TX,
    jacobian_det,
    substitute_t_squared,
)
from cuspcount.standard_basis import INFINITE, LocalIdeal

from support import (
    CRAFTED_FAMILIES,
    EX1,
    EX2,
    GENERATED_FAMILIES,
    J2_STALLS,
    flip_t,
    random_combination,
    reference_cusp_triple,
    reference_xi,
)

# generated families with odd xi: perfbench.workloads.screen_families(1)[18]
# (xi 3), screen_families(2)[78] (xi 1) and screen_families(2)[82] (xi 7)
ODD_XI_FAMILIES = [
    ("3*t^2 - 3*t*x2 - 2*x1*x2 + 3*x2^3", "x1^2 + 2*t^2*x2"),
    ("-2*x1^2 - t*x2 - 2*x2^3", "-2*x1 + 3*x1*x2 - 3*x2^3"),
    ("-2*x2^2 + 2*t*x1*x2", "4*x1^2 - 2*t^2*x2 + 2*t*x2^2"),
]


def p(text):
    return parse_poly(text, VARS_TX)


def cusp_triple(family):
    """(J, F1, F2) of the family f = (f1, f2)."""
    return reference_cusp_triple(p(family[0]), p(family[1]))


def ex1_triple():
    return cusp_triple(EX1)


def counted_triple(family):
    """The triple (F1, F2, J) that the branch count runs on, or the t-axis
    (x1, x2, x1) for family None."""
    if family is None:
        return p("x1"), p("x2"), p("x1")
    J, F1, F2 = cusp_triple(family)
    return F1, F2, J


def test_build_H_direct_expansion():
    (h_plus, _), (h_minus, _) = build_H(p("x1"), p("x2"), p("t^2"), 4)
    assert h_plus == (p("2*t + 4*t^3"), p("x1"), p("x2"))
    assert h_minus == (p("2*t - 4*t^3"), p("x1"), p("x2"))


def test_build_H_sign_flip_is_linear_in_first_row():
    g1, g2, g3 = p("x1 + t^2"), p("x2 - t^3"), p("t*x1 + x2^2")
    (hp, _), (hm, _) = build_H(g1, g2, g3, 4)
    t = Poly.variable("t", VARS_TX)
    assert hp[0] - hm[0] == jacobian_det([t**4, g1, g2]) * 2


def test_build_H_validates_k():
    for k in (3, 0, -2):
        with pytest.raises(ValueError):
            build_H(p("x1"), p("x2"), p("t"), k)


@pytest.mark.parametrize(
    "family", [EX1, EX2, *CRAFTED_FAMILIES, *GENERATED_FAMILIES]
)
def test_shared_cofactor_expansion_matches_jacobian_det(family, monkeypatch):
    # both stages of run() build H+ and H- from one cofactor expansion of
    # d(., g1, g2)/d(t, x1, x2); each germ and its Jacobian must equal the
    # direct expansions
    built = []

    def recording(g1, g2, g3, k):
        h = build_H(g1, g2, g3, k)
        built.append(((g1, g2, g3, k), h))
        return h

    monkeypatch.setattr(branch_counter, "build_H", recording)
    run(p(family[0]), p(family[1]))
    assert len(built) == 2
    (plain, _), (substituted, _) = built
    assert substituted[:3] == tuple(map(substitute_t_squared, plain[:3]))
    t = Poly.variable("t", VARS_TX)
    for (g1, g2, g3, k), h in built:
        for sign, (germ, jacobian) in zip((1, -1), h):
            assert germ == (jacobian_det([g3 + t**k * sign, g1, g2]), g1, g2)
            assert jacobian == jacobian_det(germ)


def test_xi_zero_when_g3_already_in_ideal():
    assert compute_xi(p("x1"), p("x2"), p("x1")) == 0


def test_xi_worked_family():
    J, F1, F2 = ex1_triple()
    assert compute_xi(F1, F2, J) == 2


@pytest.mark.parametrize(
    "family",
    [EX1, EX2, *CRAFTED_FAMILIES,
     *(f for f in GENERATED_FAMILIES if f not in J2_STALLS)],
)
def test_xi_probe_decides_membership_in_j2(family):
    # compute_xi's probe s asks t^s * g3 in <g1, g2, g3^2, t^(s+1) * g3>;
    # by Nakayama that is t^s * g3 in J2 = <g1, g2, g3^2>, which the
    # reference decides over the completion of J2 itself
    g1, g2, g3 = counted_triple(family)
    xi = reference_xi(g1, g2, g3)
    assert compute_xi(g1, g2, g3) == xi
    j2 = LocalIdeal([g1, g2, g3 * g3])
    t = Poly.variable("t", VARS_TX)
    for s in range(xi + 2):
        probe = LocalIdeal([g1, g2, g3 * g3, t ** (s + 1) * g3])
        assert probe.contains(t**s * g3) == j2.contains(t**s * g3) == (s >= xi)


@pytest.mark.parametrize("family", [EX1, EX2, *CRAFTED_FAMILIES])
def test_j2_is_never_completed(family, monkeypatch):
    # <g1, g2, g3^2> has no truncation bound, and its completion once
    # stalled the analysis; neither it nor its t -> t^2 substitute is
    # completed by run()
    complete = standard_basis._complete
    completed = set()

    def recording(gens):
        completed.add(tuple(tuple(sorted(g.items())) for g in gens))
        return complete(gens)

    monkeypatch.setattr(standard_basis, "_complete", recording)
    d = derive(p(family[0]), p(family[1]))
    run(p(family[0]), p(family[1]))
    g = (d.F1, d.F2, d.J)
    for g1, g2, g3 in (g, tuple(map(substitute_t_squared, g))):
        j2 = tuple(tuple(sorted(h.terms.items())) for h in (g1, g2, g3 * g3))
        assert j2 not in completed


# compute_xi of a screen family, in a child process that a regression
# cannot hang: the argument is the family (f1, f2)
XI_IN_CHILD = """
import sys
from cuspcount.branch_counter import compute_xi
from cuspcount.cusp_pipeline import derive
from cuspcount.exprparse import parse_poly
from cuspcount.polyring import VARS_TX
d = derive(*(parse_poly(f, VARS_TX) for f in sys.argv[1:3]))
print(compute_xi(d.F1, d.F2, d.J))
"""


@pytest.mark.parametrize("family, xi", [
    # perfbench.workloads.screen_families(1)[82]: over 20 s against J2
    (("-2*x2 - 2*t*x2 + x1^3 + 2*t*x2^2",
      "3*x2 - 2*t^3 + 2*t^2*x1 - 3*x1*x2^2"), 2),
    # screen_families(4)[10]: over 5 s against J2
    (("-3*x2 - 2*x1^2 - t^2*x1 + t^2*x2",
      "-2*x1*x2 - 3*t^2*x1 + 2*t*x1^2 - 3*x2^3"), 0),
])
def test_xi_of_families_that_stalled_against_j2(family, xi):
    src = Path(branch_counter.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    try:
        done = subprocess.run(
            [sys.executable, "-c", XI_IN_CHILD, *family],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"compute_xi ran past 30 s on {family}")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(xi)


def test_xi_cap_error():
    # t^s*x1*x2 never lies in <x1^2, x2^2, (x1*x2)^2>
    with pytest.raises(XiSearchExceededBound):
        compute_xi(p("x1^2"), p("x2^2"), p("x1*x2"), cap=6)


def test_branches_of_a_smooth_line():
    # V(x1, x2, x1) is the t-axis: two half-branches
    count = count_branches(p("x1"), p("x2"), p("x1"))
    assert count.xi == 0
    assert count.k == 2
    assert (count.deg_H_plus, count.deg_H_minus) == (1, -1)
    assert count.b0 == 2
    positive = count_branches_positive_t(p("x1"), p("x2"), p("x1"), count.xi)
    assert positive.b0 == 2  # one branch in t > 0


@pytest.mark.parametrize(
    "family", [EX1, EX2, *CRAFTED_FAMILIES, None, *ODD_XI_FAMILIES]
)
def test_substituted_xi_is_twice_xi(family):
    # the substituted search is the reference for the identity xi' = 2*xi
    # that count_branches_positive_t relies on: t^s * g3' lies in
    # <g1', g2', g3'^2> exactly when s // 2 >= xi
    g = counted_triple(family)
    xi = compute_xi(*g)
    sub = tuple(map(substitute_t_squared, g))
    assert compute_xi(*sub) == 2 * xi
    ideal = LocalIdeal([sub[0], sub[1], sub[2] * sub[2]])
    t = Poly.variable("t", VARS_TX)
    assert [ideal.contains(t**s * sub[2]) for s in range(2 * xi + 2)] == [
        s // 2 >= xi for s in range(2 * xi + 2)
    ]
    assert compute_xi(*map(flip_t, g)) == xi


@pytest.mark.parametrize("family", [EX1, *CRAFTED_FAMILIES, None])
def test_positive_t_count_uses_the_substituted_xi(family):
    g = counted_triple(family)
    reference = compute_xi(*map(substitute_t_squared, g))
    assert count_branches_positive_t(*g, compute_xi(*g)).xi == reference


def test_branches_empty_when_g3_cuts_transversally():
    # g3 = t vanishes nowhere on V(x1, x2) except the origin itself, so
    # V(g1, g2, g3) = {0} has no half-branches
    count = count_branches(p("x1"), p("x2"), p("t"))
    assert count.b0 == 0


def test_branches_worked_family():
    J, F1, F2 = ex1_triple()
    count = count_branches(F1, F2, J)
    assert (count.xi, count.k) == (2, 4)
    assert (count.deg_H_plus, count.deg_H_minus) == (2, -2)
    assert count.b0 == 4
    positive = count_branches_positive_t(F1, F2, J, count.xi)
    assert (positive.deg_H_plus, positive.deg_H_minus) == (1, -1)
    assert positive.b0 == 2


def test_branches_negative_side_via_substitution():
    J, F1, F2 = ex1_triple()
    # t -> -t leaves xi unchanged
    negative = count_branches_positive_t(
        flip_t(F1), flip_t(F2), flip_t(J), compute_xi(F1, F2, J)
    )
    assert negative.b0 == 6  # three half-branch pairs at t < 0


def test_negative_branch_count_is_an_internal_error(monkeypatch):
    # b0 = deg(H+) - deg(H-) counts half-branches: with H+ and H- swapped,
    # the t-axis's b0 = 2 reads -2, which only a bug can produce
    def swapped(*args):
        plus, minus = build_H(*args)
        return minus, plus

    monkeypatch.setattr(branch_counter, "build_H", swapped)
    with pytest.raises(NegativeBranchCount, match=r"deg\(H\+\) = -1 < deg\(H-\) = 1"):
        count_branches(*counted_triple(None))


def test_odd_substituted_count_is_an_internal_error(monkeypatch):
    # the t -> t^2 system is symmetric under t -> -t, so its b0 is even
    degrees = iter([1, 0])
    monkeypatch.setattr(
        branch_counter, "local_degree",
        lambda ideal, jacobian: DegreeCertificate(next(degrees), 1, (), (1, 0)),
    )
    with pytest.raises(OddBPrime, match="odd b0 = 1"):
        count_branches_positive_t(*counted_triple(None), 0)


def test_k_stability():
    J, F1, F2 = ex1_triple()
    base = count_branches(F1, F2, J)
    again = [local_degree(LocalIdeal(germ), jacobian).degree
             for germ, jacobian in build_H(F1, F2, J, base.k + 2)]
    assert again[0] - again[1] == base.b0


def test_choose_combination_identity_path():
    J, F1, F2 = ex1_triple()
    g = choose_combination(J, F1, F2)
    assert g == (F1, F2, J)
    # the report's matrix is the permutation's: g_s = sum_j M[s][j] * w_j
    ws = (J, F1, F2)
    for row, gs in zip(COMBINATION_MATRIX, g):
        assert gs == sum((w * c for w, c in zip(ws, row)), Poly.zero(VARS_TX))


def test_choose_combination_random_path_is_verified_and_stable():
    J, F1, F2 = ex1_triple()
    rows, g = random_combination(J, F1, F2, seed=7)
    g1, g2, g3 = g
    assert curve_criterion_ideal(g1, g2).quotient_dim() != INFINITE
    t = Poly.variable("t", VARS_TX)
    assert LocalIdeal([t, g1, g2]).quotient_dim() != INFINITE
    ws = (J, F1, F2)
    for row, gs in zip(rows, g):
        assert gs == sum((w * c for w, c in zip(ws, row)), Poly.zero(VARS_TX))
    # same seed, same combination
    assert random_combination(J, F1, F2, seed=7) == (rows, g)


def test_matrix_choice_stability_of_b0():
    J, F1, F2 = ex1_triple()
    base = count_branches(F1, F2, J)
    _, g = random_combination(J, F1, F2, seed=11)
    other = count_branches(*g)
    assert other.b0 == base.b0
    other_pos = count_branches_positive_t(*g, other.xi)
    assert other_pos.b0 == 2

