from fractions import Fraction

import pytest

from cuspcount import standard_basis
from cuspcount.cusp_pipeline import (
    cusp_degree,
    derive,
    euler_extras,
    run,
    solve_sigma,
    verify_hypotheses,
)
from cuspcount.errors import (
    HypothesisFailed,
    InconsistentSystem,
    JNotVanishing,
    OriginNotMapped,
    ParityViolation,
    PipelineError,
)
from cuspcount.exprparse import parse_poly
from cuspcount.polyring import VARS_TX, VARS_X, Poly, jacobian_det, partial

from support import (
    CRAFTED_FAMILIES,
    EX1,
    EX2,
    GENERATED_FAMILIES,
    compose,
    flip_t,
    germ_degree,
    minor,
    pad,
    reference_cusp_triple,
    set_t_zero,
    swap_x,
)


def p(text):
    return parse_poly(text, VARS_TX)


def test_derive_worked_family():
    d = derive(p(EX1[0]), p(EX1[1]))
    assert d.J == p("3*x1^3 + t*x1 - 2*x2^2")
    assert all(g.vars == VARS_TX for g in (*d.f0.generators, *d.d0.generators))
    assert d.f0.generators == (p("t"), d.f1, d.f2)
    assert d.d0.generators == (p("t"), d.d2.generators[1], d.d2.generators[2])
    assert d.d1.generators[0] == p("x1")


@pytest.mark.parametrize("family", [EX1, EX2, *CRAFTED_FAMILIES, *GENERATED_FAMILIES])
def test_derived_jacobians_match_jacobian_det(family):
    # derive builds the four Jacobians from J and one shared set of cofactors
    d = derive(p(family[0]), p(family[1]))
    for germ, jacobian in ((d.f0, d.jac_f0), (d.d0, d.jac_d0),
                           (d.d1, d.jac_d1), (d.d2, d.jac_d2)):
        assert jacobian == jacobian_det(germ.generators)


@pytest.mark.parametrize("family", [EX1, EX2, *CRAFTED_FAMILIES, *GENERATED_FAMILIES])
def test_minors_match_the_leibniz_reference(family, monkeypatch):
    # J, F_i, the generators of I' and those of I'' are first-row expansions
    # over cofactors; each matches its 2x2 Leibniz minor up to sign, in the
    # order d/d(t,x1), d/d(t,x2), d/d(x1,x2) for I''
    f1, f2 = p(family[0]), p(family[1])
    J, F1, F2 = reference_cusp_triple(f1, f2)
    ideals = []

    def recording(ideal):
        ideals.append(ideal.generators)
        return 1

    d = derive(f1, f2)
    monkeypatch.setattr(standard_basis.LocalIdeal, "quotient_dim", recording)
    verify_hypotheses(d)
    expected = [
        [J, F1, F2, minor(F1, J, 1, 2), minor(F2, J, 1, 2)],
        [F1, F2, minor(F1, F2, 0, 1), minor(F1, F2, 0, 2), minor(F1, F2, 1, 2)],
    ]
    i_prime = [gens for gens in ideals if gens[:3] == (d.J, d.F1, d.F2)]
    i_dblprime = [gens for gens in ideals if gens[:2] == (d.F1, d.F2)]
    assert [d.J, d.F1, d.F2] == [J, F1, F2]
    for found, reference in zip((i_prime, i_dblprime), expected):
        assert len(found) == 1 and len(found[0]) == len(reference)
        assert all(g in (r, -r) for g, r in zip(found[0], reference))


def test_derive_rejects_regular_germ():
    with pytest.raises(JNotVanishing):
        derive(p("x1"), p("x2"))


def test_derive_rejects_nonzero_constant():
    with pytest.raises(OriginNotMapped):
        derive(p("x1 + 1"), p("x2"))


def test_derive_rejects_germs_outside_t_x1_x2():
    # a family in (x1, x2) is no input: the parameter t is part of it
    with pytest.raises(ValueError, match="input germs must live in"):
        derive(parse_poly("x1", VARS_X), parse_poly("x2", VARS_X))


def test_verify_hypotheses_worked_family():
    h = verify_hypotheses(derive(p(EX1[0]), p(EX1[1])))
    assert (
        h.dim_t_f1_f2, h.dim_t_F1_F2, h.dim_t_gradJ, h.dim_I_prime,
        h.dim_d1_ideal, h.dim_d2_ideal, h.dim_I_dblprime,
    ) == (5, 7, 2, 8, 1, 3, 8)
    assert h.dim_Q == 5
    assert h.J_vanishes


def test_verify_hypotheses_failure_names_condition():
    # f = (x1^3, x2^3): both <t, F1, F2> and the gradient ideal contain whole
    # coordinate axes; the first failing condition in declared order is named
    with pytest.raises(HypothesisFailed) as e:
        verify_hypotheses(derive(p("x1^3"), p("x2^3")))
    assert e.value.condition == "dim O/<t,F1,F2>"


def test_verify_hypotheses_i_prime_failure():
    # f = (x1^2, x2^2): the cusp locus V(I') is the whole t-axis
    with pytest.raises(HypothesisFailed) as e:
        verify_hypotheses(derive(p("x1^2"), p("x2^2")))
    assert e.value.condition == "dim O/I'"


@pytest.mark.parametrize("family", [EX1, EX2])
def test_no_ideal_is_completed_twice(family, monkeypatch):
    # verify_hypotheses and the degree stage share the completion of each
    # of the germs f0, d0, d1 and d2
    complete = standard_basis._complete
    completed = []

    def recording(gens):
        completed.append(tuple(tuple(sorted(g.items())) for g in gens))
        return complete(gens)

    monkeypatch.setattr(standard_basis, "_complete", recording)
    d = derive(p(family[0]), p(family[1]))
    run(p(family[0]), p(family[1]))
    germs = [tuple(tuple(sorted(g.terms.items())) for g in germ.generators)
             for germ in (d.f0, d.d0, d.d1, d.d2)]
    assert all(germ in completed for germ in germs)
    assert len(completed) == len(set(completed))


def test_cusp_degree_formula():
    assert cusp_degree(-1, 1, -1, +1) == -1
    assert cusp_degree(-1, 1, -1, -1) == -3
    assert cusp_degree(0, 1, 0, +1) == -1
    assert cusp_degree(0, 1, 0, -1) == -1
    assert cusp_degree(0, 0, 0, +1) == 0
    with pytest.raises(ValueError):
        cusp_degree(0, 0, 0, 0)


def test_solve_sigma_examples():
    assert solve_sigma(4, 2, -1, 1, -1) == (0, 1, 0, 3)
    assert solve_sigma(2, 2, 0, 1, 0) == (0, 1, 0, 1)
    assert solve_sigma(0, 0, 0, 0, 0) == (0, 0, 0, 0)


def test_solve_sigma_rejects_inconsistent_systems():
    with pytest.raises(InconsistentSystem):
        solve_sigma(2, 3, 0, 1, 0)  # odd b0'
    with pytest.raises(InconsistentSystem):
        solve_sigma(1, 4, 0, 1, 0)  # b0'/2 > b0
    with pytest.raises(InconsistentSystem):
        solve_sigma(2, 2, -3, 1, 0)  # |difference| exceeds total
    with pytest.raises(InconsistentSystem):
        solve_sigma(3, 2, 0, 0, 1)  # parity mismatch on the t < 0 side


def test_euler_extras_examples():
    assert euler_extras(0, 1, -1, +1) == (1, 2)
    assert euler_extras(0, 1, -1, -1) == (0, 2)
    assert euler_extras(1, 1, 0, +1) == (0, 0)
    assert euler_extras(0, 0, 0, +1) == (1, 2)
    with pytest.raises(ParityViolation):
        euler_extras(0, 1, 0, +1)
    # deg(d0) = 2 leaves 2*(1 - deg d0) = -2 points on a circle
    with pytest.raises(ParityViolation, match="negative level-set count"):
        euler_extras(2, 0, 0, +1)
    with pytest.raises(ValueError, match="t_sign"):
        euler_extras(0, 0, 0, 0)


def test_run_worked_family_full_report():
    r = run(p(EX1[0]), p(EX1[1]))
    assert r.sigma == (0, 1, 0, 3)
    assert (r.cusp_deg_pos_t, r.cusp_deg_neg_t) == (-1, -3)
    assert (r.b0, r.b0_prime) == (4, 2)
    assert (r.chi_M_pos_t, r.chi_M_neg_t, r.L0_count) == (1, 0, 2)
    assert r.fold_boundary_crit_count == r.L0_count
    assert r.parity_ok
    assert r.identity_combination


def test_run_wraps_stage_errors():
    with pytest.raises(PipelineError) as e:
        run(p("x1"), p("x2"))
    assert e.value.stage == "derive"
    assert isinstance(e.value.cause, JNotVanishing)


@pytest.mark.parametrize("f1,f2", CRAFTED_FAMILIES)
def test_run_crafted_families_consistency(f1, f2):
    r = run(p(f1), p(f2))
    # branch accounting
    assert r.b0 == sum(r.sigma)
    # the sigma differences are the cusp degrees
    assert r.sigma[0] - r.sigma[1] == r.cusp_deg_pos_t
    assert r.sigma[2] - r.sigma[3] == r.cusp_deg_neg_t
    # parity against dim Q
    assert r.parity_ok
    assert all(s >= 0 for s in r.sigma)
    assert r.b0_prime % 2 == 0


def test_t_reversal_swaps_sigma():
    base = run(p(EX1[0]), p(EX1[1]))
    flipped = run(p("x1^3 + x2^2 - t*x1"), p("x1*x2"))
    assert flipped.sigma == (base.sigma[2], base.sigma[3],
                             base.sigma[0], base.sigma[1])


@pytest.mark.parametrize("family", [EX1, *CRAFTED_FAMILIES, *GENERATED_FAMILIES])
def test_degree_identities_under_coordinate_changes(family):
    f1, f2 = p(family[0]), p(family[1])
    base = run(f1, f2)
    s = base.sigma
    # swapping x1 and x2 reverses the source's orientation, swapping f1 and
    # f2 the target's: either alone exchanges the degree +1 and -1 counts
    exchanged = (s[1], s[0], s[3], s[2])
    assert run(swap_x(f1), swap_x(f2)).sigma == exchanged
    assert run(f2, f1).sigma == exchanged
    assert run(swap_x(f2), swap_x(f1)).sigma == s
    # t -> -t exchanges the t > 0 and t < 0 halves
    flipped = run(flip_t(f1), flip_t(f2))
    assert flipped.sigma == (s[2], s[3], s[0], s[1])
    # b0' is twice the number of half-branches in t > 0, so with t -> -t it
    # is twice the number in t < 0, and the two halves make up b0
    assert base.b0_prime // 2 + flipped.b0_prime // 2 == base.b0


@pytest.mark.parametrize("family", [EX1, EX2, *CRAFTED_FAMILIES, *GENERATED_FAMILIES])
def test_t_zero_germs_match_their_restrictions(family):
    # (t, g) has the preimages of (0, eta) that g(0, .) has, with the same
    # Jacobian signs, and O/<t, g> is the local algebra of g(0, .); the
    # reference is the germ (t, g(0, .)), free of t past its first component
    d = derive(p(family[0]), p(family[1]))
    h = verify_hypotheses(d)
    grad_x = (partial(d.J, 1), partial(d.J, 2))
    for germ, g, dim in ((d.f0, (d.f1, d.f2), h.dim_t_f1_f2),
                         (d.d0, grad_x, h.dim_t_gradJ)):
        cert = germ_degree(germ.generators)
        reference = germ_degree(pad([set_t_zero(c) for c in g]))
        assert cert.degree == reference.degree
        assert cert.algebra_dim == reference.algebra_dim == dim


@pytest.mark.parametrize("family", [EX1, *CRAFTED_FAMILIES, *GENERATED_FAMILIES])
def test_sigma_invariant_under_orientation_preserving_changes(family):
    f1, f2 = p(family[0]), p(family[1])
    s = run(f1, f2).sigma
    t, x1, x2 = (Poly.variable(v, VARS_TX) for v in VARS_TX)
    # t -> c*t with c > 0 keeps each sign of t; x -> A*x with det A = +1
    # keeps the source's orientation, so every cusp keeps its degree
    changes = [
        (2 * t, x1, x2),
        (t * Fraction(1, 3), x1, x2),
        (t, x1 + x2, x2),
        (t, 2 * x1 + x2, x1 + x2),
        (t, x2, -x1),
    ]
    for images in changes:
        assert run(compose(f1, images), compose(f2, images)).sigma == s, images


def test_symmetric_family_has_equal_sides():
    # f_t(x) = f_{-t}(-x) for this family, so both parameter signs agree
    r = run(p("x1"), p("x2^3 - x1^2*x2 + t^2*x2"))
    assert (r.sigma[0], r.sigma[1]) == (r.sigma[2], r.sigma[3])


@pytest.mark.parametrize("family", [EX1, CRAFTED_FAMILIES[3], CRAFTED_FAMILIES[4]])
def test_negative_side_branch_cross_check(family):
    from cuspcount.branch_counter import count_branches_positive_t
    from cuspcount.cusp_pipeline import derive as _derive

    d = _derive(p(family[0]), p(family[1]))
    r = run(p(family[0]), p(family[1]))
    # t -> -t leaves xi unchanged
    neg = count_branches_positive_t(
        flip_t(d.F1), flip_t(d.F2), flip_t(d.J), r.branch.xi
    )
    assert neg.b0 % 2 == 0
    assert neg.b0 // 2 == r.b0 - r.b0_prime // 2


def test_determinism():
    a = run(p(EX1[0]), p(EX1[1]), seed=5)
    b = run(p(EX1[0]), p(EX1[1]), seed=5)
    assert a == b
