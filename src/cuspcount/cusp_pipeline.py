"""End-to-end analysis of a one-parameter family of plane-to-plane germs.

Given f = (f1, f2) in variables (t, x1, x2) with f(0) = 0, the pipeline

  1. derives J = d(f1,f2)/d(x1,x2), F_i = d(f_i,J)/d(x1,x2) and the germs
     f0 = (t, f1, f2), d0 = (t, J_x1, J_x2), d1 = (J_t, J_x1, J_x2) and
     d2 = (J, J_x1, J_x2); (t, g) has the local degree of g(0, .).  Every
     Jacobian and minor is a first-row expansion over cofactors: J is
     jacobian_det([f1, f2, t]), and F_i expands f_i along those of (J, t);
  2. certifies every required finiteness hypothesis by quotient dimensions
     (algebraic isolation: finite codimension of the complexified zero);
  3. computes the local degrees of f0, d0, d1, d2;
  4. evaluates cusp deg(f_t) = deg(f0) - deg(d1) - sign(t)*deg(d2);
  5. counts half-branches of the cusp curve V(J, F1, F2) on the permutation
     (F1, F2, J), whose two conditions step 2 certifies as dim O/I'' and
     dim O/<t,F1,F2>: the total b0 and, through the t -> t^2 substitution,
     the number with t > 0.  xi is searched once: the substituted
     system's xi is 2*xi;
  6. solves the two 2x2 integer systems for the four cusp counts
     (positive/negative local degree, for either sign of t);
  7. reports Euler-characteristic extras and runs the parity cross-check
     #Sigma_t <= dim Q, #Sigma_t = dim Q (mod 2).

All arithmetic is exact; any non-integrality or negativity in the final
solve signals an upstream problem and raises instead of being clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branch_counter import (
    COMBINATION_MATRIX,
    BranchCount,
    choose_combination,
    count_branches,
    count_branches_positive_t,
    curve_criterion_ideal,
    DEFAULT_XI_CAP,
)
from .elk_degree import local_degree
from .errors import (
    HypothesisFailed,
    InconsistentSystem,
    JNotVanishing,
    OriginNotMapped,
    ParityViolation,
    PipelineError,
)
from .polyring import (
    Poly,
    VARS_TX,
    expand_first_row,
    jacobian_cofactors,
    jacobian_det,
    partial,
)
from .standard_basis import INFINITE, LocalIdeal


@dataclass(frozen=True)
class DerivedGerms:
    """Everything derived from the input family before degree computations.

    The germs f0, d0, d1 and d2 are the ideals of their component
    polynomials, all in (t, x1, x2), with the components as generators in
    order; f0 and d0 stand for f and grad_x J at t = 0.  Each completes
    once: verify_hypotheses reads its dimension and the degree stage its
    algebra from the same completion.  jac_f0, ..., jac_d2 are their
    Jacobian determinants.

    J_cofactors, the cofactors of (J, t), are built once: expanding p along
    them gives d(p, J)/d(x1, x2).  So F_i is f_i expanded along them, and
    verify_hypotheses expands F_i along them for the two further generators
    of I'.
    """

    f1: Poly
    f2: Poly
    J: Poly
    F1: Poly
    F2: Poly
    J_cofactors: tuple[Poly, Poly, Poly]
    f0: LocalIdeal
    d0: LocalIdeal
    d1: LocalIdeal
    d2: LocalIdeal
    jac_f0: Poly
    jac_d0: Poly
    jac_d1: Poly
    jac_d2: Poly


@dataclass(frozen=True)
class HypothesisReport:
    """Quotient dimensions backing every finiteness hypothesis.

    Values are non-negative integers; a run only proceeds past verification
    when all of them are finite and the Jacobian vanishes at the origin.
    """

    dim_t_f1_f2: int
    dim_t_F1_F2: int
    dim_t_gradJ: int
    dim_I_prime: int
    dim_d1_ideal: int
    dim_d2_ideal: int
    dim_I_dblprime: int
    dim_Q: int
    J_vanishes: bool


@dataclass(frozen=True)
class BifurcationReport:
    """Full pipeline output; see the JSON schema in the README."""

    f1: str
    f2: str
    hypotheses: HypothesisReport
    deg_f0: int
    deg_d0: int
    deg_d1: int
    deg_d2: int
    cusp_deg_pos_t: int
    cusp_deg_neg_t: int
    combination_matrix: tuple[tuple[str, ...], ...]
    identity_combination: bool
    branch: BranchCount
    branch_positive_t: BranchCount
    b0: int
    b0_prime: int
    sigma: tuple[int, int, int, int]
    chi_M_pos_t: int
    chi_M_neg_t: int
    L0_count: int
    fold_boundary_crit_count: int
    parity_ok: bool


def derive(f1: Poly, f2: Poly) -> DerivedGerms:
    """Build every derived germ from the input family."""
    if f1.vars != VARS_TX or f2.vars != VARS_TX:
        raise ValueError(f"input germs must live in {VARS_TX}")
    if f1.constant_term() != 0 or f2.constant_term() != 0:
        raise OriginNotMapped("f must map the origin to the origin")
    t = Poly.variable("t", VARS_TX)
    J = jacobian_det([f1, f2, t])
    if J.constant_term() != 0:
        raise JNotVanishing(
            "J(0) != 0: f_0 is regular at the origin, no degenerate point "
            "to analyze"
        )
    J_cofactors = tuple(jacobian_cofactors([J, t]))
    F1 = expand_first_row(f1, J_cofactors)
    F2 = expand_first_row(f2, J_cofactors)
    Jt, Jx1, Jx2 = partial(J, 0), partial(J, 1), partial(J, 2)
    f0 = LocalIdeal([t, f1, f2])
    # partials of J need not vanish at the origin; an empty zero set near the
    # origin is legitimate for the d-germs and yields degree 0
    d0 = LocalIdeal([t, Jx1, Jx2])
    d1 = LocalIdeal([Jt, Jx1, Jx2])
    d2 = LocalIdeal([J, Jx1, Jx2])
    # the Jacobian of (t, f1, f2) is d(f1, f2)/d(x1, x2) = J, and the three
    # d-germs share the rows below their first, so one set of cofactors
    # serves all three
    cofactors = jacobian_cofactors([Jx1, Jx2])
    return DerivedGerms(
        f1, f2, J, F1, F2, J_cofactors, f0, d0, d1, d2,
        jac_f0=J,
        jac_d0=expand_first_row(t, cofactors),
        jac_d1=expand_first_row(Jt, cofactors),
        jac_d2=expand_first_row(J, cofactors),
    )


def verify_hypotheses(d: DerivedGerms) -> HypothesisReport:
    """Compute all eight quotient dimensions; raise on the first infinite one.

    Isolation is certified in its algebraic form (finite codimension of the
    complexified zero); a germ whose zero is isolated only over the reals
    fails here with the condition named.
    """
    t = Poly.variable("t", VARS_TX)
    checks = [
        ("dim_t_f1_f2", "dim O/<t,f1,f2>", d.f0),
        ("dim_t_F1_F2", "dim O/<t,F1,F2>", LocalIdeal([t, d.F1, d.F2])),
        ("dim_t_gradJ", "dim O/<t,dJ/dx1,dJ/dx2>", d.d0),
        ("dim_I_prime", "dim O/I'", LocalIdeal([
            d.J, d.F1, d.F2,
            expand_first_row(d.F1, d.J_cofactors),
            expand_first_row(d.F2, d.J_cofactors),
        ])),
        ("dim_d1_ideal", "dim O/<d1 components>", d.d1),
        ("dim_d2_ideal", "dim O/<d2 components>", d.d2),
        ("dim_I_dblprime", "dim O/I''", curve_criterion_ideal(d.F1, d.F2)),
        ("dim_Q", "dim Q", LocalIdeal([t, d.J, d.F1, d.F2])),
    ]
    dims = {}
    for field, name, ideal in checks:
        value = ideal.quotient_dim()
        if value == INFINITE:
            raise HypothesisFailed(name)
        dims[field] = int(value)
    return HypothesisReport(**dims, J_vanishes=(d.J.constant_term() == 0))


def cusp_degree(deg_f0: int, deg_d1: int, deg_d2: int, t_sign: int) -> int:
    """Sum of local degrees over the cusp points of f_t for small t of the
    given sign: deg(f0) - deg(d1) - sign(t)*deg(d2)."""
    if t_sign not in (1, -1):
        raise ValueError("t_sign must be +1 or -1")
    return deg_f0 - deg_d1 - t_sign * deg_d2


def solve_sigma(
    b0: int, b0_prime: int, deg_f0: int, deg_d1: int, deg_d2: int
) -> tuple[int, int, int, int]:
    """Solve for (#Sigma_t^+, #Sigma_t^-, #Sigma_-t^+, #Sigma_-t^-), t > 0.

    The two 2x2 systems are: counts for t > 0 sum to b0'/2 and difference
    equals cusp deg(f_t) for t > 0; counts for t < 0 sum to b0 - b0'/2 and
    difference equals cusp deg(f_t) for t < 0.  Non-integer or negative
    solutions are never clamped.
    """
    if b0_prime % 2 != 0:
        raise InconsistentSystem(f"b0' = {b0_prime} is odd")
    half = b0_prime // 2
    if not 0 <= half <= b0:
        raise InconsistentSystem(f"b0'/2 = {half} outside [0, b0 = {b0}]")
    out = []
    for total, diff in (
        (half, cusp_degree(deg_f0, deg_d1, deg_d2, +1)),
        (b0 - half, cusp_degree(deg_f0, deg_d1, deg_d2, -1)),
    ):
        if (total + diff) % 2 != 0 or abs(diff) > total:
            raise InconsistentSystem(
                f"no non-negative integer solution to sum={total}, diff={diff}"
            )
        out.extend(((total + diff) // 2, (total - diff) // 2))
    return tuple(out)


def euler_extras(
    deg_d0: int, deg_d1: int, deg_d2: int, t_sign: int
) -> tuple[int, int]:
    """Euler characteristic of {J_t <= 0} near the origin and the number of
    points of {J_0 = 0} on a small circle."""
    if t_sign not in (1, -1):
        raise ValueError("t_sign must be +1 or -1")
    s = deg_d0 + deg_d1 + t_sign * deg_d2
    if s % 2 != 0:
        raise ParityViolation(
            f"deg(d0) + deg(d1) + sign(t)*deg(d2) = {s} is odd"
        )
    chi = 1 - s // 2
    l0 = 2 * (1 - deg_d0)
    if l0 < 0:
        raise ParityViolation(f"negative level-set count 2*(1 - deg d0) = {l0}")
    return chi, l0


def _parity_ok(sigma: tuple[int, int, int, int], dim_q: int) -> bool:
    pos_t = sigma[0] + sigma[1]
    neg_t = sigma[2] + sigma[3]
    return (
        pos_t <= dim_q and neg_t <= dim_q
        and pos_t % 2 == dim_q % 2 and neg_t % 2 == dim_q % 2
    )


def run(
    f1: Poly,
    f2: Poly,
    xi_cap: int = DEFAULT_XI_CAP,
) -> BifurcationReport:
    """Run the whole pipeline; every stage's error is tagged with its name:
    any Exception a stage raises comes out as a PipelineError whose cause
    it is."""

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            raise PipelineError(name, e) from e

    derived = stage("derive", derive, f1, f2)
    hyp = stage("verify_hypotheses", verify_hypotheses, derived)

    deg_f0 = stage("degree f0", local_degree, derived.f0, derived.jac_f0).degree
    deg_d0 = stage("degree d0", local_degree, derived.d0, derived.jac_d0).degree
    deg_d1 = stage("degree d1", local_degree, derived.d1, derived.jac_d1).degree
    deg_d2 = stage("degree d2", local_degree, derived.d2, derived.jac_d2).degree

    cusp_pos = cusp_degree(deg_f0, deg_d1, deg_d2, +1)
    cusp_neg = cusp_degree(deg_f0, deg_d1, deg_d2, -1)

    g = stage(
        "choose_combination", choose_combination,
        derived.J, derived.F1, derived.F2,
    )
    branch = stage(
        "count_branches", count_branches, *g, xi_cap=xi_cap,
    )
    branch_pos = stage(
        "count_branches_positive_t", count_branches_positive_t,
        *g, branch.xi,
    )

    sigma = stage(
        "solve_sigma", solve_sigma,
        branch.b0, branch_pos.b0, deg_f0, deg_d1, deg_d2,
    )
    chi_pos, l0 = stage("euler_extras", euler_extras, deg_d0, deg_d1, deg_d2, +1)
    chi_neg, _ = stage("euler_extras", euler_extras, deg_d0, deg_d1, deg_d2, -1)

    return BifurcationReport(
        f1=str(f1),
        f2=str(f2),
        hypotheses=hyp,
        deg_f0=deg_f0,
        deg_d0=deg_d0,
        deg_d1=deg_d1,
        deg_d2=deg_d2,
        cusp_deg_pos_t=cusp_pos,
        cusp_deg_neg_t=cusp_neg,
        combination_matrix=tuple(tuple(map(str, row)) for row in COMBINATION_MATRIX),
        identity_combination=True,
        branch=branch,
        branch_positive_t=branch_pos,
        b0=branch.b0,
        b0_prime=branch_pos.b0,
        sigma=sigma,
        chi_M_pos_t=chi_pos,
        chi_M_neg_t=chi_neg,
        L0_count=l0,
        fold_boundary_crit_count=l0,
        parity_ok=_parity_ok(sigma, hyp.dim_Q),
    )
