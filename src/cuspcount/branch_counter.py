"""Counting the half-branches of the cusp curve at the origin.

The curve of interest is the common zero set of three germs (w1, w2, w3) in
(t, x1, x2).  The count needs a combination (g1, g2, g3) of them for which
V(g1, g2) is a curve with an algebraically isolated singularity and
dim O/<t, g1, g2> is finite.  For the cusp curve triple (J, F1, F2) the
pipeline's hypotheses certify both for the permutation (F1, F2, J)
(dim O/I'' and dim O/<t, F1, F2>), so that permutation is the combination.
The count then goes through the auxiliary germs

    H(sign) = ( det d(g3 + sign*t^k, g1, g2)/d(t, x1, x2), g1, g2 )

for any even k exceeding xi = min{ s : t^s * g3 in J2 }, J2 = <g1, g2, g3^2>.
The number of half-branches of V(g1, g2, g3) emanating from the origin is
then deg(H+) - deg(H-), and running the same computation on the germs with t
replaced by t^2 counts twice the branches lying in t > 0.

For k > xi each H(sign) = (h, g1, g2) has an algebraically isolated zero, so
an infinite H algebra is a bug: cobasis() raises DimensionInfinite, which is
no HypothesisError.  As dim O/I'' is finite, C = V(g1, g2) is a curve smooth
off 0 with tangent grad g1 x grad g2, so on a branch gamma of C, h o gamma is
d/dtau (g3 + sign*t^k) o gamma times a factor nonzero off 0.  t is not 0 on
gamma, as dim O/<t, g1, g2> is finite.  If g3 is 0 on gamma, g3 + sign*t^k is
not; otherwise t^xi * g3 in <g1, g2, g3^2> gives t^xi = c * g3 on gamma, so
ord g3 <= xi * ord t < k * ord t and g3 + sign*t^k has the order of g3.  So h
vanishes on no branch and V(h, g1, g2) = {0}.  The t -> t^2 system meets the
same hypotheses with 2*xi < k' = 2*xi + 2.

J2 itself is never completed.  Probe s decides t^s * g3 in J2 against
K = J2 + <t^(s+1) * g3>: if t^s * g3 = j + a * t^(s+1) * g3 with j in J2,
then (1 - a*t) * t^s * g3 = j, and 1 - a*t is a unit, so t^s * g3 lies in J2
(Nakayama); the converse holds as J2 lies in K.

The substituted system's xi is 2*xi, so it is not searched for.  Write g' for
g with t replaced by t^2 and O' for the image of t -> t^2 in O.  For h(0) != 0
the product h(t,x)*h(-t,x) is a unit of O', so O = O' (+) t*O' is free over O'
with basis {1, t}, and I'O = I' (+) t*I' for any ideal I' of O'.  Take for I'
the image of <g1, g2, g3^2>, so that I'O = <g1', g2', g3'^2>.  Now t^(2u)*g3'
and t^(2u+1)*g3' are the image of t^u*g3 times 1 and times t, and each lies in
I'O exactly when t^u*g3 lies in <g1, g2, g3^2>.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elk_degree import local_degree
from .errors import NegativeBranchCount, OddBPrime, XiSearchExceededBound
from .polyring import (
    Poly,
    expand_first_row,
    jacobian_cofactors,
    substitute_t_squared,
)
from .standard_basis import LocalIdeal

DEFAULT_XI_CAP = 64

#: the matrix of choose_combination's permutation: g_s = sum_j M[s][j] * w_j
COMBINATION_MATRIX = ((0, 1, 0), (0, 0, 1), (1, 0, 0))


@dataclass(frozen=True)
class BranchCount:
    xi: int
    k: int
    deg_H_plus: int
    deg_H_minus: int
    b0: int


def curve_criterion_ideal(g1: Poly, g2: Poly) -> LocalIdeal:
    """The ideal certifying that V(g1, g2) is a curve with an algebraically
    isolated singularity: g1, g2 and the three 2x2 minors of their derivative
    matrix with respect to (t, x1, x2): the cofactors of (g1, g2), reversed
    into d/d(t,x1), -d/d(t,x2), d/d(x1,x2)."""
    return LocalIdeal([g1, g2, *reversed(jacobian_cofactors([g1, g2]))])


def choose_combination(w1: Poly, w2: Poly, w3: Poly) -> tuple[Poly, Poly, Poly]:
    """The permutation (g1, g2, g3) = (w2, w3, w1), of matrix
    COMBINATION_MATRIX.

    Precondition: the curve criterion ideal of (w2, w3) and <t, w2, w3> have
    finite codimension.  For the cusp curve triple (J, F1, F2) these are
    dim O/I'' and dim O/<t, F1, F2>, which verify_hypotheses certifies.
    """
    return w2, w3, w1


def compute_xi(g1: Poly, g2: Poly, g3: Poly, cap: int = DEFAULT_XI_CAP) -> int:
    """Smallest s with t^s * g3 in J2 = <g1, g2, g3^2>, by ascending search.

    When V(g1, g2, g3) is a curve, J2 has infinite codimension, so its
    completion has no truncation bound and its coefficients can swell past
    any budget; it is never completed.  Probe s asks instead whether
    t^s * g3 lies in K = <g1, g2, g3^2, t^(s+1) * g3>, which has the same
    answer.  If t^s * g3 lies in J2, it lies in K, which contains J2.  If
    t^s * g3 = j + a * t^(s+1) * g3 with j in J2, then
    (1 - a*t) * t^s * g3 = j, and 1 - a*t is a unit of the local ring, so
    t^s * g3 lies in J2 (Nakayama).
    """
    t = Poly.variable("t", g1.vars)
    j2 = [g1, g2, g3 * g3]
    power = g3
    for s in range(cap + 1):
        following = power * t
        if LocalIdeal([*j2, following]).contains(power):
            return s
        power = following
    raise XiSearchExceededBound(
        f"t^s * g3 not in <g1, g2, g3^2> for any s <= {cap}; raise the cap or "
        "check the hypotheses"
    )


def build_H(
    g1: Poly, g2: Poly, g3: Poly, k: int
) -> tuple[tuple[tuple[Poly, Poly, Poly], Poly], ...]:
    """The auxiliary germs H(sign) = (det d(g3 + sign*t^k, g1, g2)/d(t,x1,x2),
    g1, g2), each with its Jacobian determinant: ((H+, Jac H+), (H-, Jac H-)).

    Both signs come from one cofactor expansion.  With c_j the cofactors of
    the first row of d(., g1, g2)/d(t, x1, x2), a determinant is linear in
    that row, so the first component is A + sign*B for A = sum_j d_j g3 * c_j
    and B = k*t^(k-1) * c_0.  The Jacobian of H(sign) has the rows of g1 and
    g2 below its first row again, so it is JA + sign*JB for the expansions
    JA and JB of A and B along the same c_j.

    The first component may be a unit; the germ then has no zero near the
    origin and its local degree is 0.
    """
    if k <= 0 or k % 2 != 0:
        raise ValueError("k must be a positive even integer")
    cofactors = jacobian_cofactors([g1, g2])
    t = Poly.variable("t", g1.vars)
    a = expand_first_row(g3, cofactors)
    b = expand_first_row(t**k, cofactors)
    ja = expand_first_row(a, cofactors)
    jb = expand_first_row(b, cofactors)
    return ((a + b, g1, g2), ja + jb), ((a - b, g1, g2), ja - jb)


def _count(g1: Poly, g2: Poly, g3: Poly, xi: int) -> BranchCount:
    """deg(H+) - deg(H-) with the smallest even k above the given xi."""
    k = xi + 2 - xi % 2
    (plus, jac_plus), (minus, jac_minus) = build_H(g1, g2, g3, k)
    deg_plus = local_degree(LocalIdeal(plus), jac_plus).degree
    deg_minus = local_degree(LocalIdeal(minus), jac_minus).degree
    b0 = deg_plus - deg_minus
    if b0 < 0:
        raise NegativeBranchCount(
            f"deg(H+) = {deg_plus} < deg(H-) = {deg_minus}"
        )
    return BranchCount(xi, k, deg_plus, deg_minus, b0)


def count_branches(
    g1: Poly, g2: Poly, g3: Poly, xi_cap: int = DEFAULT_XI_CAP
) -> BranchCount:
    """Half-branches of V(g1, g2, g3) emanating from the origin."""
    return _count(g1, g2, g3, compute_xi(g1, g2, g3, cap=xi_cap))


def count_branches_positive_t(
    g1: Poly, g2: Poly, g3: Poly, xi: int
) -> BranchCount:
    """Branch count of the system with t replaced by t^2, whose xi is 2*xi.

    Precondition: xi is at least the xi of the unsubstituted system, for
    example count_branches(g1, g2, g3).xi.  The resulting b0 is twice the
    number of half-branches of the original curve in the half-space t > 0
    and must be even; the half-branches in t < 0 are those of the system
    with t replaced by -t.
    """
    count = _count(*map(substitute_t_squared, (g1, g2, g3)), 2 * xi)
    if count.b0 % 2 != 0:
        raise OddBPrime(
            f"substituted system returned odd b0 = {count.b0}, violating the "
            "t -> -t symmetry"
        )
    return count
