"""Counting the half-branches of the cusp curve at the origin.

The curve of interest is the common zero set of three germs (w1, w2, w3) in
(t, x1, x2).  After replacing them by a generic nonsingular combination
(g1, g2, g3) for which V(g1, g2) is a curve with an algebraically isolated
singularity and dim O/<t, g1, g2> is finite, the count goes through the
auxiliary germs

    H(sign) = ( det d(g3 + sign*t^k, g1, g2)/d(t, x1, x2), g1, g2 )

for any even k exceeding xi = min{ s : t^s * g3 in <g1, g2, g3^2> }.  The
number of half-branches of V(g1, g2, g3) emanating from the origin is then
deg(H+) - deg(H-), and running the same computation on the germs with t
replaced by t^2 counts twice the branches lying in t > 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .elk_degree import local_degree
from .errors import (
    InternalInconsistency,
    NegativeBranchCount,
    NoGenericCombinationFound,
    OddBPrime,
    XiSearchExceededBound,
)
from .polyring import Poly, det, jacobian2, jacobian_det, substitute_t_squared
from .standard_basis import INFINITE, LocalIdeal

DEFAULT_XI_CAP = 64
DEFAULT_MATRIX_ATTEMPTS = 32


@dataclass(frozen=True)
class GenericCombination:
    """A verified combination g_s = sum_j matrix[s][j] * w_j."""

    matrix: tuple[tuple[Fraction, ...], ...]
    g1: Poly
    g2: Poly
    g3: Poly
    identity_choice: bool


@dataclass(frozen=True)
class BranchCount:
    xi: int
    k: int
    deg_H_plus: int
    deg_H_minus: int
    b0: int


def _t_poly(vars) -> Poly:
    return Poly.variable("t", vars)


def curve_criterion_ideal(g1: Poly, g2: Poly) -> LocalIdeal:
    """The ideal certifying that V(g1, g2) is a curve with an algebraically
    isolated singularity: g1, g2 and the three 2x2 minors of their derivative
    matrix with respect to (t, x1, x2)."""
    return LocalIdeal([
        g1, g2,
        jacobian2(g1, g2, 0, 1),
        jacobian2(g1, g2, 0, 2),
        jacobian2(g1, g2, 1, 2),
    ])


def _condition3_dim(g1: Poly, g2: Poly):
    return LocalIdeal([_t_poly(g1.vars), g1, g2]).quotient_dim()


def _draw_matrix(rng: random.Random, attempt: int) -> list[list[int]]:
    """Candidate combination matrices, sparsest first.

    Sparse combinations keep the degrees of the mixed germs low, which makes
    their branch counts far cheaper; the verification step makes any draw
    sound, so density is only escalated when sparse draws keep failing.
    """
    if attempt < 8:
        perm = rng.sample(range(3), 3)
        rows = [[0] * 3 for _ in range(3)]
        for s, j in enumerate(perm):
            rows[s][j] = rng.choice((1, -1))
        if attempt >= 2:
            s, j = rng.randrange(3), rng.randrange(3)
            if rows[s][j] == 0:
                rows[s][j] = rng.choice((-3, -2, -1, 1, 2, 3))
        return rows
    return [[rng.randint(-10, 10) for _ in range(3)] for _ in range(3)]


def choose_combination(
    w1: Poly,
    w2: Poly,
    w3: Poly,
    rng_seed: int = 0,
    max_attempts: int = DEFAULT_MATRIX_ATTEMPTS,
    force_random: bool = False,
    identity_criterion_ideal: LocalIdeal | None = None,
    identity_cond3_dim=None,
) -> GenericCombination:
    """Pick a combination of (w1, w2, w3) suitable for branch counting.

    The permutation (g1, g2, g3) = (w2, w3, w1) is tried first: for the cusp
    curve triple (J, F1, F2) that is the choice whose curve criterion the
    pipeline has usually already certified.  Failing that, random nonsingular
    small-integer matrices are drawn and verified until one passes.

    identity_criterion_ideal / identity_cond3_dim pass in already computed
    certificates for the identity choice so they are not recomputed.
    """
    if not force_random:
        ideal = identity_criterion_ideal or curve_criterion_ideal(w2, w3)
        cond3 = identity_cond3_dim
        if cond3 is None:
            cond3 = _condition3_dim(w2, w3)
        if ideal.quotient_dim() != INFINITE and cond3 != INFINITE:
            matrix = tuple(
                tuple(Fraction(x) for x in row)
                for row in ((0, 1, 0), (0, 0, 1), (1, 0, 0))
            )
            return GenericCombination(matrix, w2, w3, w1, identity_choice=True)

    rng = random.Random(rng_seed)
    ws = (w1, w2, w3)
    for attempt in range(max_attempts):
        rows = _draw_matrix(rng, attempt)
        if det(rows) == 0:
            continue
        g1, g2, g3 = (
            sum((ws[j] * rows[s][j] for j in range(3)), Poly.zero(w1.vars))
            for s in range(3)
        )
        if g1.is_zero() or g2.is_zero() or g3.is_zero():
            continue
        if curve_criterion_ideal(g1, g2).quotient_dim() == INFINITE:
            continue
        if _condition3_dim(g1, g2) == INFINITE:
            continue
        matrix = tuple(tuple(Fraction(x) for x in row) for row in rows)
        return GenericCombination(matrix, g1, g2, g3, identity_choice=False)

    raise NoGenericCombinationFound(
        f"no verified combination after {max_attempts} attempts; "
        "the curve V(w1, w2, w3) probably fails to have an algebraically "
        "isolated singularity"
    )


def compute_xi(g1: Poly, g2: Poly, g3: Poly, cap: int = DEFAULT_XI_CAP) -> int:
    """Smallest s with t^s * g3 in <g1, g2, g3^2>, by ascending search."""
    j2 = LocalIdeal([g1, g2, g3 * g3])
    t = _t_poly(g1.vars)
    power = Poly.constant(1, g1.vars)
    for s in range(cap + 1):
        if j2.contains(power * g3):
            return s
        power = power * t
    raise XiSearchExceededBound(
        f"t^s * g3 not in <g1, g2, g3^2> for any s <= {cap}; raise the cap or "
        "check the hypotheses"
    )


def build_H(
    g1: Poly, g2: Poly, g3: Poly, k: int, sign: int
) -> tuple[Poly, Poly, Poly]:
    """The components of the auxiliary germ
    (det d(g3 + sign*t^k, g1, g2)/d(t,x1,x2), g1, g2).

    The first component may be a unit; the germ then has no zero near the
    origin and its local degree is 0.
    """
    if k <= 0 or k % 2 != 0:
        raise ValueError("k must be a positive even integer")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    t = _t_poly(g1.vars)
    first = jacobian_det([g3 + t**k * sign, g1, g2])
    return first, g1, g2


def _smallest_even_above(xi: int) -> int:
    return xi + 2 if xi % 2 == 0 else xi + 1


def count_branches(
    g1: Poly, g2: Poly, g3: Poly,
    xi_cap: int = DEFAULT_XI_CAP, k: int | None = None,
) -> BranchCount:
    """Half-branches of V(g1, g2, g3) emanating from the origin."""
    xi = compute_xi(g1, g2, g3, cap=xi_cap)
    if k is None:
        k = _smallest_even_above(xi)
    elif k <= xi or k % 2 != 0:
        raise ValueError(f"k must be even and exceed xi={xi}")
    deg_plus = local_degree(build_H(g1, g2, g3, k, +1)).degree
    deg_minus = local_degree(build_H(g1, g2, g3, k, -1)).degree
    b0 = deg_plus - deg_minus
    if b0 < 0:
        raise NegativeBranchCount(
            f"deg(H+) = {deg_plus} < deg(H-) = {deg_minus}"
        )
    return BranchCount(xi, k, deg_plus, deg_minus, b0)


def count_branches_positive_t(
    g1: Poly, g2: Poly, g3: Poly,
    xi_cap: int = DEFAULT_XI_CAP,
    xi_hint: int | None = None,
    negate: bool = False,
) -> BranchCount:
    """Branch count of the system with t replaced by t^2 (or -t^2).

    The resulting b0 is twice the number of half-branches of the original
    curve in the half-space t > 0 (t < 0 when negate is set) and must be
    even.  xi_hint, when given, is the xi of the unsubstituted system; the
    substituted xi never exceeds twice that value, which is checked.
    """
    g1s = substitute_t_squared(g1, negate=negate)
    g2s = substitute_t_squared(g2, negate=negate)
    g3s = substitute_t_squared(g3, negate=negate)
    count = count_branches(g1s, g2s, g3s, xi_cap=xi_cap)
    if xi_hint is not None and count.xi > 2 * xi_hint:
        raise InternalInconsistency(
            f"substituted xi = {count.xi} exceeds twice the original {xi_hint}"
        )
    if count.b0 % 2 != 0:
        raise OddBPrime(
            f"substituted system returned odd b0 = {count.b0}, violating the "
            "t -> -t symmetry"
        )
    return count
