"""Shared helpers for the test suite: random polynomial generation, changes
of coordinates, the restriction to t = 0, reference determinants and
minors, an independent random combination search, and the two worked
families used as regression anchors."""

import random
from fractions import Fraction
from itertools import permutations

from cuspcount.branch_counter import curve_criterion_ideal
from cuspcount.elk_degree import DegreeCertificate, local_degree
from cuspcount.polyring import Poly, det, jacobian_det, partial
from cuspcount.standard_basis import INFINITE, LocalIdeal

EX1 = ("x1^3 + x2^2 + t*x1", "x1*x2")
EX2 = ("x1^4 + x2^4 + x1^2*x2^2 + t*x1", "x1*x2 + t*x2")

# families that pass every hypothesis, used by the property suites
CRAFTED_FAMILIES = [
    ("x1^3 + x2^2 - t*x1", "x1*x2"),          # parameter-reversed cubic
    ("x1^3 - x2^2 + t*x1", "x1*x2"),          # sign variant
    ("x1^2 - x2^2 + t*x1", "x1*x2"),          # quadratic fold circle
    ("x1", "x2^3 - x1*x2 - t*x2"),            # single traveling cusp
    ("x1", "x2^3 - x1^2*x2 + t^2*x2"),        # symmetric cusp pair
    ("x1^3 + x2^2 + t*x1", "2*x1*x2"),        # rescaled cubic
]

# generated families with a nonzero sigma, pinned as text:
# perfbench.workloads.screen_families(1) at 63 and 102,
# screen_families(2) at 10, 40, 78 and 108, and screen_families(1) at 98,
# whose completion stalled while reductions took the shortest reducer
GENERATED_FAMILIES = [
    ("-x1^3 - 3*t*x1*x2 - x1^2*x2 + 2*x2^3", "2*t - x2 + 2*x1^2*x2"),
    ("-3*x1 + 3*t*x2 - 2*x2^2", "2*t^2 - 2*t*x1*x2 - x1^2*x2 + 3*x2^3"),
    ("2*x1*x2 - t^3", "x1^2 - 2*t^2*x2 - 2*x2^3"),
    ("-x1 - x1*x2 + 2*t^3", "-3*x1 - 3*x1^2*x2 + 2*t*x2^2 - 2*x2^3"),
    ("-2*x1^2 - t*x2 - 2*x2^3", "-2*x1 + 3*x1*x2 - 3*x2^3"),
    ("t - 3*x1*x2", "x2 + 3*x1^2 + 2*x1^2*x2 - 2*t*x2^2"),
    ("3*t - t*x1 - x1*x2 - 3*x1^3", "-3*t*x1 + x1^2 + 2*x1^2*x2 + 3*x2^3"),
]


def random_poly(rng: random.Random, vars, max_deg=3, n_terms=5,
                coeff_range=3, rational=False) -> Poly:
    """Random sparse polynomial; may be zero."""
    nv = len(vars)
    terms = {}
    for _ in range(n_terms):
        while True:
            mono = tuple(rng.randint(0, max_deg) for _ in range(nv))
            if sum(mono) <= max_deg:
                break
        c = rng.randint(-coeff_range, coeff_range)
        if c == 0:
            continue
        coeff = Fraction(c, rng.randint(1, 4)) if rational else Fraction(c)
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Poly(vars, {m: c for m, c in terms.items() if c})


def random_nonzero_poly(rng, vars, **kw) -> Poly:
    while True:
        p = random_poly(rng, vars, **kw)
        if not p.is_zero():
            return p


def random_origin_poly(rng, vars, **kw) -> Poly:
    """Random polynomial vanishing at the origin."""
    while True:
        p = random_poly(rng, vars, **kw)
        p = p - Poly.constant(p.constant_term(), vars)
        if not p.is_zero():
            return p


def leibniz_det(rows):
    """Reference determinant: the sum over all permutations, each product
    signed by the parity of its inversions."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def minor(p: Poly, q: Poly, v1: int, v2: int) -> Poly:
    """Reference 2x2 minor d(p, q)/d(v1, v2), v1 and v2 variable indices:
    the Leibniz determinant of the partials."""
    return leibniz_det([[partial(p, v1), partial(p, v2)],
                        [partial(q, v1), partial(q, v2)]])


def reference_cusp_triple(f1: Poly, f2: Poly) -> tuple[Poly, Poly, Poly]:
    """(J, F1, F2) of f = (f1, f2) in (t, x1, x2), from reference minors:
    J = d(f1,f2)/d(x1,x2) and F_i = d(f_i,J)/d(x1,x2)."""
    J = minor(f1, f2, 1, 2)
    return J, minor(f1, J, 1, 2), minor(f2, J, 1, 2)


def germ_degree(germ) -> DegreeCertificate:
    """local_degree of a germ given as the sequence of its components."""
    return local_degree(LocalIdeal(germ), jacobian_det(germ))


def flip_t(p: Poly) -> Poly:
    """p with t replaced by -t (t is the first variable)."""
    return Poly(p.vars, {m: -c if m[0] % 2 else c for m, c in p.sorted_terms()})


def set_t_zero(p: Poly) -> Poly:
    """p at t = 0, in its ambient without t (t is the first variable): the
    reference for the germs (t, g) that stand for g(0, .) in the analysis."""
    return Poly(p.vars[1:], {m[1:]: c for m, c in p.sorted_terms() if not m[0]})


def swap_x(p: Poly) -> Poly:
    """p in (t, x1, x2) with x1 and x2 exchanged."""
    return Poly(p.vars, {(m[0], m[2], m[1]): c for m, c in p.sorted_terms()})


def compose(p: Poly, images) -> Poly:
    """p with each variable replaced by its image, a Poly in p's ambient."""
    out = Poly.zero(p.vars)
    for mono, c in p.sorted_terms():
        term = Poly.constant(c, p.vars)
        for image, e in zip(images, mono):
            term = term * image**e
        out = out + term
    return out


def _draw_matrix(rng: random.Random, attempt: int) -> list[list[int]]:
    """Candidate combination matrices, sparsest first: a signed permutation,
    from the third draw on with one extra entry, and dense from the ninth."""
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


def random_combination(w1: Poly, w2: Poly, w3: Poly, seed: int,
                       max_attempts: int = 32):
    """(rows, g): a seeded random nonsingular combination
    g_s = sum_j rows[s][j] * w_j of (w1, w2, w3) whose curve criterion ideal
    and <t, g1, g2> both have finite codimension, an alternative to the
    identity permutation for cross-checking branch counts."""
    rng = random.Random(seed)
    ws = (w1, w2, w3)
    t = Poly.variable("t", w1.vars)
    for attempt in range(max_attempts):
        rows = _draw_matrix(rng, attempt)
        if det(rows) == 0:
            continue
        g = tuple(
            sum((ws[j] * rows[s][j] for j in range(3)), Poly.zero(w1.vars))
            for s in range(3)
        )
        if any(gs.is_zero() for gs in g):
            continue
        if curve_criterion_ideal(g[0], g[1]).quotient_dim() == INFINITE:
            continue
        if LocalIdeal([t, g[0], g[1]]).quotient_dim() == INFINITE:
            continue
        return tuple(map(tuple, rows)), g
    raise AssertionError(f"no verified combination in {max_attempts} draws")
