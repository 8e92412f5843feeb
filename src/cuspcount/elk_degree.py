"""Local topological degree of polynomial germs with algebraically isolated
zeros, computed through the signature of the residue pairing on the local
algebra (the Eisenbud-Levine / Khimshiashvili formula).

The degree is the signature of the bilinear form (a, b) -> phi(a*b) on the
local algebra of the germ, where phi is any linear functional positive on
the class of the Jacobian determinant; the form is nondegenerate and its
signature does not depend on the admissible phi.  That class spans the
socle of the algebra, which the last staircase monomial spans as well, so
phi is the dual functional of that monomial, signed to be positive on the
class.  Any positive multiple of phi has the same signature, so the pairing
is taken over the integers, as den*phi for phi's positive denominator den.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Sequence

from .errors import InternalInconsistency
from .polyring import Poly
from .standard_basis import LocalAlgebra, LocalIdeal


@dataclass(frozen=True)
class DegreeCertificate:
    """A local topological degree with the data that proves it."""

    degree: int
    algebra_dim: int
    jacobian_class: tuple[Fraction, ...]
    signature_split: tuple[int, int]


def build_algebra(ideal: LocalIdeal) -> LocalAlgebra:
    """Local algebra of a square germ, given as the ideal of its three
    components in (t, x1, x2), whose completion it reads."""
    if len(ideal.generators) != 3:
        raise ValueError("build_algebra needs a square germ: three components")
    return LocalAlgebra(ideal)


def signature(matrix: Sequence[Sequence]) -> tuple[int, int, int]:
    """Inertia (positives, negatives, zeros) of an exact symmetric matrix,
    given as a square list of rows.  Int entries stay ints until an update
    touches them, any other entry goes through Fraction(x), and the pivots
    are Fractions, so no step divides an int by an int.

    Symmetric congruence elimination on the nonzero entries only, kept as
    {row: {col: value}}, with one pivot rule.  Each step takes the row k
    with the fewest entries, lowest index on ties, from a heap of
    (entries, row) in which a pair whose row has since changed is skipped.
    If a[k][k] = p is nonzero, it pivots on p: one square of the sign of p.
    Otherwise it pivots on the 2x2 block [[0, c], [c, a]] of k and its
    neighbour u with the fewest entries (c = a[k][u], a = a[u][u]), whose
    determinant -c^2 gives one positive and one negative square.  Both pivots apply one
    rank-2 update, the Schur complement A - (y z^T + z y^T) with y the row
    of k: z = y/(2p) for the 1x1 pivot, and z = x/c - a/(2c^2) y for the
    2x2 one, x the row of u.

    The rule suits residue pairings (a, b) -> phi(a*b) on a staircase basis.
    phi(m_i*m_j) = 0 whenever deg m_i + deg m_j >= N, so the monomials of
    degree >= N/2 span a totally isotropic block: short rows with zero
    diagonals, which the rule takes first.  A 2x2 step on such a row k
    changes a[i][j] only where a[k][i] or a[k][j] is nonzero, so it leaves
    the block zero, where 1x1 pivots elsewhere would fill it and grow its
    entries.
    """
    n = len(matrix)
    rows: dict[int, dict[int, int | Fraction]] = {}
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix must be square")
        nonzeros = {j: x if type(x) is int else Fraction(x)
                    for j, x in compress(enumerate(row), row)}
        if nonzeros:
            rows[i] = nonzeros
    for i, row in rows.items():
        for j, x in row.items():
            if rows.get(j, {}).get(i) != x:
                raise ValueError("matrix must be symmetric")

    # (entries, row) for every row, and stale pairs skipped: a row's pair is
    # pushed again whenever an update changes its length
    sizes = [(len(r), i) for i, r in rows.items()]
    heapq.heapify(sizes)
    pos = neg = 0
    while rows:
        while True:
            size, k = heapq.heappop(sizes)
            if k in rows and len(rows[k]) == size:
                break
        rk = rows.pop(k)
        p = rk.pop(k, None)
        for i in rk:
            del rows[i][k]
        if p is not None:
            p = Fraction(p)
            if p > 0:
                pos += 1
            else:
                neg += 1
            # y z^T + z y^T = y y^T/p
            h = 2 * p
            z = {j: v / h for j, v in rk.items()}
        else:
            u = min(rk, key=lambda j: (len(rows[j]), j))
            ru = rows.pop(u)
            c = Fraction(rk.pop(u))
            a = ru.pop(u, 0)
            pos += 1
            neg += 1
            for i in ru:
                del rows[i][u]
            z = {j: v / c for j, v in ru.items()}
            if a:
                h = a / (2 * c * c)
                for j, v in rk.items():
                    z[j] = z.get(j, 0) - h * v
        # a[i][j] -= y[i]*z[j] + z[i]*y[j] for y = rk: entries with
        # y[i] = y[j] = 0 stay as they are
        cols = [(j, v, z.get(j, 0)) for j, v in rk.items()]
        cols += [(j, 0, v) for j, v in z.items() if j not in rk]
        for at, (i, yi, zi) in enumerate(cols[:len(rk)]):
            ri = rows[i]
            for j, yj, zj in cols[at:]:
                d = yi * zj + zi * yj
                if not d:
                    continue
                s = ri.get(j, 0) - d
                if s:
                    ri[j] = rows[j][i] = s
                else:
                    del ri[j]
                    if j != i:
                        del rows[j][i]
        for i in rk.keys() | z.keys():
            if rows[i]:
                heapq.heappush(sizes, (len(rows[i]), i))
            else:
                del rows[i]
    return pos, neg, n - pos - neg


def local_degree(ideal: LocalIdeal, jacobian: Poly) -> DegreeCertificate:
    """Local topological degree at the origin of a square germ, given as the
    ideal of its components and its Jacobian determinant, for example
    local_degree(LocalIdeal(germ), jacobian_det(germ)).  The ideal gives the
    algebra and the Jacobian its orientation, so a caller that has completed
    the ideal already, or built the Jacobian from shared pieces, passes them
    as they are.

    A germ whose components have no common zero near the origin (unit
    component ideal) gets degree 0 with an empty certificate.
    """
    algebra = build_algebra(ideal)
    if algebra.dim == 0:
        return DegreeCertificate(0, 0, (), (0, 0))

    jclass = algebra.coords(jacobian)
    c = jclass[-1]
    if not c or any(jclass[:-1]):
        raise InternalInconsistency(
            "the Jacobian class is not a nonzero multiple of the socle "
            f"monomial {algebra.cobasis[-1]}"
        )
    pos, neg, zero = signature(algebra.socle_pairing())
    if zero:
        raise InternalInconsistency(
            "residue pairing is degenerate despite a nonzero Jacobian class"
        )
    if c < 0:  # phi is minus the dual functional the pairing was built on
        pos, neg = neg, pos
    return DegreeCertificate(pos - neg, algebra.dim, jclass, (pos, neg))
