"""Local topological degree of polynomial germs with algebraically isolated
zeros, computed through the signature of the residue pairing on the local
algebra (the Eisenbud-Levine / Khimshiashvili formula).

The local algebra Q of a square germ g is the quotient of the local ring by
the ideal of components.  When Q is finite-dimensional its maximal ideal is
nilpotent: with N = 1 + (max staircase degree), every monomial of degree >= N
lies in the localized ideal, so Q is the quotient of the polynomials of
degree < N by the span of the truncated multiples of the standard basis.
The staircase and N are both handed over by the standard-basis completion.
That description gives exact, canonical coordinates on the staircase basis by
one top-down sweep over monomial relations; no normal-form units are involved.
The sweeps keep monomials packed as the completion does, one int each, so a
product is a sum, "degree < N" is one comparison, and the heap and the
tables hold plain ints.

The degree is then the signature of the bilinear form (a, b) -> phi(a*b),
where phi is any linear functional positive on the class of the Jacobian
determinant of g; here phi is the dual functional of one staircase monomial
carrying a nonzero coefficient in that class, with the sign fixed to make it
positive.  The form is nondegenerate and its signature does not depend on the
admissible phi.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iterproduct
from typing import Sequence

from .errors import (
    DegenerateJacobianClass,
    InternalInconsistency,
    NotAlgebraicallyIsolated,
)
from .polyring import Monomial, Poly, jacobian_det
from .standard_basis import (
    FIELD_BITS,
    INFINITE,
    LocalIdeal,
    guard_bits,
    pack_monomial,
    unpack_monomial,
)


class LocalAlgebra:
    """Finite-dimensional local algebra of a square germ, with exact
    coordinates relative to its staircase basis.

    The staircase basis and the truncation degree N are the ones the
    standard-basis completion of the ideal hands over.  cobasis lists the
    staircase as exponent tuples; internally every monomial is packed
    (standard_basis.pack_monomial), and functional_table is keyed by packed
    monomials.
    """

    def __init__(self, ideal: LocalIdeal):
        if ideal.quotient_dim() == INFINITE:
            raise NotAlgebraicallyIsolated(
                "the germ's zero is not algebraically isolated "
                "(local algebra is infinite-dimensional)"
            )
        core = ideal._ensure_core()
        self.vars = ideal.vars
        self.cobasis: tuple[Monomial, ...] = ideal.cobasis()
        self.dim: int = len(self.cobasis)
        self._staircase: tuple[int, ...] = core.staircase
        self._index = {m: i for i, m in enumerate(core.staircase)}
        self._n: int = core.trunc
        # packed monomials below _cap are those of degree < N
        self._cap = self._n << (FIELD_BITS * len(self.vars))
        self._rows = self._build_rows(core.reducers)

    # -- construction --------------------------------------------------------

    def _build_rows(self, reducers):
        """For each non-staircase monomial m of degree < N, in sort order, a
        relation m = -(1/lc) * sum(tail) modulo the ideal, from the shortest
        (then oldest) basis element whose lead divides m, shifted onto m."""
        n, cap = self._n, self._cap
        guards = guard_bits(len(self.vars))
        reducers = sorted(reducers, key=lambda r: (r.size, r.idx))
        below = (
            pack_monomial(m) for m in _iterproduct(*(range(n) for _ in self.vars))
            if sum(m) < n
        )
        monomials = sorted(k for k in below if k not in self._index)
        rows: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}
        for m in monomials:
            mg = m | guards
            best = next((r for r in reducers if (mg - r.lm) & guards == guards), None)
            if best is None:
                raise InternalInconsistency(
                    f"monomial {unpack_monomial(m, len(self.vars))} is neither "
                    "standard nor reducible"
                )
            w = m - best.lm
            room = cap - w
            rows[m] = (best.lc, tuple(
                (mono + w, c) for mono, c in best.tail if mono < room
            ))
        return rows

    # -- canonical reduction --------------------------------------------------

    def functional_table(self, m_star: int) -> dict[int, Fraction]:
        """Values of the dual functional of the packed staircase monomial
        m_star on the classes of all monomials of degree < N, keyed by packed
        monomial."""
        if m_star not in self._index:
            raise ValueError(f"{m_star!r} is not a packed staircase monomial")
        index = self._index
        table = {}
        for m in reversed(self._rows):  # smallest first
            lc, tail = self._rows[m]
            acc = Fraction(0)
            for mono, c in tail:
                if mono in index:
                    if mono == m_star:
                        acc += c
                else:
                    v = table[mono]
                    if v:
                        acc += c * v
            table[m] = -acc / lc
        for m in self._staircase:
            table[m] = Fraction(1 if m == m_star else 0)
        return table

    def coords(self, p: Poly) -> tuple[Fraction, ...]:
        """Coordinates of the class of p in the staircase basis.

        One top-down sweep: terms of degree >= N are dropped, and the
        largest non-staircase monomial left is replaced by its relation in
        _rows, whose terms are all smaller, until only staircase monomials
        remain.
        """
        if p.vars != self.vars:
            raise ValueError("ambient mismatch")
        index, rows, n = self._index, self._rows, self._n
        h = {pack_monomial(m): c for m, c in p.terms.items() if sum(m) < n}
        heap = [m for m in h if m not in index]
        heapq.heapify(heap)
        while heap:
            m = heapq.heappop(heap)
            c = h.pop(m, None)
            if c is None:
                continue  # cancelled after it was pushed
            lc, tail = rows[m]
            q = c / lc
            for mono, cc in tail:
                old = h.get(mono)
                new = (0 if old is None else old) - q * cc
                if new:
                    h[mono] = new
                    if old is None and mono not in index:
                        heapq.heappush(heap, mono)
                elif old is not None:
                    del h[mono]
        vec = [Fraction(0)] * self.dim
        for m, c in h.items():
            vec[index[m]] = c
        return tuple(vec)


@dataclass(frozen=True)
class DegreeCertificate:
    """A local topological degree with the data that proves it."""

    degree: int
    algebra_dim: int
    jacobian_class: tuple[Fraction, ...]
    functional: tuple[Fraction, ...]
    signature_split: tuple[int, int]


def build_algebra(germ: Sequence[Poly]) -> LocalAlgebra:
    """Local algebra of a square germ, given as the sequence of its component
    polynomials (one per variable, all in one ambient)."""
    if not germ or len(germ) != len(germ[0].vars):
        raise ValueError("build_algebra needs a square germ")
    return LocalAlgebra(LocalIdeal(germ))


def signature(matrix: Sequence[Sequence]) -> tuple[int, int, int]:
    """Inertia (positives, negatives, zeros) of an exact symmetric matrix,
    given as a square list of rows.

    Symmetric congruence elimination on the nonzero entries only, kept as
    {row: {col: value}}.  Each step pivots on the nonzero diagonal entry
    whose row has the fewest entries, lowest index first (Markowitz's rule),
    which keeps fill-in small on the sparse residue pairing.  When every
    diagonal entry is zero, row and column j are first added into i for a
    nonzero a[i][j], which leaves a[i][i] = 2*a[i][j] != 0.
    """
    n = len(matrix)
    rows: dict[int, dict[int, Fraction]] = {}
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix must be square")
        nonzeros = {j: Fraction(x) for j, x in enumerate(row) if x}
        if nonzeros:
            rows[i] = nonzeros
    for i, row in rows.items():
        for j, x in row.items():
            if rows.get(j, {}).get(i) != x:
                raise ValueError("matrix must be symmetric")

    pos = neg = 0
    while rows:
        k = min(
            (i for i, row in rows.items() if i in row),
            key=lambda i: (len(rows[i]), i),
            default=None,
        )
        if k is None:
            # every diagonal entry is zero: add row and column j into i,
            # which makes a[i][i] = 2*a[i][j]
            i = min(rows, key=lambda r: (len(rows[r]), r))
            j = min(rows[i], key=lambda c: (len(rows[c]), c))
            ri = rows[i]
            for c, v in rows[j].items():
                if c == i:
                    continue
                s = ri.get(c, 0) + v
                if s:
                    ri[c] = rows[c][i] = s
                else:
                    del ri[c], rows[c][i]
            ri[i] = 2 * ri[j]
            continue
        rk = rows.pop(k)
        p = rk.pop(k)
        if p > 0:
            pos += 1
        else:
            neg += 1
        # a[i][j] -= a[i][k]*a[k][j]/p on the pivot's neighbours, each pair
        # once; on numerators and denominators, which makes one Fraction per
        # entry instead of two
        pn, pd = p.numerator, p.denominator
        nbrs = [(i, a.numerator, a.denominator) for i, a in rk.items()]
        for at, (i, an, ad) in enumerate(nbrs):
            ri = rows[i]
            del ri[k]
            fn, fd = an * pd, ad * pn  # a[i][k]/p
            for j, bn, bd in nbrs[at:]:
                v = ri.get(j)
                if v is None:
                    num, den = -fn * bn, fd * bd
                else:
                    vd = v.denominator
                    num, den = v.numerator * fd * bd - fn * bn * vd, vd * fd * bd
                if num:
                    ri[j] = rows[j][i] = Fraction(num, den)
                elif v is not None:
                    del ri[j]
                    if j != i:
                        del rows[j][i]
            if not ri:
                del rows[i]
    return pos, neg, n - pos - neg


def local_degree(germ: Sequence[Poly]) -> DegreeCertificate:
    """Local topological degree at the origin of a square germ, given as the
    sequence of its component polynomials.

    A germ whose components have no common zero near the origin (unit
    component ideal) gets degree 0 with an empty certificate.
    """
    algebra = build_algebra(germ)
    if algebra.dim == 0:
        return DegreeCertificate(0, 0, (), (), (0, 0))

    jdet = jacobian_det(germ)
    jclass = algebra.coords(jdet)
    star = None
    for i in range(algebra.dim - 1, -1, -1):
        if jclass[i] != 0:
            star = i
            sign = 1 if jclass[i] > 0 else -1
            break
    if star is None:
        raise DegenerateJacobianClass(
            "the Jacobian determinant vanishes in the local algebra; "
            "the zero is not algebraically isolated"
        )

    staircase = algebra._staircase
    table = algebra.functional_table(staircase[star])
    cap = algebra._cap
    dim = algebra.dim
    zero_row = [Fraction(0)] * dim
    b = [zero_row[:] for _ in range(dim)]
    for i, mi in enumerate(staircase):
        for j in range(i, dim):
            # the staircase ascends in degree: so do the products mi * mj
            prod = mi + staircase[j]
            if prod >= cap:
                break
            v = table[prod]
            if v:
                b[i][j] = b[j][i] = v if sign > 0 else -v

    pos, neg, zero = signature(b)
    if zero:
        raise InternalInconsistency(
            "residue pairing is degenerate despite a nonzero Jacobian class"
        )
    functional = tuple(Fraction(sign if k == star else 0) for k in range(dim))
    phi_j = sum(f * c for f, c in zip(functional, jclass))
    if phi_j <= 0:
        raise InternalInconsistency("chosen functional is not positive on the Jacobian class")
    return DegreeCertificate(pos - neg, dim, jclass, functional, (pos, neg))
