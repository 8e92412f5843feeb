"""Local topological degree of polynomial germs with algebraically isolated
zeros, computed through the signature of the residue pairing on the local
algebra (the Eisenbud-Levine / Khimshiashvili formula).

The local algebra Q of a square germ g is the quotient of the local ring by
the ideal of components.  When Q is finite-dimensional its maximal ideal is
nilpotent: with N = 1 + (max staircase degree), every monomial of degree >= N
lies in the localized ideal, so Q is the quotient of the polynomials of
degree < N by the span of the truncated multiples of the standard basis.
That description gives exact, canonical coordinates on the staircase basis by
a straight linear recursion on monomials; no normal-form units are involved.

The degree is then the signature of the bilinear form (a, b) -> phi(a*b),
where phi is any linear functional positive on the class of the Jacobian
determinant of g; here phi is the dual functional of one staircase monomial
carrying a nonzero coefficient in that class, with the sign fixed to make it
positive.  The form is nondegenerate and its signature does not depend on the
admissible phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iterproduct
from typing import Sequence

from .errors import (
    DegenerateJacobianClass,
    InternalInconsistency,
    NotAlgebraicallyIsolated,
)
from .polyring import (
    MapGerm,
    Monomial,
    Poly,
    jacobian_det,
    monomial_mul,
    monomial_sort_key,
)
from .standard_basis import INFINITE, LocalIdeal


class LocalAlgebra:
    """Finite-dimensional local algebra of a square germ, with exact
    coordinates relative to its staircase basis."""

    def __init__(self, ideal: LocalIdeal):
        dim = ideal.quotient_dim()
        if dim == INFINITE:
            raise NotAlgebraicallyIsolated(
                "the germ's zero is not algebraically isolated "
                "(local algebra is infinite-dimensional)"
            )
        self.ideal = ideal
        self.vars = ideal.vars
        self.cobasis: tuple[Monomial, ...] = ideal.cobasis().monomials
        self.dim: int = int(dim)
        self._index = {m: i for i, m in enumerate(self.cobasis)}
        self._n = 1 + max((sum(m) for m in self.cobasis), default=-1)
        self._rows = self._build_rows()
        self._tables: dict[Monomial, dict[Monomial, Fraction]] = {}
        self._coords_memo: dict[Monomial, tuple[Fraction, ...]] = {}
        self._mult_table: dict[tuple[int, int], tuple[Fraction, ...]] | None = None

    # -- construction --------------------------------------------------------

    def _all_monomials(self) -> list[Monomial]:
        nv = len(self.vars)
        out = [
            m
            for m in _iterproduct(*(range(self._n) for _ in range(nv)))
            if sum(m) < self._n
        ]
        out.sort(key=monomial_sort_key)
        return out

    def _build_rows(self):
        """For each non-staircase monomial m of degree < N, a relation
        m = -(1/lc) * sum(tail) modulo the ideal, from a shifted basis element."""
        core = self.ideal._ensure_core()
        rows: dict[Monomial, tuple[int, tuple[tuple[Monomial, int], ...]]] = {}
        for m in self._all_monomials():
            if m in self._index:
                continue
            best = None
            for r in core.reducers:
                if all(a <= b for a, b in zip(r.lm, m)):
                    if best is None or (r.size, r.idx) < (best.size, best.idx):
                        best = r
            if best is None:
                raise InternalInconsistency(
                    f"monomial {m} is neither standard nor reducible"
                )
            w = tuple(a - b for a, b in zip(m, best.lm))
            tail = tuple(
                (monomial_mul(mono, w), c)
                for mono, c in best.tail
                if sum(mono) + sum(w) < self._n
            )
            rows[m] = (best.lc, tail)
        return rows

    # -- canonical reduction --------------------------------------------------

    def functional_table(self, m_star: Monomial) -> dict[Monomial, Fraction]:
        """Values of the dual functional of the staircase monomial m_star on
        the classes of all monomials of degree < N."""
        if m_star not in self._index:
            raise ValueError(f"{m_star} is not a staircase monomial")
        table = self._tables.get(m_star)
        if table is not None:
            return table
        table = {}
        for m in sorted(self._rows, key=monomial_sort_key, reverse=True):
            lc, tail = self._rows[m]
            acc = Fraction(0)
            for mono, c in tail:
                if mono in self._index:
                    if mono == m_star:
                        acc += c
                else:
                    v = table[mono]
                    if v:
                        acc += c * v
            table[m] = -acc / lc
        for m in self.cobasis:
            table[m] = Fraction(1 if m == m_star else 0)
        self._tables[m_star] = table
        return table

    def coords_monomial(self, m: Monomial) -> tuple[Fraction, ...]:
        """Coordinates of the class of a monomial in the staircase basis."""
        zero = tuple([Fraction(0)] * self.dim)
        if sum(m) >= self._n:
            return zero
        i = self._index.get(m)
        if i is not None:
            return zero[:i] + (Fraction(1),) + zero[i + 1 :]
        memo = self._coords_memo
        stack = [m]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            lc, tail = self._rows[top]
            pending = [
                mono for mono, _ in tail
                if mono not in memo and mono not in self._index
            ]
            if pending:
                stack.extend(pending)
                continue
            vec = [Fraction(0)] * self.dim
            for mono, c in tail:
                j = self._index.get(mono)
                if j is not None:
                    vec[j] += c
                else:
                    child = memo[mono]
                    for k in range(self.dim):
                        if child[k]:
                            vec[k] += c * child[k]
            memo[top] = tuple(-v / lc for v in vec)
            stack.pop()
        return memo[m]

    def coords(self, p: Poly) -> tuple[Fraction, ...]:
        """Coordinates of the class of p in the staircase basis."""
        if p.vars != self.vars:
            raise ValueError("ambient mismatch")
        vec = [Fraction(0)] * self.dim
        for m, c in p.terms.items():
            cm = self.coords_monomial(m)
            for k in range(self.dim):
                if cm[k]:
                    vec[k] += c * cm[k]
        return tuple(vec)

    def mult_table(self) -> dict[tuple[int, int], tuple[Fraction, ...]]:
        """Coordinates of every product of two staircase basis elements."""
        if self._mult_table is None:
            table = {}
            for i, mi in enumerate(self.cobasis):
                for j, mj in enumerate(self.cobasis[i:], start=i):
                    table[(i, j)] = self.coords_monomial(monomial_mul(mi, mj))
            self._mult_table = table
        return self._mult_table


@dataclass(frozen=True)
class DegreeCertificate:
    """A local topological degree with the data that proves it."""

    degree: int
    algebra_dim: int
    jacobian_class: tuple[Fraction, ...]
    functional: tuple[Fraction, ...]
    signature_split: tuple[int, int]


def build_algebra(germ: MapGerm | Sequence[Poly]) -> LocalAlgebra:
    """Local algebra of a square germ's component ideal."""
    comps = tuple(germ.components if isinstance(germ, MapGerm) else germ)
    if not comps or len(comps) != len(comps[0].vars):
        raise ValueError("build_algebra needs a square germ")
    return LocalAlgebra(LocalIdeal(comps))


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


def local_degree(germ: MapGerm | Sequence[Poly]) -> DegreeCertificate:
    """Local topological degree of a square germ at the origin.

    A germ whose components have no common zero near the origin (unit
    component ideal) gets degree 0 with an empty certificate.
    """
    comps = tuple(germ.components if isinstance(germ, MapGerm) else germ)
    algebra = build_algebra(comps)
    if algebra.dim == 0:
        return DegreeCertificate(0, 0, (), (), (0, 0))

    jdet = jacobian_det(comps)
    jclass = algebra.coords(jdet)
    m_star = None
    for i in range(algebra.dim - 1, -1, -1):
        if jclass[i] != 0:
            m_star = algebra.cobasis[i]
            sign = 1 if jclass[i] > 0 else -1
            break
    if m_star is None:
        raise DegenerateJacobianClass(
            "the Jacobian determinant vanishes in the local algebra; "
            "the zero is not algebraically isolated"
        )

    table = algebra.functional_table(m_star)
    n_cap = algebra._n
    dim = algebra.dim
    zero_row = [Fraction(0)] * dim
    b = [zero_row[:] for _ in range(dim)]
    for i, mi in enumerate(algebra.cobasis):
        for j in range(i, dim):
            prod = monomial_mul(mi, algebra.cobasis[j])
            if sum(prod) < n_cap:
                v = table[prod]
                if v:
                    b[i][j] = b[j][i] = v if sign > 0 else -v

    pos, neg, zero = signature(b)
    if zero:
        raise InternalInconsistency(
            "residue pairing is degenerate despite a nonzero Jacobian class"
        )
    functional = tuple(
        Fraction(sign if m == m_star else 0) for m in algebra.cobasis
    )
    phi_j = sum(f * c for f, c in zip(functional, jclass))
    if phi_j <= 0:
        raise InternalInconsistency("chosen functional is not positive on the Jacobian class")
    return DegreeCertificate(pos - neg, dim, jclass, functional, (pos, neg))
