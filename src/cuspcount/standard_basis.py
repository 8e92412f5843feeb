"""Standard bases of ideals in the local ring at the origin.

Everything here runs over one fixed local monomial order: lower total degree
means larger monomial, ties broken reverse-lexicographically, so 1 is the
largest monomial and the order is compatible with multiplication.  Leading
monomials with respect to this order determine membership and codimension in
the localization of the polynomial ring at the origin; the ring of analytic
germs is faithfully flat over that localization, so for polynomial data
membership in the localized ideal is exactly membership in the corresponding
ideal of germs.

The basis itself is computed by Lazard's method: each generator is
homogenized with an auxiliary variable, a Groebner basis is computed for the
global order "total degree first, ties by the local order on the x-part",
and the x-parts of the result are the dehomogenized basis.  Since s-polynomials of homogeneous inputs
stay homogeneous, every reduction happens inside a single degree, which
avoids the degree-climbing reductions Mora's direct algorithm is prone to.
The homogenizing variable is never materialized: a homogeneous polynomial is
stored as its x-part plus its total degree, the exponent of the auxiliary
variable being determined by the difference.

Membership is decided by comparing lead ideals.  In the local ring an
inclusion I <= I' of ideals with equal lead ideals L(I) = L(I') is an
equality, so p lies in I exactly when the standard basis of I + <p> has no
lead outside L(I).  This needs no normal form and no unit bookkeeping, and
it treats finite and infinite codimension alike.

Four facts are exploited for speed, all exact:

* Once the partial basis has a pure power of every variable among its lead
  monomials, every monomial of degree >= D := 1 + (max staircase degree)
  reduces to zero against it, hence lies in the localized ideal.  From then
  on no term of degree >= D is computed: s-pairs whose lead lcm has degree
  >= D are skipped, and tails, sorted ascending, are read only up to their
  first term of degree >= D.  Elements keep the terms they were written
  with: a term of degree >= D lies in the localized ideal and, shifted,
  only ever makes terms of degree >= D, and an element whose lead has
  degree >= D forms only skipped s-pairs and reduces no term below D.
  This caps degree and coefficient growth and never changes the localized
  ideal.
* All basis elements are content-stripped integer polynomials, and
  reduction is fraction-free: it multiplies by a reducer's lead coefficient
  instead of dividing by it, so completion does no rational arithmetic.
  Every reduction uses the oldest element whose lead divides the term,
  because the oldest elements carry the smallest coefficients.
* The truncation degree is recomputed, from a staircase walk, only when a
  new lead is divisible by no lead already in the basis; any other lead
  leaves the lead ideal as it was.
* Every monomial is one int, packed as in Poly's terms, so heaps and sorted
  tails hold plain ints, divisibility is one subtraction and a mask test,
  and "degree < D" is the comparison m < D << shift.  Every ideal lives
  in (t, x1, x2), so the three fields, their guard bits and the shift of
  the degree field are constants.  A completion whose degrees would
  outgrow the exponent fields raises ExponentOverflow.

The completion ends with one staircase walk over the final minimal leads,
one degree past D.  Its monomials below D are the staircase it hands over:
quotient dimensions and the cobasis of a local algebra are read off it,
never computed again.  Its monomials of degree D lie in the localized ideal
and join the basis, so that the basis generates the full lead ideal.

The local algebra Q of a zero-dimensional ideal is the quotient of the local
ring by it.  Its maximal ideal is nilpotent: with N = 1 + (max staircase
degree), every monomial of degree >= N lies in the localized ideal, so Q is
the quotient of the polynomials of degree < N by the span of the truncated
multiples of the standard basis.  LocalAlgebra's exact, canonical
coordinates on the staircase basis come from the completion's own reduction
below degree N, and the dual functional phi of a staircase monomial from one
bottom-up pass over the reducers, kept as its nonzero values: int
numerators over one positive denominator den, which the pass multiplies up
only where a reducer's lead coefficient does not divide the value it
builds.  The pass enumerates the monomials below N directly, one range
of packed ints at a time (_box).  The residue pairing is den*phi, all
ints, and no normal-form units are involved; each row of it stops at its
degree cut, since a product of degree >= N reads 0.  Every monomial of
degree N is zero in Q, so each staircase monomial of top degree is
annihilated by the maximal ideal.  For a complete intersection the
annihilator of the maximal ideal, the socle, is one-dimensional; the last
staircase monomial is then the only one of top degree and spans it.
"""

from __future__ import annotations

import heapq
import threading
from bisect import bisect_left
from fractions import Fraction
from itertools import islice, repeat
from math import gcd, inf
from typing import NamedTuple, Sequence

from .errors import DimensionInfinite, InternalInconsistency
from .polyring import (
    FIELD_BITS,
    FIELD_MASK,
    MAX_DEGREE,
    VARS_TX,
    Monomial,
    Poly,
    check_degree,
    guard_bits,
    unpack_monomial,
)

#: returned by quotient_dim when the quotient is not finite-dimensional
INFINITE = inf

# every ideal and algebra here lives in VARS_TX: a packed monomial holds its
# degree from _SHIFT up, and _GUARDS are the guard bits of its three fields
_SHIFT = FIELD_BITS * 3
_GUARDS = guard_bits(3)


def _check_ambient(p: Poly) -> None:
    if p.vars != VARS_TX:
        raise ValueError(
            f"the local ring is that of (t, x1, x2), not of the ambient {p.vars}"
        )


# ---------------------------------------------------------------------------
# packed monomials (packed as in polyring) and integer polynomials on them
# ---------------------------------------------------------------------------


def _divides(a: int, b: int) -> bool:
    return ((b | _GUARDS) - a) & _GUARDS == _GUARDS


def _lcm(a: int, b: int) -> int:
    """Least common multiple of two packed monomials, field by field."""
    # all bits of the fields in which a's exponent is at least b's
    take_a = ((((a | _GUARDS) - b) & _GUARDS) >> (FIELD_BITS - 1)) * FIELD_MASK
    x = (a & take_a) | (b & ~take_a & ((1 << _SHIFT) - 1))
    t, x1, x2 = x & FIELD_MASK, (x >> FIELD_BITS) & FIELD_MASK, x >> (2 * FIELD_BITS)
    return ((t + x1 + x2) << _SHIFT) | x


def _primitive(terms: dict[int, int]) -> dict[int, int]:
    """Strip integer content and normalize the lead coefficient positive."""
    g = gcd(*terms.values())
    if terms[min(terms)] < 0:
        g = -g
    if g == 1:
        return terms
    return {m: c // g for m, c in terms.items()}


# ---------------------------------------------------------------------------
# homogeneous elements (the homogenizing exponent is implicit)
# ---------------------------------------------------------------------------


class _Elem:
    """A homogeneous basis element: packed x-part terms plus its total degree.

    A term x^m carries an implicit factor of the homogenizing variable with
    exponent d - |m|.  The >-lead of a homogeneous element is the term whose
    x-part is largest in the local order, i.e. the smallest packed int; the
    tail is sorted ascending.
    """

    __slots__ = ("lm", "lc", "a", "tail", "idx")

    def __init__(self, terms: dict[int, int], d: int, idx: int):
        lm = min(terms)
        self.lm = lm
        self.lc = terms[lm]
        self.a = d - (lm >> _SHIFT)  # homogenizer exponent of the lead
        self.tail = tuple(sorted((m, c) for m, c in terms.items() if m != lm))
        self.idx = idx

    def terms(self) -> dict[int, int]:
        out = {self.lm: self.lc}
        out.update(self.tail)
        return out


def _hspoly(f: _Elem, g: _Elem, lcm: int, lim: int) -> dict[int, int]:
    """x-part of the s-polynomial of f and g, whose leads have the packed
    lcm, without the terms at or above lim.  A tail shifted by a monomial
    stays sorted, so each loop stops at its first term past lim."""
    cl = f.lc * g.lc // gcd(f.lc, g.lc)
    af, ag = cl // f.lc, cl // g.lc
    wf, wg = lcm - f.lm, lcm - g.lm
    out: dict[int, int] = {}
    for m, c in f.tail:
        mm = m + wf
        if mm >= lim:
            break
        out[mm] = af * c
    for m, c in g.tail:
        mm = m + wg
        if mm >= lim:
            break
        s = out.get(mm, 0) - ag * c
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return out


def _hreduce(
    d_p: int, p_terms: dict[int, int], basis: list[_Elem], lim: int
) -> tuple[dict[int, int], int]:
    """Full reduction of a homogeneous polynomial of degree d_p.

    A term x^m (implicit homogenizer exponent d_p - |m|) is reducible by r
    when r's lead x-part divides m and r's lead homogenizer exponent fits,
    i.e. r.a <= d_p - |m|; among those, the oldest is used: the first in
    basis, which lists elements in the order the completion wrote them.
    The order is global, so plain top-down reduction terminates.
    The reduction is fraction-free: where a step would divide by r's lead
    coefficient, everything is multiplied by it instead, so coefficients
    stay integers.  Returns the reduced terms and that total multiplier, a
    nonzero int: the terms divided by it are the rational reduction.
    Terms at or past the packed bound lim are dropped: a reducer's tail,
    sorted ascending and shifted, is read up to its first term past lim.
    """
    # r.a <= d_p - |m| is m < top
    reducers = [((d_p - r.a + 1) << _SHIFT, r.lm, r) for r in basis]
    h = {m: c for m, c in p_terms.items() if m < lim}
    heap = list(h)
    heapq.heapify(heap)
    out: dict[int, int] = {}
    mult = 1
    while heap:
        m = heapq.heappop(heap)
        c = h.pop(m, None)
        if c is None:
            continue
        mg = m | _GUARDS
        for top, lm, red in reducers:
            if m < top and (mg - lm) & _GUARDS == _GUARDS:
                break
        else:
            out[m] = c
            continue
        g = gcd(c, red.lc)
        scale, q = red.lc // g, c // g
        if scale != 1:
            mult *= scale
            h = {mm: cc * scale for mm, cc in h.items()}
            out = {mm: cc * scale for mm, cc in out.items()}
        w = m - lm
        for mono, cc in red.tail:
            mm = mono + w
            if mm >= lim:
                break
            d = q * cc
            old = h.get(mm)
            if old is None:
                h[mm] = -d
                heapq.heappush(heap, mm)
            elif old == d:
                del h[mm]
            else:
                h[mm] = old - d
    return out, mult


# ---------------------------------------------------------------------------
# staircase of a lead-monomial set
# ---------------------------------------------------------------------------


def _staircase(leads: Sequence[int], trunc: int | None) -> list[int] | None:
    """The packed monomials under the staircase of the packed leads,
    ascending, or None when there are infinitely many.

    There are infinitely many exactly when there is no truncation degree
    and some variable has no pure power among the leads.  Otherwise the
    staircase, closed under division, is walked one degree at a time: at
    degree d it keeps the monomials that no lead of degree <= d divides, and
    the monomials one variable above those are the next degree's.
    """
    if trunc is None and not all(
        any(lm >> _SHIFT and (lm >> (FIELD_BITS * v)) & FIELD_MASK == lm >> _SHIFT
            for lm in leads)
        for v in range(3)
    ):
        return None
    lim = (MAX_DEGREE + 1 if trunc is None else trunc) << _SHIFT
    steps = [(1 << _SHIFT) + (1 << (FIELD_BITS * v)) for v in range(3)]
    leads = sorted(leads)
    out: list[int] = []
    level, d, seen = [0], 0, 0
    while level:
        while seen < len(leads) and leads[seen] >> _SHIFT <= d:
            seen += 1
        active = leads[:seen]  # the leads of degree <= d
        kept = []
        for m in level:
            mg = m | _GUARDS
            for lm in active:
                if (mg - lm) & _GUARDS == _GUARDS:
                    break
            else:
                kept.append(m)
        out.extend(kept)
        level = sorted({m + s for m in kept for s in steps if m + s < lim})
        d += 1
    return out


def _box(n: int) -> list[int]:
    """The packed monomials t^a x1^b x2^c of degree < n, descending.

    Within degree d and x2 exponent c, the rest r = d - c splits over t and
    x1 as (r - b, b) for b = r..0, which packs to base + r + b*FIELD_MASK:
    the descending ints of those monomials are one range.
    """
    out: list[int] = []
    for d in range(n - 1, -1, -1):
        for c in range(d, -1, -1):
            base, r = (d << _SHIFT) + (c << (2 * FIELD_BITS)), d - c
            out.extend(range(base + (r << FIELD_BITS), base + r - 1, -FIELD_MASK))
    return out


# ---------------------------------------------------------------------------
# completion (Buchberger on the homogenized ideal)
# ---------------------------------------------------------------------------


class _Core(NamedTuple):
    """Result of a completed standard-basis computation.

    reducers is the minimal basis, oldest first: the completion's elements
    in the order it wrote them, then the materialized monomials of degree
    trunc, so every reduction that takes the first fitting reducer takes
    the oldest.  staircase holds packed monomials in ascending order
    (largest monomial first); it is None when the quotient is
    infinite-dimensional and () for the unit ideal.
    """

    reducers: list[_Elem]
    trunc: int | None
    staircase: tuple[int, ...] | None


def _complete(gens: list[dict[int, int]]) -> _Core:
    elems: list[_Elem] = []
    pairs: list[tuple[int, int, int, int]] = []
    done: set[tuple[int, int]] = set()
    trunc: int | None = None
    lim = (MAX_DEGREE + 1) << _SHIFT  # packed truncation bound
    # a generator with a constant term is a unit; generators without one
    # only ever make terms of x-degree >= 1, so no later lead is 1
    if any(0 in g for g in gens):
        return _Core([_Elem({0: 1}, 0, 0)], 0, ())

    def add(terms: dict[int, int], d: int) -> None:
        nonlocal trunc, lim
        if min(terms) >= lim:
            return
        e = _Elem(_primitive(terms), d, len(elems))
        for j, other in enumerate(elems):
            lcm = _lcm(e.lm, other.lm)
            heapq.heappush(
                pairs, (max(e.a, other.a) + (lcm >> _SHIFT), lcm, j, e.idx)
            )
        # a lead divisible by a lead in the basis leaves the staircase as it is
        eg = e.lm | _GUARDS
        moves_staircase = True
        for other in elems:
            if (eg - other.lm) & _GUARDS == _GUARDS:
                moves_staircase = False
                break
        elems.append(e)
        if moves_staircase:
            st = _staircase([other.lm for other in elems], trunc)
            if st is not None:
                trunc = 1 + (st[-1] >> _SHIFT)
                # the basis gains monomials of degree trunc
                check_degree(trunc)
                lim = trunc << _SHIFT

    for g in gens:
        add(g, max(g) >> _SHIFT)

    while pairs:
        d_sp, lcm, i, j = heapq.heappop(pairs)
        done.add((i, j))
        # a lead at or past lim puts the pair's lcm there too
        if trunc is not None and lcm >= lim:
            continue
        ei, ej = elems[i], elems[j]
        # product criterion: coprime x-leads and one lead free of the
        # homogenizer make the s-polynomial reduce to zero
        if min(ei.a, ej.a) == 0 and lcm == ei.lm + ej.lm:
            continue
        # chain criterion
        skip = False
        lcm_a = max(ei.a, ej.a)
        for k, ek in enumerate(elems):
            if k == i or k == j:
                continue
            if (ek.a <= lcm_a and _divides(ek.lm, lcm)
                    and (min(i, k), max(i, k)) in done
                    and (min(j, k), max(j, k)) in done):
                skip = True
                break
        if skip:
            continue
        check_degree(d_sp)
        sp = _hspoly(ei, ej, lcm, lim)
        if not sp:
            continue
        nf, _ = _hreduce(d_sp, sp, elems, lim)
        if not nf:
            continue
        # add() makes the remainder primitive
        add(nf, d_sp)

    # keep only elements with minimal lead monomials below the bound
    final = [e for e in elems if e.lm < lim]
    kept: list[_Elem] = []
    for e in final:
        if not any(
            other is not e and _divides(other.lm, e.lm)
            and (e.lm != other.lm or other.idx < e.idx)
            for other in final
        ):
            kept.append(e)
    staircase = None
    if trunc is not None:
        # one walk one degree past the bound: below it lies the staircase,
        # at it the monomials of degree trunc no kept lead divides; those
        # are members of the localized ideal and are materialized so the
        # basis generates the full lead ideal on its own
        walk = _staircase([e.lm for e in kept], trunc + 1)
        staircase = tuple(m for m in walk if m < lim)
        kept += [
            _Elem({k: 1}, trunc, len(elems) + i)
            for i, k in enumerate(walk[len(staircase):])
        ]
    return _Core(kept, trunc, staircase)


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


class LocalIdeal:
    """An ideal of the local ring of (t, x1, x2) at the origin, with a lazily
    computed standard basis.

    The basis is computed at most once (thread-safe single flight); all
    queries afterwards are read-only.
    """

    def __init__(self, generators: Sequence[Poly]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("LocalIdeal needs at least one generator")
        for g in gens:
            _check_ambient(g)
        self.generators = gens
        self._lock = threading.Lock()
        self._core: _Core | None = None

    def _ensure_core(self) -> _Core:
        if self._core is None:
            with self._lock:
                if self._core is None:
                    # add() strips each generator's content
                    gens = [g.terms for g in self.generators if g.terms]
                    self._core = _complete(gens)
        return self._core

    @property
    def std_basis(self) -> tuple[Poly, ...]:
        """The minimal standard basis, in the order the completion wrote
        its elements.  They may carry terms of degree >= truncation_degree:
        the completion keeps elements as written, and those terms lie in
        the ideal anyway."""
        return tuple(
            Poly._packed(VARS_TX, e.terms()) for e in self._ensure_core().reducers
        )

    @property
    def lead_monomials(self) -> tuple[Monomial, ...]:
        return tuple(unpack_monomial(e.lm, 3) for e in self._ensure_core().reducers)

    @property
    def truncation_degree(self) -> int | None:
        """Degree D with m^D inside the localized ideal, when one was found."""
        return self._ensure_core().trunc

    def contains(self, p: Poly) -> bool:
        """Exact membership of p in the localized ideal I.

        Completes I + <p> and compares lead ideals: p lies in I exactly when
        every lead of I + <p> is divisible by a lead of I.  No case needs
        its own branch: the unit ideal's lead 1 divides every lead, a unit
        I + <p> has the lead 1, which no lead of a proper I divides, and when
        I has a truncation degree its leads cover every monomial of that
        degree.
        """
        _check_ambient(p)
        mine = [e.lm for e in self._ensure_core().reducers]
        bigger = LocalIdeal(list(self.generators) + [p])._ensure_core()
        return all(
            any(_divides(lm, e.lm) for lm in mine)
            for e in bigger.reducers
        )

    def quotient_dim(self):
        """Vector-space dimension of the local quotient, or INFINITE."""
        st = self._ensure_core().staircase
        return INFINITE if st is None else len(st)

    def cobasis(self) -> tuple[Monomial, ...]:
        """The staircase: the monomials outside the lead ideal as exponent
        tuples, largest first; they form a basis of the quotient.  The one
        finiteness check of every local algebra: raises DimensionInfinite."""
        if self.quotient_dim() == INFINITE:
            raise DimensionInfinite("the ideal has infinite codimension")
        return tuple(unpack_monomial(m, 3) for m in self._ensure_core().staircase)


class LocalAlgebra:
    """Finite-dimensional local algebra of an ideal, with exact coordinates
    relative to its staircase basis.

    The staircase basis and the truncation degree N are the ones the
    completion of the ideal hands over.  cobasis lists the staircase as
    exponent tuples; functional_table keeps a dual functional's nonzero
    values only, as ints over one denominator keyed by packed monomials,
    and socle_pairing reads the integer pairing off them.
    """

    def __init__(self, ideal: LocalIdeal):
        self.cobasis: tuple[Monomial, ...] = ideal.cobasis()
        core = ideal._ensure_core()
        self.dim: int = len(self.cobasis)
        self._staircase: tuple[int, ...] = core.staircase
        self._index = {m: i for i, m in enumerate(core.staircase)}
        self._n: int = core.trunc
        # packed monomials below _cap are those of degree < N
        self._cap = self._n << _SHIFT
        self._reducers = core.reducers
        # at this degree no homogenizer exponent blocks a term below N, so a
        # reducer applies to a monomial exactly when its lead divides it
        self._hdeg = self._n - 1 + max(r.a for r in core.reducers)

    def _unreduced(self, m: int) -> InternalInconsistency:
        return InternalInconsistency(
            f"monomial {unpack_monomial(m, 3)} is neither "
            "standard nor reducible"
        )

    def functional_table(self, m_star: int) -> tuple[dict[int, int], int]:
        """The dual functional phi of the packed staircase monomial m_star
        on the classes of the monomials of degree < N, as (values, den):
        values holds the nonzero ints den*phi(m), keyed by packed monomial,
        over one positive denominator den; a monomial of degree < N that is
        not a key has value 0."""
        if m_star not in self._index:
            raise ValueError(f"{m_star!r} is not a packed staircase monomial")
        index, reducers, cap = self._index, self._reducers, self._cap
        table, den = {m_star: 1}, 1
        # smallest first: m = -(1/lc) * (tail of its reducer shifted onto m),
        # and every term of that tail is smaller than m
        for m in _box(self._n):
            if m in index:
                continue
            mg = m | _GUARDS
            for red in reducers:
                if (mg - red.lm) & _GUARDS == _GUARDS:
                    break
            else:
                raise self._unreduced(m)
            w = m - red.lm
            acc = 0
            for mono, c in red.tail:
                mm = mono + w
                if mm >= cap:
                    break
                v = table.get(mm)
                if v is not None:
                    acc += c * v
            if acc:
                # every lead coefficient is positive, so den stays positive
                lc = red.lc
                if acc % lc:
                    g = lc // gcd(acc, lc)
                    den *= g
                    acc *= g
                    table = {mm: v * g for mm, v in table.items()}
                table[m] = -acc // lc
        return table, den

    def coords(self, p: Poly) -> tuple[Fraction, ...]:
        """Coordinates of the class of p in the staircase basis: the
        completion's reduction of p below degree N, divided by its
        multiplier and by p's denominator."""
        _check_ambient(p)
        out, mult = _hreduce(self._hdeg, p.terms, self._reducers, self._cap)
        vec = [Fraction(0)] * self.dim
        den = mult * p.den
        for m, c in out.items():
            i = self._index.get(m)
            if i is None:
                raise self._unreduced(m)
            vec[i] = Fraction(c, den)
        return tuple(vec)

    def socle_pairing(self) -> list[list[int]]:
        """The integer pairing (a, b) -> den*phi(a*b) on the staircase basis
        as a square list of rows, for phi the dual functional of the last
        staircase monomial, which spans the socle of a complete
        intersection, and den its positive denominator: a positive multiple
        of phi's pairing, so of the same signature.  A product of degree
        >= N reads 0, so a row reads phi's table only up to its degree cut
        and is padded with zeros."""
        staircase, n = self._staircase, self._n
        table, _ = self.functional_table(staircase[-1])
        get, zeros = table.get, repeat(0)
        rows = []
        for mi in staircase:
            # the partners of degree < N - deg(mi), a prefix of the staircase;
            # islice, because a tuple slice per row, of every length, raised
            # the peak RSS of a long run
            width = bisect_left(staircase, (n - (mi >> _SHIFT)) << _SHIFT)
            row = list(map(get, map(mi.__add__, islice(staircase, width)), zeros))
            row += [0] * (self.dim - width)
            rows.append(row)
        return rows
