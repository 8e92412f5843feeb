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

Three facts are exploited for speed, all exact:

* Once the partial basis has a pure power of every variable among its lead
  monomials, every monomial of degree >= D := 1 + (max staircase degree)
  reduces to zero against it, hence lies in the localized ideal.  From then
  on all polynomials are truncated below degree D; this caps degree and
  coefficient growth and never changes the localized ideal.
* All basis elements are content-stripped integer polynomials, and
  reduction is fraction-free: it multiplies by a reducer's lead coefficient
  instead of dividing by it, so completion does no rational arithmetic.
* The staircase, and with it the truncation degree, is recomputed only when
  a new lead is divisible by no lead already in the basis; any other lead
  leaves the lead ideal as it was.

The staircase of the last such recomputation is therefore the staircase of
the finished basis, and the completion hands it over: quotient dimensions and
the cobasis of a local algebra are read off it, never computed again.
"""

from __future__ import annotations

import heapq
import threading
from fractions import Fraction
from itertools import product as _iterproduct
from math import gcd, inf
from typing import Sequence

from .errors import DimensionInfinite
from .polyring import (
    Monomial,
    Poly,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomial_sort_key,
)

#: returned by quotient_dim when the quotient is not finite-dimensional
INFINITE = inf


# ---------------------------------------------------------------------------
# integer polynomial helpers
# ---------------------------------------------------------------------------


def _primitive(terms: dict[Monomial, int]) -> dict[Monomial, int]:
    """Strip integer content and normalize the lead coefficient positive."""
    if not terms:
        return terms
    g = 0
    for c in terms.values():
        g = gcd(g, c)
    lm = min(terms, key=monomial_sort_key)
    if terms[lm] < 0:
        g = -g
    if g == 1:
        return terms
    return {m: c // g for m, c in terms.items()}


def _to_int_terms(p: Poly) -> dict[Monomial, int]:
    """Clear denominators; result is primitive with positive lead coefficient."""
    if p.is_zero():
        return {}
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    return _primitive({m: int(c * den) for m, c in p.terms.items()})


def _truncate(terms: dict[Monomial, int], trunc: int | None) -> dict[Monomial, int]:
    if trunc is None:
        return terms
    return {m: c for m, c in terms.items() if sum(m) < trunc}


# ---------------------------------------------------------------------------
# homogeneous elements (the homogenizing exponent is implicit)
# ---------------------------------------------------------------------------


class _Elem:
    """A homogeneous basis element: x-part terms plus its total degree.

    A term x^m carries an implicit factor of the homogenizing variable with
    exponent d - |m|.  The >-lead of a homogeneous element is the term whose
    x-part is largest in the local order.
    """

    __slots__ = ("d", "lm", "lc", "a", "tail", "size", "idx")

    def __init__(self, terms: dict[Monomial, int], d: int, idx: int):
        lm = min(terms, key=monomial_sort_key)
        self.d = d
        self.lm = lm
        self.lc = terms[lm]
        self.a = d - sum(lm)  # homogenizer exponent of the lead
        self.tail = tuple(sorted(
            ((m, c) for m, c in terms.items() if m != lm),
            key=lambda t: monomial_sort_key(t[0]),
        ))
        self.size = 1 + len(self.tail)
        self.idx = idx

    def terms(self) -> dict[Monomial, int]:
        out = {self.lm: self.lc}
        out.update(self.tail)
        return out


def _hspoly(f: _Elem, g: _Elem, trunc: int | None) -> tuple[int, dict[Monomial, int]]:
    """S-polynomial in the homogenized ring; returns (degree, x-part terms)."""
    lcm_x = monomial_lcm(f.lm, g.lm)
    a = max(f.a, g.a)
    d_sp = a + sum(lcm_x)
    cl = f.lc * g.lc // gcd(f.lc, g.lc)
    af, ag = cl // f.lc, cl // g.lc
    wf, wg = monomial_div(lcm_x, f.lm), monomial_div(lcm_x, g.lm)
    out: dict[Monomial, int] = {}
    for m, c in f.tail:
        mm = monomial_mul(m, wf)
        if trunc is not None and sum(mm) >= trunc:
            continue
        out[mm] = out.get(mm, 0) + af * c
    for m, c in g.tail:
        mm = monomial_mul(m, wg)
        if trunc is not None and sum(mm) >= trunc:
            continue
        s = out.get(mm, 0) - ag * c
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return d_sp, out


def _hreduce(
    d_p: int, p_terms: dict[Monomial, int], basis: list[_Elem], trunc: int | None
) -> dict[Monomial, int]:
    """Full reduction of a homogeneous polynomial of degree d_p.

    A term x^m (implicit homogenizer exponent d_p - |m|) is reducible by r
    when r's lead x-part divides m and r's lead homogenizer exponent fits,
    i.e. r.a <= d_p - |m|; among those, the shortest (then oldest) r is
    used.  The order is global, so plain top-down reduction terminates.
    The reduction is fraction-free: where a step would divide by r's lead
    coefficient, everything is multiplied by it instead, so coefficients
    stay integers and only their common scale differs from the rational
    reduction.  The result is primitive integer, which removes that scale.
    """
    reducers = sorted(basis, key=lambda r: (r.size, r.idx))
    h: dict[Monomial, int] = {}
    heap: list[tuple] = []
    for m, c in p_terms.items():
        if trunc is not None and sum(m) >= trunc:
            continue
        h[m] = c
        heapq.heappush(heap, (monomial_sort_key(m), m))
    out: dict[Monomial, int] = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = h.pop(m, None)
        if c is None:
            continue
        hexp = d_p - sum(m)
        red = next(
            (r for r in reducers if r.a <= hexp and monomial_divides(r.lm, m)), None
        )
        if red is None:
            out[m] = c
            continue
        g = gcd(c, red.lc)
        scale, q = red.lc // g, c // g
        if scale != 1:
            h = {mm: cc * scale for mm, cc in h.items()}
            out = {mm: cc * scale for mm, cc in out.items()}
        w = monomial_div(m, red.lm)
        for mono, cc in red.tail:
            mm = monomial_mul(mono, w)
            if trunc is not None and sum(mm) >= trunc:
                continue
            d = q * cc
            old = h.get(mm)
            if old is None:
                h[mm] = -d
                heapq.heappush(heap, (monomial_sort_key(mm), mm))
            elif old == d:
                del h[mm]
            else:
                h[mm] = old - d
    return _primitive(out)


# ---------------------------------------------------------------------------
# staircase of a lead-monomial set
# ---------------------------------------------------------------------------


def _staircase(
    leads: Sequence[Monomial], nvars: int, trunc: int | None
) -> list[Monomial] | None:
    """Monomials under the staircase, or None when there are infinitely many.

    For each exponent prefix of all variables but the last, the monomials
    under the staircase are the prefix with a last exponent below that of
    every lead whose prefix divides it.
    """
    bounds: list[int] = []
    for v in range(nvars):
        cands = [m[v] for m in leads if m[v] > 0 and sum(m) == m[v]]
        if trunc is not None:
            cands.append(trunc)
        if not cands:
            return None
        bounds.append(min(cands))
    out: list[Monomial] = []
    for prefix in _iterproduct(*(range(b) for b in bounds[:-1])):
        top = bounds[-1]
        if trunc is not None:
            top = min(top, trunc - sum(prefix))
        for lm in leads:
            if lm[-1] < top and monomial_divides(lm[:-1], prefix):
                top = lm[-1]
        out.extend(prefix + (k,) for k in range(top))
    return out


# ---------------------------------------------------------------------------
# completion (Buchberger on the homogenized ideal)
# ---------------------------------------------------------------------------


class _Core:
    """Result of a completed standard-basis computation.

    staircase is sorted by monomial_sort_key; it is None when the quotient
    is infinite-dimensional and () for the unit ideal.
    """

    __slots__ = ("reducers", "trunc", "staircase")

    def __init__(
        self,
        reducers: list[_Elem],
        trunc: int | None,
        staircase: tuple[Monomial, ...] | None,
    ):
        self.reducers = reducers
        self.trunc = trunc
        self.staircase = staircase


def _complete(gens: list[dict[Monomial, int]], nvars: int) -> _Core:
    elems: list[_Elem] = []
    alive: list[bool] = []
    pairs: list[tuple] = []
    done: set[tuple[int, int]] = set()
    trunc: int | None = None
    staircase: list[Monomial] | None = None
    zero_mono = tuple([0] * nvars)
    unit = _Core([_Elem({zero_mono: 1}, 0, 0)], 0, ())

    def refresh_truncation() -> None:
        nonlocal trunc, staircase
        leads = [e.lm for e, a in zip(elems, alive) if a]
        st = _staircase(leads, nvars, trunc)
        if st is None:
            return
        # a later lead is divisible by an alive lead or refreshes again, and
        # the leads truncation kills have degree >= trunc: the staircase of
        # the last refresh is final
        staircase = st
        new_trunc = 1 + max((sum(m) for m in st), default=0)
        if trunc is not None and new_trunc >= trunc:
            return
        trunc = new_trunc
        for i, e in enumerate(elems):
            if not alive[i]:
                continue
            cut = _truncate(e.terms(), trunc)
            if not cut:
                alive[i] = False
            elif len(cut) != e.size:
                elems[i] = _Elem(_primitive(cut), e.d, e.idx)

    def add(terms: dict[Monomial, int], d: int) -> bool:
        """Returns True when the dehomogenized ideal is the whole local ring."""
        terms = _primitive(_truncate(terms, trunc))
        if not terms:
            return False
        e = _Elem(terms, d, len(elems))
        if e.lm == zero_mono:
            return True
        for j, other in enumerate(elems):
            if not alive[j]:
                continue
            lcm_x = monomial_lcm(e.lm, other.lm)
            key = (max(e.a, other.a) + sum(lcm_x), monomial_sort_key(lcm_x))
            heapq.heappush(pairs, (key, j, e.idx))
        # a lead divisible by an alive lead leaves the staircase as it is
        moves_staircase = not any(
            a and monomial_divides(other.lm, e.lm) for other, a in zip(elems, alive)
        )
        elems.append(e)
        alive.append(True)
        if moves_staircase:
            refresh_truncation()
        return False

    for g in gens:
        d = max(sum(m) for m in g)
        if add(g, d):
            return unit

    while pairs:
        _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        if not (alive[i] and alive[j]):
            continue
        ei, ej = elems[i], elems[j]
        lcm_x = monomial_lcm(ei.lm, ej.lm)
        if trunc is not None and sum(lcm_x) >= trunc:
            continue
        # product criterion: coprime x-leads and one lead free of the
        # homogenizer make the s-polynomial reduce to zero
        if (min(ei.a, ej.a) == 0
                and all(min(a, b) == 0 for a, b in zip(ei.lm, ej.lm))):
            continue
        # chain criterion
        skip = False
        lcm_a = max(ei.a, ej.a)
        for k, ek in enumerate(elems):
            if k == i or k == j or not alive[k]:
                continue
            if (ek.a <= lcm_a and monomial_divides(ek.lm, lcm_x)
                    and (min(i, k), max(i, k)) in done
                    and (min(j, k), max(j, k)) in done):
                skip = True
                break
        if skip:
            continue
        d_sp, sp = _hspoly(ei, ej, trunc)
        if not sp:
            continue
        reducers = [e for e, a in zip(elems, alive) if a]
        nf = _hreduce(d_sp, sp, reducers, trunc)
        if not nf:
            continue
        if add(nf, d_sp):
            return unit

    # keep only elements with minimal lead monomials
    final = [e for e, a in zip(elems, alive) if a]
    kept: list[_Elem] = []
    for e in final:
        if not any(
            other is not e and monomial_divides(other.lm, e.lm)
            and (monomial_div(e.lm, other.lm) != zero_mono or other.idx < e.idx)
            for other in final
        ):
            kept.append(e)
    if staircase is None:
        return _Core(kept, trunc, None)
    # the truncation-degree monomials are members of the localized ideal;
    # materialize the ones no kept lead covers so the basis generates the
    # full lead ideal on its own (they leave the staircase as it is)
    leads = [e.lm for e in kept]
    idx = len(elems)
    for mono in _iterproduct(*(range(trunc + 1) for _ in range(nvars))):
        if sum(mono) == trunc and not any(monomial_divides(lm, mono) for lm in leads):
            kept.append(_Elem({mono: 1}, trunc, idx))
            idx += 1
    return _Core(kept, trunc, tuple(sorted(staircase, key=monomial_sort_key)))


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


class LocalIdeal:
    """An ideal of the local ring, with a lazily computed standard basis.

    The basis is computed at most once (thread-safe single flight); all
    queries afterwards are read-only.
    """

    def __init__(self, generators: Sequence[Poly]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("LocalIdeal needs at least one generator")
        vars0 = gens[0].vars
        for g in gens:
            if g.vars != vars0:
                raise ValueError("generators must share one ambient")
        self.generators = gens
        self.vars = vars0
        self._lock = threading.Lock()
        self._core: _Core | None = None

    def _ensure_core(self) -> _Core:
        if self._core is None:
            with self._lock:
                if self._core is None:
                    gens = [_to_int_terms(g) for g in self.generators]
                    gens = [g for g in gens if g]
                    if not gens:
                        self._core = _Core([], None, None)
                    else:
                        self._core = _complete(gens, len(self.vars))
        return self._core

    @property
    def std_basis(self) -> tuple[Poly, ...]:
        core = self._ensure_core()
        return tuple(
            Poly(self.vars, {m: Fraction(c) for m, c in e.terms().items()})
            for e in core.reducers
        )

    @property
    def lead_monomials(self) -> tuple[Monomial, ...]:
        return tuple(e.lm for e in self._ensure_core().reducers)

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
        if p.vars != self.vars:
            raise ValueError("ambient mismatch")
        mine = self.lead_monomials
        bigger = LocalIdeal(list(self.generators) + [p])
        return all(
            any(monomial_divides(lm, lead) for lm in mine)
            for lead in bigger.lead_monomials
        )

    def quotient_dim(self):
        """Vector-space dimension of the local quotient, or INFINITE."""
        st = self._ensure_core().staircase
        return INFINITE if st is None else len(st)

    def cobasis(self) -> tuple[Monomial, ...]:
        """The staircase: the monomials outside the lead ideal, sorted by
        monomial_sort_key, largest first; they form a basis of the quotient."""
        st = self._ensure_core().staircase
        if st is None:
            raise DimensionInfinite(
                f"ideal in {self.vars} has infinite codimension"
            )
        return st
