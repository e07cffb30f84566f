"""Sparse multivariate polynomials and Groebner bases over a single stage.

A context is a (field, variable tuple) pair; monomials are exponent
tuples against that variable order.  The term order is fixed to
degree-reverse-lexicographic throughout, which makes reduced bases,
normal forms and standard monomial staircases canonical for a given
generator set regardless of input order.

`MPoly.terms` keeps `FieldElement` coefficients; division runs on
packed ints on the stage's one packing (`field.packing`, the
`exactfield._Packed` its elements multiply on), derived once per
polynomial, with each divisor's leading monomial and negated monic tail
derived once per divisor.  The kernel keys a monomial m as
(-deg m, e_n, ..., e_1): keys multiply by adding and the smallest key is
the largest monomial, so pending monomials wait in a heap of keys.  A
pending coefficient sums products of two reduced coefficients, each
below m p^2 < 2^(b-1) in every slot, b the packing's value bound.  A sum
is reduced on write once bit b - 1 of one of its slots is set, so a slot
below 2^(b-1) takes one more product and stays below 2^b, where the
kernel's reduction is exact.
"""

from __future__ import annotations

import heapq
import itertools
from operator import add, le, sub

from .errors import MixedContexts, StepGuardExceeded, ZeroPolynomial
from .exactfield import FieldElement, embed

DEFAULT_STEP_BUDGET = 10 ** 6


def drl_key(mono):
    """Sort key realizing degrevlex: larger key means larger monomial."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


class MPoly:
    """Immutable sparse polynomial: dict from exponent tuple to nonzero coefficient."""

    __slots__ = ("field", "vars", "terms", "_packed", "_lead")

    def __init__(self, field, variables, terms):
        self.field = field
        self.vars = tuple(variables)
        clean = {}
        for mono, c in terms.items():
            if isinstance(c, int):
                c = field.from_int(c)
            if not c.is_zero():
                clean[mono] = c
        self.terms = clean
        self._packed = self._lead = None

    @classmethod
    def _from_packed(cls, field, variables, packed):
        """The polynomial with packed terms {key: reduced nonzero int}."""
        f = cls.__new__(cls)
        f.field, f.vars, f._packed, f._lead = field, variables, packed, None
        unpack = field.packing.unpack
        f.terms = {k[:0:-1]: FieldElement(field, unpack(x)) for k, x in packed.items()}
        return f

    def _packed_terms(self):
        """The terms as {key: packed coefficient}, derived once."""
        if self._packed is None:
            pack = self.field.packing.pack
            self._packed = {(-sum(m),) + m[::-1]: pack(c.coeffs)
                            for m, c in self.terms.items()}
        return self._packed

    def _reducer(self):
        """As a divisor, derived once: the leading monomial's (e_n, ..., e_1),
        and per tail term its key minus the leading one and -c / lc."""
        if self._lead is None:
            S = self.field.packing
            packed = self._packed_terms()
            lead = min(packed)
            inv, ps, red = S.inverse(packed[lead]), S.ps, S.reduce
            self._lead = (lead[1:], [(tuple(map(sub, k, lead)), red((ps - x) * inv))
                                     for k, x in packed.items() if k != lead])
        return self._lead

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field, variables):
        return cls(field, variables, {})

    @classmethod
    def constant(cls, field, variables, c):
        if isinstance(c, int):
            c = field.from_int(c)
        return cls(field, variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, field, variables, name):
        i = variables.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(field, variables, {mono: field.one})

    # -- context ------------------------------------------------------

    def same_context(self, other):
        return self.field == other.field and self.vars == other.vars

    def _need_context(self, other):
        if not self.same_context(other):
            raise MixedContexts(
                "contexts differ: (%r, %r) vs (%r, %r)"
                % (self.field, self.vars, other.field, other.vars))

    # -- queries ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self):
        z = (0,) * len(self.vars)
        return self.terms.get(z, self.field.zero)

    def leading_monomial(self):
        if not self.terms:
            raise ZeroPolynomial("leading monomial of the zero polynomial")
        return max(self.terms, key=drl_key)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = MPoly.constant(self.field, self.vars, other)
        self._need_context(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, self.field.zero) + c
        return MPoly(self.field, self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.field, self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = MPoly.constant(self.field, self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if isinstance(other, FieldElement):
            return MPoly(self.field, self.vars,
                         {m: c * other for m, c in self.terms.items()})
        self._need_context(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                prev = out.get(m)
                out[m] = c1 * c2 if prev is None else prev + c1 * c2
        return MPoly(self.field, self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative exponent %d" % e)
        if e == 0:
            return MPoly.constant(self.field, self.vars, self.field.one)
        if len(self.terms) == 1:
            # a single term c m: c^e m^e in one step
            (m, c), = self.terms.items()
            return MPoly(self.field, self.vars, {tuple(x * e for x in m): c ** e})
        return _cached_power({1: self}, e)

    def monic(self):
        if not self.terms:
            raise ZeroPolynomial("monic of the zero polynomial")
        S, packed = self.field.packing, self._packed_terms()
        inv = S.inverse(packed[min(packed)])
        return self if inv == 1 else MPoly._from_packed(
            self.field, self.vars, {k: S.reduce(x * inv) for k, x in packed.items()})

    def derivative(self, name):
        i = self.vars.index(name)
        out = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            dm = tuple(e - 1 if j == i else e for j, e in enumerate(m))
            out[dm] = c * self.field.from_int(m[i])
        return MPoly(self.field, self.vars, out)

    def map_coefficients(self, target_field):
        """The polynomial over a larger stage, coefficients by `embed`;
        itself over its own field."""
        if target_field == self.field:
            return self
        return MPoly(target_field, self.vars,
                     {m: embed(c, target_field) for m, c in self.terms.items()})

    def extend_context(self, variables):
        """Reinterpret over another variable tuple holding every variable used."""
        return rename_context(self, {}, variables)

    def evaluate(self, values):
        """Evaluate with a dict var -> FieldElement over the same field."""
        powers = _powers(self, values)
        acc = self.field.zero
        for m, c in self.terms.items():
            for cache, e in zip(powers, m):
                if e:
                    c = c * cache[e]
            acc = acc + c
        return acc

    # -- comparisons, printing ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = MPoly.constant(self.field, self.vars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.same_context(other) and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, self.vars, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: drl_key(t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.vars[i])
                elif e > 1:
                    factors.append("%s^%d" % (self.vars[i], e))
            if c.field.degree == 1:
                cval = c.coeffs[0]
                cstr = None if (cval == 1 and factors) else str(cval)
            else:
                cstr = None if (c == c.field.one and factors) else _ext_coeff_str(c)
            bits.append("*".join(([cstr] if cstr else []) + factors) or "1")
        return " + ".join(bits)

    def __repr__(self):
        return "MPoly(%s)" % self

    def label(self):
        """Deterministic hashable form used for canonical sorting."""
        return tuple(sorted((m, c.label()) for m, c in self.terms.items()))


def _ext_coeff_str(c):
    return "[" + ",".join(str(a) for a in c.coeffs) + "]"


# ---------------------------------------------------------------------------
# division and Buchberger

def normal_form(f: MPoly, basis: GroebnerBasis) -> MPoly:
    """Fully reduced remainder of f against the members of basis.

    No monomial of the output is divisible by any leading monomial of the
    basis.  For a Groebner basis this is the canonical normal form.  The
    largest pending monomial, popped from a heap, is reduced by the first
    member whose leading monomial divides it, or joins the remainder.
    Coefficients are the stage's packed ints, a pending sum reduced on
    write before a slot can carry (see the module docstring).  Against an
    empty basis f is its own remainder and is returned as it is: an
    `MPoly` is immutable, and its terms are reduced.
    """
    if basis.polys:
        f._need_context(basis.polys[0])
    reducers = basis._reducers
    if not reducers:
        return f
    S = f.field.packing
    red = S.reduce
    top = S.pack([1 << (S.b - 1)] * (2 * S.m - 1))  # bit b - 1 of each product slot
    work = dict(f._packed_terms())
    heap = list(work)
    heapq.heapify(heap)
    rem = {}
    while heap:
        k = heapq.heappop(heap)
        c = red(work.pop(k))
        if not c:
            continue
        exps = k[1:]
        for lead, tail in reducers:
            if all(map(le, lead, exps)):
                break
        else:
            rem[k] = c
            continue
        for step, t in tail:
            k2 = tuple(map(add, k, step))
            x = work.get(k2)
            if x is None:
                work[k2] = c * t
                heapq.heappush(heap, k2)
            else:
                x += c * t  # every slot stays below 2^b: see the module docstring
                work[k2] = red(x) if x & top else x
    return MPoly._from_packed(f.field, f.vars, rem)


def s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    f._need_context(g)
    (lf, tf), (lg, tg) = f._reducer(), g._reducer()
    lcm = tuple(map(max, lf, lg))
    key = (-sum(lcm),) + lcm
    S = f.field.packing
    # (lcm / lg) (g / lc g) - (lcm / lf) (f / lc f): the leading terms cancel
    out = {tuple(map(add, key, step)): t for step, t in tg}
    for step, t in tf:
        k = tuple(map(add, key, step))
        out[k] = out.get(k, 0) + S.ps - t
    return MPoly._from_packed(f.field, f.vars,
                              {k: r for k, x in out.items() if (r := S.reduce(x))})


class GroebnerBasis:
    """A reduced Groebner basis, canonical for (ideal, degrevlex), with its
    members' divisor data; `buchberger` also grows an unreduced one."""

    __slots__ = ("field", "vars", "polys", "_reducers")

    def __init__(self, field, variables, polys):
        self.field = field
        self.vars = tuple(variables)
        self.polys = tuple(polys)
        self._reducers = [g._reducer() for g in self.polys]

    def _append(self, g):
        self.polys += (g,)
        self._reducers.append(g._reducer())

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis) and self.field == other.field
                and self.vars == other.vars and self.polys == other.polys)

    def __repr__(self):
        return "GroebnerBasis[%s]" % "; ".join(str(g) for g in self.polys)

    def is_unit_ideal(self):
        return len(self.polys) == 1 and self.polys[0].is_constant() and not self.polys[0].is_zero()

    def leading_monomials(self):
        return [lead[::-1] for lead, _ in self._reducers]


def buchberger(generators, field=None, variables=None):
    """Reduced Groebner basis of the ideal spanned by the generators.

    Pending S-pairs wait in a heap keyed by the degrevlex key of their
    lcm, so the pair with the smallest lcm is reduced first.  Each time a
    member h joins the basis, the pairs are updated as in Gebauer and
    Moller, "On an installation of Buchberger's algorithm" (1988):
    a new pair (i, h) is dropped when another new pair's lcm properly
    divides its lcm (M); of the new pairs with one lcm only one is kept,
    and none when one of them has coprime leading monomials (F); a
    pending pair (i, j) is dropped when lm(h) divides its lcm and neither
    lcm(i, h) nor lcm(j, h) equals it (B); and a member whose leading
    monomial lm(h) divides takes no new pairs after h.  The pair loop
    counts every S-polynomial it reduces, and only those, against
    DEFAULT_STEP_BUDGET and raises StepGuardExceeded when it runs out.
    The basis grows as a `GroebnerBasis`, so each member's divisor data
    is derived once.  The final basis is interreduced and monic, so the
    result depends only on the ideal and not on generator order.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        if field is None or variables is None:
            raise MixedContexts("an empty generator list needs an explicit context")
        return GroebnerBasis(field, variables, [])
    field = gens[0].field
    variables = gens[0].vars
    for g in gens[1:]:
        gens[0]._need_context(g)

    basis = GroebnerBasis(field, variables, [])
    for g in gens:
        r = normal_form(g, basis)
        if not r.is_zero():
            basis._append(r.monic())
    lms = basis.leading_monomials()

    # pending pairs as (drl_key(lcm), i, j, lcm) with i > j, and the
    # members that still take new pairs
    heap, live = [], []

    def update(h):
        lm = lms[h]
        # (F): one new pair per lcm.  No live leading monomial divides
        # another, so a coprime pair is alone in its lcm class.
        first = {}
        for i in live:
            first.setdefault(mono_lcm(lms[i], lm), i)
        # (B)
        heap[:] = [pair for pair in heap if not mono_divides(lm, pair[3])
                   or mono_lcm(lms[pair[1]], lm) == pair[3]
                   or mono_lcm(lms[pair[2]], lm) == pair[3]]
        # (F) drops coprime pairs, (M) pairs with a proper divisor lcm
        heap.extend((drl_key(lcm), h, i, lcm) for lcm, i in first.items()
                    if any(map(min, lms[i], lm))
                    and not any(o != lcm and mono_divides(o, lcm) for o in first))
        heapq.heapify(heap)
        live[:] = [i for i in live if not mono_divides(lm, lms[i])] + [h]

    for h in range(len(basis)):
        update(h)
    steps = 0
    while heap:
        _, i, j, _ = heapq.heappop(heap)
        steps += 1
        if steps > DEFAULT_STEP_BUDGET:
            raise StepGuardExceeded("buchberger: S-polynomial budget %d exhausted"
                                    % DEFAULT_STEP_BUDGET)
        r = normal_form(s_polynomial(basis.polys[i], basis.polys[j]), basis)
        if r.is_zero():
            continue
        basis._append(r.monic())
        lms.append(r.leading_monomial())
        update(len(basis) - 1)

    return _reduce_basis(basis, lms)


def _reduce_basis(basis, lms):
    # drop members whose leading monomial is divisible by another's
    keep = [i for i, lm in enumerate(lms)
            if not any(j != i and mono_divides(lms[j], lm)
                       and (lms[j] != lm or j < i) for j in range(len(lms)))]
    # tail-reduce every member against the others: no other leading
    # monomial divides its own, so the leading monomial stays
    polys = basis.polys
    reduced = [normal_form(polys[i], GroebnerBasis(
                   basis.field, basis.vars, [polys[j] for j in keep if j != i])).monic()
               for i in sorted(keep, key=lambda i: drl_key(lms[i]))]
    return GroebnerBasis(basis.field, basis.vars, reduced)


INFINITE = "infinite"


def standard_monomials(gb: GroebnerBasis):
    """Monomials below the staircase of the basis, ascending in degrevlex.

    Returns the string INFINITE when the quotient has infinite dimension
    and the empty list for the zero ring.
    """
    if gb.is_unit_ideal():
        return []
    lms = gb.leading_monomials()
    bounds = []
    for i in range(len(gb.vars)):
        cap = None
        for lm in lms:
            if lm[i] > 0 and all(e == 0 for j, e in enumerate(lm) if j != i):
                cap = lm[i] if cap is None else min(cap, lm[i])
        if cap is None:
            return INFINITE
        bounds.append(cap)
    return sorted((m for m in itertools.product(*map(range, bounds))
                   if not any(mono_divides(lm, m) for lm in lms)), key=drl_key)


def fresh_name(stem, taken):
    """The first of stem, stem0, stem1, ... that is not in taken."""
    names = itertools.chain([stem], ("%s%d" % (stem, n) for n in itertools.count()))
    return next(v for v in names if v not in taken)


def rename_context(f: MPoly, mapping: dict, new_vars) -> MPoly:
    """Transport f into another context along a variable rename.

    Variables absent from the mapping keep their names.  Every variable
    actually appearing in f must land inside new_vars.
    """
    new_vars = tuple(new_vars)
    pos = {}
    out = {}
    n = len(new_vars)
    for m, c in f.terms.items():
        big = [0] * n
        for i, e in enumerate(m):
            if e == 0:
                continue
            v = f.vars[i]
            j = pos.get(v)
            if j is None:
                w = mapping.get(v, v)
                if w not in new_vars:
                    raise MixedContexts("variable %s still present" % w)
                j = pos[v] = new_vars.index(w)
            big[j] = e
        out[tuple(big)] = c
    return MPoly(f.field, new_vars, out)


def _powers(f, images):
    """Per variable v of f, {e: images[v]^e} for the exponents e of v in f,
    smallest first, each from the powers before it."""
    out = []
    for i, v in enumerate(f.vars):
        cache = {}
        for e in sorted({m[i] for m in f.terms} - {0}):
            cache.setdefault(1, images[v])
            _cached_power(cache, e)
        out.append(cache)
    return out


def _cached_power(cache, e):
    """x^e into cache, which holds x^1: the largest cached power x^b below e
    times x^(e - b) when that is cached too (one product per step for
    consecutive exponents), else the square of x^(e // 2), times x if e is
    odd (no more products than square-and-multiply)."""
    got = cache.get(e)
    if got is None:
        below = max(b for b in cache if b < e)
        if e - below in cache:
            got = cache[below] * cache[e - below]
        else:
            half = _cached_power(cache, e // 2)
            got = half * half if e % 2 == 0 else half * half * cache[1]
        cache[e] = got
    return got
