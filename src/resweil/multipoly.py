"""Sparse multivariate polynomials and Groebner bases over a single stage.

A context is a (field, variable tuple) pair; monomials are exponent
tuples against that variable order.  The term order is fixed to
degree-reverse-lexicographic throughout, which makes reduced bases,
normal forms and standard monomial staircases canonical for a given
generator set regardless of input order.
"""

from __future__ import annotations

import heapq

from .errors import MissingAssignment, MixedContexts, StepGuardExceeded
from .exactfield import FieldElement, embed

DEFAULT_STEP_BUDGET = 10 ** 6


def drl_key(mono):
    """Sort key realizing degrevlex: larger key means larger monomial."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class MPoly:
    """Immutable sparse polynomial: dict from exponent tuple to nonzero coefficient."""

    __slots__ = ("field", "vars", "terms")

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
        assert self.terms, "leading monomial of zero"
        return max(self.terms, key=drl_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def variables_used(self):
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(self.vars[i])
        return used

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
        assert e >= 0
        result = MPoly.constant(self.field, self.vars, self.field.one)
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def monic(self):
        assert self.terms
        inv = self.leading_coefficient().inverse()
        return self * inv

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
        return MPoly(target_field, self.vars,
                     {m: embed(c, target_field) for m, c in self.terms.items()})

    def restrict_context(self, variables):
        """Reinterpret over a sub-tuple of variables; unused ones must be absent."""
        idx = []
        for v in variables:
            idx.append(self.vars.index(v))
        keep = set(idx)
        out = {}
        for m, c in self.terms.items():
            for i, e in enumerate(m):
                if e and i not in keep:
                    raise MixedContexts("variable %s still present" % self.vars[i])
            out[tuple(m[i] for i in idx)] = c
        return MPoly(self.field, variables, out)

    def extend_context(self, variables):
        """Reinterpret over a larger variable tuple containing the current one."""
        pos = [variables.index(v) for v in self.vars]
        n = len(variables)
        out = {}
        for m, c in self.terms.items():
            big = [0] * n
            for i, e in enumerate(m):
                big[pos[i]] = e
            out[tuple(big)] = c
        return MPoly(self.field, tuple(variables), out)

    def evaluate(self, values):
        """Evaluate with a dict var -> FieldElement over the same field."""
        # powers[i][e - 1] is the value of vars[i] to the e, one multiply
        # per exponent step up to the largest exponent of vars[i]
        powers = []
        for i, v in enumerate(self.vars):
            top = max((m[i] for m in self.terms), default=0)
            row = [values[v]] if top else []
            while len(row) < top:
                row.append(row[-1] * row[0])
            powers.append(row)
        acc = self.field.zero
        for m, c in self.terms.items():
            term = c
            for row, e in zip(powers, m):
                if e:
                    term = term * row[e - 1]
            acc = acc + term
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

def normal_form(f: MPoly, basis) -> MPoly:
    """Fully reduced remainder of f against the given polynomials.

    No monomial of the output is divisible by any leading monomial of the
    basis.  For a Groebner basis this is the canonical normal form.
    """
    if isinstance(basis, GroebnerBasis):
        gens = basis.polys
        lms = basis._lms
    else:
        gens = [g for g in basis if not g.is_zero()]
        lms = [g.leading_monomial() for g in gens]
    for g in gens:
        f._need_context(g)
    rem = {}
    work = dict(f.terms)
    while work:
        mono = max(work, key=drl_key)
        c = work.pop(mono)
        if c.is_zero():
            continue
        hit = None
        for i, lm in enumerate(lms):
            if mono_divides(lm, mono):
                hit = i
                break
        if hit is None:
            rem[mono] = rem.get(mono, f.field.zero) + c
            continue
        g = gens[hit]
        shift = mono_div(mono, lms[hit])
        scale = c * g.terms[lms[hit]].inverse()
        for m2, c2 in g.terms.items():
            if m2 == lms[hit]:
                continue
            m = mono_mul(shift, m2)
            prev = work.get(m, f.field.zero)
            work[m] = prev - scale * c2
    return MPoly(f.field, f.vars, rem)


def s_polynomial(f: MPoly, g: MPoly) -> MPoly:
    lf = f.leading_monomial()
    lg = g.leading_monomial()
    lcm = mono_lcm(lf, lg)
    mf = mono_div(lcm, lf)
    mg = mono_div(lcm, lg)
    tf = MPoly(f.field, f.vars, {mf: f.terms[lf].inverse()})
    tg = MPoly(g.field, g.vars, {mg: g.terms[lg].inverse()})
    return tf * f - tg * g


class GroebnerBasis:
    """A reduced Groebner basis, canonical for (ideal, degrevlex)."""

    __slots__ = ("field", "vars", "polys", "_lms")

    def __init__(self, field, variables, polys):
        self.field = field
        self.vars = tuple(variables)
        self.polys = tuple(polys)
        self._lms = [g.leading_monomial() for g in self.polys]

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
        return list(self._lms)


def buchberger(generators, field=None, variables=None):
    """Reduced Groebner basis of the ideal spanned by the generators.

    Pending S-pairs wait in a heap keyed by the degrevlex key of their
    lcm, so the pair with the smallest lcm is reduced first.  A pair is
    dropped without reduction when its leading monomials are coprime
    (Buchberger's first criterion) or when a third member's leading
    monomial divides their lcm and neither pair with that member is
    still pending (the chain criterion, as in Cox, Little and O'Shea).
    The pair loop counts every S-polynomial it reduces, and only those,
    against DEFAULT_STEP_BUDGET and raises StepGuardExceeded when it
    runs out.  The final basis is interreduced and monic, so the result
    depends only on the ideal and not on generator order.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        assert field is not None and variables is not None, \
            "empty generator list needs an explicit context"
        return GroebnerBasis(field, variables, [])
    field = gens[0].field
    variables = gens[0].vars
    for g in gens[1:]:
        gens[0]._need_context(g)

    basis = []
    for g in gens:
        r = normal_form(g, basis)
        if not r.is_zero():
            basis.append(r.monic())
    lms = [g.leading_monomial() for g in basis]

    # a pair (i, j) has i > j; `pending` holds the pairs still in the heap
    heap, pending = [], set()

    def add_pairs(k):
        for t in range(k):
            heapq.heappush(heap, (drl_key(mono_lcm(lms[k], lms[t])), k, t))
            pending.add((k, t))

    def chain_drops(i, j, lcm):
        return any(k != i and k != j and mono_divides(lm, lcm)
                   and (max(i, k), min(i, k)) not in pending
                   and (max(j, k), min(j, k)) not in pending
                   for k, lm in enumerate(lms))

    for k in range(len(basis)):
        add_pairs(k)
    steps = 0
    while heap:
        _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lcm = mono_lcm(lms[i], lms[j])
        if lcm == mono_mul(lms[i], lms[j]) or chain_drops(i, j, lcm):
            continue
        steps += 1
        if steps > DEFAULT_STEP_BUDGET:
            raise StepGuardExceeded("buchberger: S-polynomial budget %d exhausted"
                                    % DEFAULT_STEP_BUDGET)
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        basis.append(r.monic())
        lms.append(r.leading_monomial())
        add_pairs(len(basis) - 1)

    return _reduce_basis(field, variables, basis, lms)


def _reduce_basis(field, variables, basis, lms):
    # drop members whose leading monomial is divisible by another's
    keep = [i for i, lm in enumerate(lms)
            if not any(j != i and mono_divides(lms[j], lm)
                       and (lms[j] != lm or j < i) for j in range(len(lms)))]
    # tail-reduce every member against the others: no other leading
    # monomial divides its own, so the leading monomial stays
    reduced = [normal_form(basis[i], [basis[j] for j in keep if j != i]).monic()
               for i in sorted(keep, key=lambda i: drl_key(lms[i]))]
    return GroebnerBasis(field, variables, reduced)


INFINITE = "infinite"


def standard_monomials(gb: GroebnerBasis):
    """Monomials below the staircase of the basis, ascending in degrevlex.

    Returns the string INFINITE when the quotient has infinite dimension
    and the empty list for the zero ring.
    """
    if gb.is_unit_ideal():
        return []
    n = len(gb.vars)
    if n == 0:
        return [()]
    lms = gb.leading_monomials()
    bounds = []
    for i in range(n):
        cap = None
        for lm in lms:
            if lm[i] > 0 and all(e == 0 for j, e in enumerate(lm) if j != i):
                cap = lm[i] if cap is None else min(cap, lm[i])
        if cap is None:
            return INFINITE
        bounds.append(cap)
    out = []

    def rec(prefix):
        if len(prefix) == n:
            mono = tuple(prefix)
            if not any(mono_divides(lm, mono) for lm in lms):
                out.append(mono)
            return
        for e in range(bounds[len(prefix)]):
            rec(prefix + [e])

    rec([])
    out.sort(key=drl_key)
    return out


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
                j = new_vars.index(mapping.get(v, v))
                pos[v] = j
            big[j] = e
        out[tuple(big)] = c
    return MPoly(f.field, new_vars, out)


def substitute_expand(f: MPoly, assignment: dict) -> MPoly:
    """Substitute polynomials for variables and expand.

    Every variable actually appearing in f must be assigned; all images
    must share one target context.  Coefficients of f are pushed into
    the target field through the canonical embedding when the stages
    differ.
    """
    used = f.variables_used()
    for v in used:
        if v not in assignment:
            raise MissingAssignment("no image for variable %r" % v)
    images = [assignment[v] for v in f.vars if v in assignment]
    if not images:
        target_field, target_vars = f.field, f.vars
    else:
        first = images[0]
        for img in images[1:]:
            first._need_context(img)
        target_field, target_vars = first.field, first.vars
    if f.field != target_field and f.field.degree != 1 and \
            target_field.degree % f.field.degree != 0:
        raise MixedContexts("source stage does not embed in the target stage")

    acc = MPoly.zero(target_field, target_vars)
    pow_cache = {}
    for mono, c in f.sorted_terms():
        if f.field == target_field:
            term = MPoly.constant(target_field, target_vars, c)
        else:
            term = MPoly.constant(target_field, target_vars, embed(c, target_field))
        for i, e in enumerate(mono):
            if e == 0:
                continue
            key = (f.vars[i], e)
            img_pow = pow_cache.get(key)
            if img_pow is None:
                img_pow = assignment[f.vars[i]] ** e
                pow_cache[key] = img_pow
            term = term * img_pow
        acc = acc + term
    return acc
