"""Restriction of scalars along a finite free algebra over its stage.

A scheme presentation is a finite system of equations over a finite
algebra A, kept also as polynomials in its unknowns with coefficients in
A.  Expanding each unknown y_j against a vector space basis of A and
splitting every equation into basis coordinates yields a system over the
stage itself; its solutions in any extension K correspond to the
original system's solutions with coordinates in A tensor K.  The
expansion is arithmetic in A on its packed multiplication tables
(`finalg`), with no substitution and no normal form; the base change
along a projection maps the same coefficients.  That coordinate-level
dictionary, plus exact point solvers on both sides, is what this module
provides, together with the comparison routines for products of
algebras and principal open coverings.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import (
    CertificateFailure,
    EmptyBase,
    MixedContexts,
    MixedFields,
    NotABasis,
    NotCovering,
    NotFinite,
    NotLocalBase,
    SearchGuardExceeded,
)
from .exactfield import FieldElement, _Packed, embed, roots_in, stage_field
from .finalg import (
    AlgebraPresentation,
    EtaleCertificate,
    ProductAlgebra,
    _combination,
    _local_idempotents,
    etale_check,
    tensor_extend,
)
from .multipoly import (
    INFINITE,
    MPoly,
    buchberger,
    fresh_name,
    mono_divides,
    normal_form,
    rename_context,
)

# The one budget of every point search: candidate tuples in
# enumerate_points and _algebra_points_bruteforce, root combinations in
# _solve_points.  Each reads it when called, so no call can widen it.
SEARCH_GUARD = 10 ** 6


class SchemePresentation:
    """Equations in unknowns y over an algebra base, coefficients reduced.

    Each relation is kept twice: as a polynomial in the combined context
    (base variables, unknowns), and split into a polynomial in the
    unknowns over the base, `coefficients`, one {exponents in the
    unknowns: coefficient} per relation, each coefficient a nonzero
    normal form over the base, taken only where a leading monomial of the
    base divides one of its monomials.  A normal form over the base acts
    on each coefficient on its own, so two presentations of the same
    system compare equal term by term.
    """

    def __init__(self, base: AlgebraPresentation, variables, relations):
        self.base = base
        self.vars = tuple(variables)
        shared = set(self.vars) & set(base.vars)
        if shared:
            raise MixedContexts("unknowns shadow base variables: %r" % sorted(shared))
        ctx = tuple(base.vars) + self.vars
        self.all_vars = ctx
        nt, gb = len(base.vars), base.groebner
        lms = gb.leading_monomials()
        rels, split = [], []
        for r in relations:
            if r.vars != ctx:
                r = r.extend_context(ctx)
            if r.field != base.field:
                raise MixedFields("relation stage differs from the base")
            parts = {}
            for m, c in r.terms.items():
                parts.setdefault(m[nt:], {})[m[:nt]] = c
            coeffs = {}
            for a, terms in parts.items():
                c = MPoly(base.field, base.vars, terms)
                if any(mono_divides(lm, m) for m in terms for lm in lms):
                    c = normal_form(c, gb)
                if c.terms:
                    coeffs[a] = c
            split.append(coeffs)
            rels.append(_joined(base.field, ctx, coeffs))
        self.relations = tuple(rels)
        self.coefficients = tuple(split)
        self.points_by_stage = {}  # filled by algebra_points

    @property
    def field(self):
        return self.base.field

    @cached_property
    def coordinate_ring(self) -> AlgebraPresentation:
        """The total coordinate ring over the stage, built once for every reader."""
        rels = [r.extend_context(self.all_vars) for r in self.base.relations]
        return AlgebraPresentation(self.field, self.all_vars,
                                   rels + list(self.relations))

    @cached_property
    def etale_certificate(self) -> EtaleCertificate:
        """`etale_check(self)`, run once for every reader; a raise is
        not kept, so the next read raises again."""
        return etale_check(self)

    def __repr__(self):
        return "SchemePresentation(vars=%r, %d relations over %r)" % (
            self.vars, len(self.relations), self.base)


def _joined(field, ctx, coeffs):
    """The relation in ctx = (base variables, unknowns) with the split
    {exponents in the unknowns: coefficient over the base}."""
    return MPoly(field, ctx, {m + a: x for a, c in coeffs.items()
                              for m, x in c.terms.items()})


class RestrictedScheme:
    """The coordinate-expanded system over the stage, with its dictionary.

    var_table maps (unknown, basis index) to the flattened coordinate
    name; basis records the algebra basis the expansion used.
    """

    def __init__(self, scheme, algebra, basis, variables, relations, var_table):
        self.scheme = scheme
        self.algebra = algebra
        self.basis = tuple(basis)
        self.vars = tuple(variables)
        self.relations = tuple(relations)
        self.var_table = dict(var_table)
        self.base_field = algebra.field

    @cached_property
    def quotient(self) -> AlgebraPresentation:
        """The coordinate ring over the stage, built once for every reader."""
        return AlgebraPresentation(self.base_field, self.vars, self.relations)

    @property
    def groebner(self):
        return self.quotient.groebner

    def is_empty(self):
        return self.groebner.is_unit_ideal()

    def points(self, K=None):
        return zero_dim_solve(self.quotient, K or self.base_field)

    def __repr__(self):
        return "RestrictedScheme(%d vars, %d relations over %r)" % (
            len(self.vars), len(self.relations), self.base_field)


def _restricted_names(scheme_vars, d, forbidden):
    # lengthen the separator until the names are distinct and free; past
    # the longest variable name no two of them can collide
    for k in itertools.count():
        table = {(sv, b): "%s%s%d" % (sv, "_" * k, b)
                 for sv in scheme_vars for b in range(d)}
        names = list(table.values())
        if len(set(names)) == len(names) and not (set(names) & set(forbidden)):
            return names, table


def weil_restrict(A: AlgebraPresentation, X: SchemePresentation,
                  basis=None) -> RestrictedScheme:
    """Expand X against a basis of A into a system over the stage.

    Each unknown y becomes d coordinates y0..y(d-1) bound by
    y = sum_b y_b * e_b, and each relation splits into d coordinate
    relations, so the output has exactly (relations * d) entries, zero
    entries included.  By default e_b is the standard monomial basis;
    any other basis of A may be passed to exercise independence of the
    choice.

    The expansion is arithmetic in A on its packed tables: a polynomial
    in the coordinates over A is {exponents: sparse packed vector}.  Each
    power y^a of the unknowns is built once for all relations
    (`_unknown_power`), and each coefficient of `X.coefficients` is
    multiplied into its power through its own columns; the exponents of
    a coordinate monomial fix a, so it comes from one term.  Its vector
    is read off in the basis, through the inverse change of basis for a
    given one, and must recombine along the recorded basis into itself.
    """
    if not (X.base is A or (X.base.field == A.field and X.base.vars == A.vars
                            and X.base.relations == A.relations)):
        raise MixedContexts("scheme is presented over a different base")
    d = A.dimension
    if d == 0:
        raise EmptyBase("restriction along the zero ring")
    field, S = A.field, A._stage
    if basis is None:
        basis, inv_change = A.basis_elements(), None
    else:
        basis = [A._element(A._evaluate(b, {})) for b in basis]
        if len(basis) != d:
            raise NotABasis("basis size differs from the algebra dimension")
        inv_change = _inverse_change(A, basis)
    coords = [A._packed_coords(b) for b in basis]
    times = [A._walk(c, A._tables) for c in coords]  # multiplication by e_b

    yvars, table = _restricted_names(X.vars, d, A.vars)
    r, unpack = len(X.vars), S.unpack
    powers = {(0,) * r: {(0,) * (r * d): [(0, 1)]}}
    relations = []
    for coeffs in X.coefficients:
        comps = [{} for _ in range(d)]
        for a, c in coeffs.items():
            cols = A._columns(c)
            for mono, v in _unknown_power(powers, a, S, times).items():
                w = S.mat_vec(cols, v)
                u = w if inv_change is None else S.mat_vec(inv_change, w)
                if S.mat_vec(coords, u) != w:
                    raise CertificateFailure("basis recombination failed")
                for b, x in u:
                    comps[b][mono] = FieldElement(field, unpack(x))
        relations += [MPoly(field, yvars, comp) for comp in comps]
    return RestrictedScheme(X, A, basis, yvars, relations, table)


def _inverse_change(A, basis):
    """Sparse packed columns of the inverse change of basis: column j
    solves M x = e_j, M with the basis' coordinates as columns, which is
    inconsistent when M is singular."""
    S, d = A._stage, A.dimension
    units = [[(i, 1)] for i in range(d)]
    cols = S.solve(S.rows([A._packed_coords(b) for b in basis] + units, d), d)
    if cols is None:
        raise NotABasis("the given elements do not form a basis")
    return [[(i, a) for i, a in enumerate(x) if a] for x in cols]


def _unknown_power(powers, a, S, times):
    """y^a for the exponents a in the unknowns, from powers, which holds
    y^0 and every power built so far: each missing power is y^(a - e_j)
    times y_j, j the first unknown in a, built once and kept."""
    chain = []
    while a not in powers:
        j = next(j for j, e in enumerate(a) if e)
        chain.append((a, j))
        a = a[:j] + (a[j] - 1,) + a[j + 1:]
    power = powers[a]
    for a, j in reversed(chain):
        power = powers[a] = _times_unknown(S, times, power, j * len(times))
    return power


def _times_unknown(S, times, power, offset):
    """power times y_j = sum_b y_jb e_b, y_jb the coordinate at offset + b
    and times[b] the columns of multiplication by e_b: one `mat_vec` per
    term and e_b, and a coordinate monomial sums at most d of them."""
    acc = {}
    for mono, v in power.items():
        for b, cols in enumerate(times):
            k = offset + b
            key = mono[:k] + (mono[k] + 1,) + mono[k + 1:]
            acc.setdefault(key, []).append(S.mat_vec(cols, v))
    d = len(times)
    return {mono: vec for mono, vecs in acc.items()
            if (vec := _combination(S, d, [1] * len(vecs), vecs))}


# ---------------------------------------------------------------------------
# point solvers over the stage

def _point_label(pt):
    return tuple(x.label() for x in pt)


def enumerate_points(field, variables, relations, K):
    """All K-solutions by exhaustion, guarded by SEARCH_GUARD.

    Still a dumb scan over every candidate tuple; the relations are
    just flattened to term lists once, with one shared power table per
    candidate, so large stages stay affordable.
    """
    variables = tuple(variables)
    n = len(variables)
    total = K.order ** n
    if total > SEARCH_GUARD:
        raise SearchGuardExceeded(
            "enumerate_points: %d candidate tuples exceed the budget %d"
            % (total, SEARCH_GUARD))
    relsK = [r.map_coefficients(K) for r in relations]
    maxdeg = [0] * n
    compiled = []
    for r in relsK:
        terms = list(r.terms.items())
        for m, _ in terms:
            for i, e in enumerate(m):
                if e > maxdeg[i]:
                    maxdeg[i] = e
        compiled.append(terms)
    compiled.sort(key=len)
    elems = list(K)
    q = len(elems)
    zero = K.zero
    one = K.one
    # all powers any candidate can need, indexed by element position
    pow_tab = []
    for i in range(n):
        tab = []
        for x in elems:
            row = [one]
            for _ in range(maxdeg[i]):
                row.append(row[-1] * x)
            tab.append(row)
        pow_tab.append(tab)
    out = []
    for idxs in itertools.product(range(q), repeat=n):
        good = True
        for terms in compiled:
            acc = zero
            for m, c in terms:
                t = c
                for i, e in enumerate(m):
                    if e:
                        t = t * pow_tab[i][idxs[i]][e]
                acc = acc + t
            if not acc.is_zero():
                good = False
                break
        if good:
            out.append(tuple(elems[j] for j in idxs))
    out.sort(key=_point_label)
    return out


def zero_dim_solve(B: AlgebraPresentation, K):
    """K-points of a finite quotient, in label order.

    Runs on per-variable minimal polynomials when the quotient is
    finite over its stage; otherwise falls back to guarded exhaustion.
    B keeps each stage's list, so later calls get a copy of it.
    """
    if K.p != B.field.p or K.degree % B.field.degree != 0:
        raise MixedFields("cannot solve over %r from %r" % (K, B.field))
    pts = B.points_by_stage.get(K)
    if pts is None:
        pts = B.points_by_stage[K] = _solve_points(B, K)
    return list(pts)


def _solve_points(B, K):
    """The K-points of B.  x -> x^|F|, F = B.field, fixes B's relations
    and permutes each coordinate's roots (`_frobenius_steps`), so only
    the lexicographically least root combination of each orbit is
    checked, and its whole orbit kept or dropped with it."""
    if B.groebner.is_unit_ideal():
        return []
    if B.basis_monomials is INFINITE:
        return enumerate_points(B.field, B.vars, B.relations, K)
    rootlists = [roots_in(mu, K) for mu in B.min_polys]
    total = 1
    for rl in rootlists:
        total *= len(rl)
    if total > SEARCH_GUARD:
        raise SearchGuardExceeded(
            "zero_dim_solve: %d root combinations exceed the budget %d"
            % (total, SEARCH_GUARD))
    if total == 0:
        return []
    steps = [_frobenius_steps(rl, B.field.order, K) for rl in rootlists]
    holds = _relation_check(B.relations, rootlists, K)
    out = []
    for idx in itertools.product(*(range(len(rl)) for rl in rootlists)):
        orbit = [idx]
        nxt = tuple(step[j] for step, j in zip(steps, idx))
        while nxt != idx:
            if nxt < idx:  # idx is not the least of its orbit
                break
            orbit.append(nxt)
            nxt = tuple(step[j] for step, j in zip(steps, nxt))
        else:
            if holds(idx):
                out += [tuple(rl[j] for rl, j in zip(rootlists, o)) for o in orbit]
    out.sort(key=_point_label)
    return out


def _frobenius_steps(roots, q, K):
    """For each root r, the index of r^q in roots; `CertificateFailure`
    unless that is a permutation of the indices."""
    S = K.packing
    at = {S.pack(r.coeffs): i for i, r in enumerate(roots)}
    steps = [at.get(S.power(S.pack(r.coeffs), q)) for r in roots]
    if set(steps) != set(range(len(roots))):
        raise CertificateFailure("a root list is not closed under Frobenius")
    return steps


def _relation_check(relations, rootlists, K):
    """Whether a root combination solves every relation, on packed ints of K.

    Returns a predicate on index tuples into rootlists.  A root gets a
    table of its powers the first time a combination holding it is
    checked; a term is its coefficient times table entries, reduced
    before every further factor but the last, so it adds at most one
    product of two reduced coefficients to the relation's sum.  The
    packing's value bound covers the sum of the longest relation, which
    is reduced once and compared with zero.
    """
    terms = [list(r.map_coefficients(K).terms.items()) for r in relations]
    S = _Packed(K.p, K.modulus, max(map(len, terms), default=0) // 2)
    red = S.reduce
    top = [max((m[i] for t in terms for m, _ in t), default=0)
           for i in range(len(rootlists))]
    tables = [[None] * len(rl) for rl in rootlists]
    compiled = [[(S.pack(c.coeffs), [(i, e) for i, e in enumerate(m) if e])
                 for m, c in t] for t in terms]

    def table(i, j):
        row = tables[i][j]
        if row is None:
            row = tables[i][j] = [1, S.pack(rootlists[i][j].coeffs)]
            while len(row) <= top[i]:
                row.append(red(row[-1] * row[1]))
        return row

    def holds(idx):
        rows = [table(i, j) for i, j in enumerate(idx)]
        for rel in compiled:
            acc = 0
            for c, factors in rel:
                for i, e in factors[:-1]:
                    c = red(c * rows[i][e])
                if factors:
                    i, e = factors[-1]
                    c *= rows[i][e]
                acc += c
            if red(acc):
                return False
        return True

    return holds


# ---------------------------------------------------------------------------
# algebra-valued points, computed without the restriction

def _section(CK, times_eps, images, ys):
    """The values a_j with eps phi(a_j) = eps y_j, as dense packed
    coordinates on CK's stage, or None if some eps y_j is not in the
    image: one `echelon` over the stage on the packed columns eps phi(m),
    m over the basis of A tensor K, then eps y_j."""
    S = CK._stage
    cols = [S.mat_vec(times_eps, v) for v in images + ys]
    return S.solve(S.rows(cols, CK.dimension), len(images))


def _algebra_points_smooth(X, AK):
    """The points of `algebra_points` for an etale X, on packed vectors:
    per local factor e of A tensor K and rank-one component eps over it,
    the section's values a_j, then e a_j by one `mat_vec` on e's columns
    and the sums over the factors; each point is checked against X's
    relations by `AlgebraPresentation._evaluate` and becomes normal forms
    once, at the end."""
    CK = tensor_extend(X.coordinate_ring, AK.field)
    if CK.is_zero_ring():
        return []
    ctx = CK.vars
    images = [CK._packed_coords(m.extend_context(ctx)) for m in AK.basis_elements()]
    ys = [CK._packed_coords(CK.var(y)) for y in X.vars]
    components = [(CK._columns(eps), sorted(CK._packed_coords(eps)))
                  for eps in _local_idempotents(CK)]
    S, unpack = AK._stage, CK._stage.unpack
    per = []
    for e in _local_idempotents(AK):
        e_vec = CK._packed_coords(e.extend_context(ctx))
        times_e = AK._columns(e)
        pts_e = []
        for times_eps, eps_vec in components:
            if CK._stage.mat_vec(times_eps, e_vec) != eps_vec:
                continue  # eps lies over another local factor
            sol = _section(CK, times_eps, images, ys)
            if sol is not None:  # else eps has rank above 1 over e
                pts_e.append([S.mat_vec(times_e, [(i, S.pack(unpack(a)))
                                                  for i, a in enumerate(x) if a])
                              for x in sol])
        per.append(pts_e)

    out = []
    for combo in itertools.product(*per):  # one part per factor, at most d
        pt = [_combination(S, AK.dimension, [1] * len(parts), parts) for parts in zip(*combo)]
        if any(AK._evaluate(g, dict(zip(X.vars, pt))) for g in X.relations):
            raise CertificateFailure("a lifted point does not solve X")
        out.append(tuple(AK._element(v) for v in pt))
    out.sort(key=_point_label)
    return out


def _algebra_points_bruteforce(X, AK):
    K = AK.field
    d = AK.dimension
    r = len(X.vars)
    total = K.order ** (d * r)
    if total > SEARCH_GUARD:
        raise SearchGuardExceeded(
            "algebra_points: %d algebra tuples exceed the budget %d"
            % (total, SEARCH_GUARD))
    pack = AK._stage.pack
    elements = [[(i, pack(c.coeffs)) for i, c in enumerate(cs) if not c.is_zero()]
                for cs in itertools.product(list(K), repeat=d)]
    out = []
    for combo in itertools.product(elements, repeat=r):
        values = dict(zip(X.vars, combo))
        if not any(AK._evaluate(g, values) for g in X.relations):
            out.append(tuple(AK._element(v) for v in combo))
    out.sort(key=_point_label)
    return out


def algebra_points(X: SchemePresentation, K=None):
    """Solutions of X with coordinates in (base algebra) tensor K.

    For a square system that is etale over its base, with a finite
    coordinate ring C, C tensor K is finite etale over A tensor K.  A
    point over a local factor B = e (A tensor K) is a section of C_B over
    B, and a section of a separated etale map is an open and closed
    immersion; B is connected, so the section's image is one connected
    component eps C_B, eps a primitive idempotent of C tensor K with
    eps e = eps, mapped isomorphically onto B.  So for each such pair
    solve eps phi(a_j) = eps y_j over the stage, phi the map from
    A tensor K.  If every y_j solves, eps C_B is a quotient of B, free of
    rank at least one since C is flat over A, hence B itself, and
    (e a_j)_j is its point; otherwise it has rank above one and carries
    none.  The points are the products over the local factors, each
    checked against X's relations.  Anything else falls back to guarded
    exhaustion.  Each point is a tuple of reduced algebra elements, in
    label order.  X keeps each stage's list; later calls get a copy of it.
    """
    A = X.base
    if A.dimension == 0:
        raise EmptyBase("points valued in the zero ring")
    K = K or A.field
    if K not in X.points_by_stage:
        X.points_by_stage[K] = _algebra_points(X, tensor_extend(A, K))
    return list(X.points_by_stage[K])


def _algebra_points(X, AK):
    if not X.vars:
        return [] if any(AK._evaluate(g, {}) for g in X.relations) else [()]
    if len(X.relations) == len(X.vars):
        # X is smooth over A tensor K exactly when it is over A: one reduced
        # Groebner basis, and the unit test is linear over the stage
        try:
            smooth = X.etale_certificate.ok
        except NotFinite:
            smooth = False
        if smooth:
            return _algebra_points_smooth(X, AK)
    return _algebra_points_bruteforce(X, AK)


# ---------------------------------------------------------------------------
# the coordinate dictionary and its certificates

def _rational_base_point(A, reader):
    """The one rational point, a coordinate tuple, of a local base with
    rational residue: A/nil(A) is then the stage itself."""
    if A.dimension - A.nilradical_dimension() != 1:
        raise NotLocalBase("%s needs a local base with rational residue" % reader)
    pts = zero_dim_solve(A, A.field)
    if len(pts) != 1:
        raise CertificateFailure(
            "a local base with rational residue has %d rational points" % len(pts))
    return pts[0]


def _fiber_values(R: RestrictedScheme, points, base_points, K):
    """For each restriction point, its fiber point over each base point s,
    all coordinate tuples: y_j(s) = sum_b y_jb e_b(s), with the basis
    values e_b(s) in K read once per base point."""
    A = R.algebra
    basis = [b.map_coefficients(K) for b in R.basis]
    values = []
    for s in base_points:
        at = dict(zip(A.vars, (embed(x, K) for x in s)))
        values.append([b.evaluate(at) for b in basis])
    index = {v: i for i, v in enumerate(R.vars)}
    slots = [[index[R.var_table[(sv, b)]] for b in range(len(basis))]
             for sv in R.scheme.vars]
    for pt in points:
        coords = [[pt[i] for i in row] for row in slots]
        yield tuple(tuple(sum((y * e for y, e in zip(row, es)), K.zero) for row in coords)
                    for es in values)


def regroup_point(R: RestrictedScheme, values, K=None):
    """Repackage restriction coordinates as algebra-valued coordinates."""
    A = R.algebra
    if K is None:
        K = values[0].field if values else A.field
    # R.basis is reduced modulo A, and A's reduced Groebner basis stays
    # reduced over K, so a K-combination of the basis is already reduced
    basis = [b.map_coefficients(K) for b in R.basis]
    vmap = dict(zip(R.vars, values))
    out = []
    for sv in R.scheme.vars:
        acc = MPoly.zero(K, A.vars)
        for b in range(len(basis)):
            acc = acc + basis[b] * vmap[R.var_table[(sv, b)]]
        out.append(acc)
    return tuple(out)


class AdjunctionCertificate:
    __slots__ = ("ok", "left_points", "right_points", "pairs")

    def __init__(self, ok: bool, left_points: list, right_points: list,
                 pairs: list):
        self.ok = ok
        self.left_points = left_points
        self.right_points = right_points
        self.pairs = pairs


def adjunction_check(R: RestrictedScheme, K=None) -> AdjunctionCertificate:
    """Certify that regrouping is a bijection onto the algebra points."""
    A = R.algebra
    K = K or A.field
    left = R.points(K)
    right = algebra_points(R.scheme, K)
    pairs = [(pt, regroup_point(R, pt, K)) for pt in left]
    mapped = sorted(_point_label(q) for _, q in pairs)
    expected = [_point_label(q) for q in right]
    ok = mapped == expected and len(set(mapped)) == len(mapped)
    return AdjunctionCertificate(ok, left, right, pairs)


class ProductFormulaCertificate:
    __slots__ = ("ok", "ideal_match", "counts")

    def __init__(self, ok: bool, ideal_match: bool, counts: list):
        self.ok = ok
        self.ideal_match = ideal_match
        self.counts = counts  # (stage degree, product count, left count, right count)


def _base_change(X, proj):
    """X over proj's target: each coefficient of `X.coefficients` mapped by
    the projection."""
    target = proj.target
    shared = set(target.vars) & set(X.vars)
    if shared:
        raise MixedContexts("cannot base change, unknowns collide: %r" % sorted(shared))
    ctx = tuple(target.vars) + tuple(X.vars)
    rels = [_joined(target.field, ctx, {a: proj.apply(c) for a, c in coeffs.items()})
            for coeffs in X.coefficients]
    return SchemePresentation(target, X.vars, rels)


def product_formula_check(prod: ProductAlgebra, X: SchemePresentation,
                          stages=(1, 2, 3)) -> ProductFormulaCertificate:
    """Restriction along a product against the product of restrictions.

    Expanding against the basis adapted to the idempotent splits the
    coordinate system into two independent blocks; the certificate
    demands literal equality of reduced Groebner data between that
    system and the juxtaposition of the factor restrictions, and point
    count multiplicativity over the requested stages.
    """
    P = prod.presentation
    if not (X.base is P or (X.base.vars == P.vars
                            and X.base.relations == P.relations)):
        raise MixedContexts("scheme is not presented over the product")
    A1 = prod.proj_left.target
    A2 = prod.proj_right.target
    field = P.field
    lifted = [P.nf(prod.idempotent_left * rename_context(m, prod.left_vars, P.vars))
              for m in A1.basis_elements()]
    lifted += [P.nf(prod.idempotent_right * rename_context(m, prod.right_vars, P.vars))
               for m in A2.basis_elements()]
    RP = weil_restrict(P, X, basis=lifted)
    X1 = _base_change(X, prod.proj_left)
    X2 = _base_change(X, prod.proj_right)
    R1 = weil_restrict(A1, X1)
    R2 = weil_restrict(A2, X2)

    d1 = A1.dimension
    lmap = {}
    rmap = {}
    for sv in X.vars:
        for b in range(d1):
            lmap[R1.var_table[(sv, b)]] = RP.var_table[(sv, b)]
        for b in range(A2.dimension):
            rmap[R2.var_table[(sv, b)]] = RP.var_table[(sv, d1 + b)]
    juxta = [rename_context(r, lmap, RP.vars)
             for r in R1.relations if not r.is_zero()]
    juxta += [rename_context(r, rmap, RP.vars)
              for r in R2.relations if not r.is_zero()]
    gb_j = buchberger(juxta, field=field, variables=RP.vars)
    ideal_match = RP.groebner.polys == gb_j.polys

    ok = ideal_match
    counts = []
    for m in stages:
        K = stage_field(field.p, m)
        nP = len(RP.points(K))
        n1 = len(R1.points(K))
        n2 = len(R2.points(K))
        counts.append((m, nP, n1, n2))
        ok = ok and nP == n1 * n2
    return ProductFormulaCertificate(ok, ideal_match, counts)


class CoverCertificate:
    __slots__ = ("ok", "per_stage")

    def __init__(self, ok: bool, per_stage: list):
        self.ok = ok
        self.per_stage = per_stage


def _unit_sets(R, hs, s0, pts, K):
    """Per h, the points x among pts with h(x) a unit of A tensor K, local
    with residue K: h(s0, x(s0)) != 0 there, x(s0) x's fiber point over
    the rational base point s0 (`_fiber_values`)."""
    s0 = tuple(embed(x, K) for x in s0)
    at = [dict(zip(R.scheme.all_vars, s0 + x)) for (x,) in _fiber_values(R, pts, [s0], K)]
    return [{pt for pt, v in zip(pts, at) if not h.evaluate(v).is_zero()}
            for h in (h.map_coefficients(K) for h in hs)]


def open_cover_check(R: RestrictedScheme, hs,
                     stages=(1, 2)) -> CoverCertificate:
    """Principal opens covering X induce a matching cover downstairs.

    R restricts X along the standard basis of a local base with rational
    residue.  Each chart where an h is inverted is restricted on its own;
    its points must land bijectively on the points of R whose regrouped
    coordinates make h a unit (`_unit_sets`), and some h must catch
    every point.
    """
    X, A = R.scheme, R.algebra
    s0 = _rational_base_point(A, "the covering comparison")
    B = X.coordinate_ring
    ctx = B.vars
    hs = [h if h.vars == ctx else h.extend_context(ctx) for h in hs]
    probe = AlgebraPresentation(A.field, ctx, list(B.relations) + list(hs))
    if not probe.groebner.is_unit_ideal():
        raise NotCovering("the given elements do not generate the unit ideal")

    zname = fresh_name("z", set(A.vars) | set(X.vars))
    charts = []
    xz = tuple(X.vars) + (zname,)
    cctx = tuple(A.vars) + xz
    z = MPoly.variable(A.field, cctx, zname)
    for h in hs:
        rels = [g.extend_context(cctx) for g in X.relations]
        rels.append(z * h.extend_context(cctx) - 1)
        charts.append(weil_restrict(A, SchemePresentation(A, xz, rels)))

    ok = True
    per_stage = []
    for m in stages:
        K = stage_field(A.field.p, m)
        pts = R.points(K)
        unit_sets = _unit_sets(R, hs, s0, pts, K)
        stage_ok = all(any(pt in sel for sel in unit_sets) for pt in pts)
        chart_counts = []
        for Rh, sel in zip(charts, unit_sets):
            hpts = Rh.points(K)
            keep = [Rh.vars.index(v) for v in R.vars]
            proj = {tuple(q[i] for i in keep) for q in hpts}
            stage_ok = stage_ok and len(hpts) == len(proj) and proj == sel
            chart_counts.append(len(hpts))
        per_stage.append({"stage": m, "points": len(pts),
                          "unit_counts": [len(s) for s in unit_sets],
                          "chart_counts": chart_counts})
        ok = ok and stage_ok
    return CoverCertificate(ok, per_stage)
