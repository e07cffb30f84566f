"""Restriction of scalars along a finite free algebra over its stage.

A scheme presentation is a finite system of equations over a finite
algebra A.  Expanding each unknown y_j against a vector space basis of A
and splitting every equation into basis coordinates yields a system over
the stage itself; its solutions in any extension K correspond to the
original system's solutions with coordinates in A tensor K.  That
coordinate-level dictionary, plus exact point solvers on both sides, is
what this module provides, together with the comparison routines for
products of algebras and principal open coverings.
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
    _local_idempotents,
    etale_check,
    substitute_in_algebra,
    tensor_extend,
)
from .multipoly import (
    INFINITE,
    MPoly,
    buchberger,
    normal_form,
    rename_context,
    substitute_expand,
)

# The one budget of every point search: candidate tuples in
# enumerate_points and _algebra_points_bruteforce, root combinations in
# _solve_points.  Each reads it when called, so no call can widen it.
SEARCH_GUARD = 10 ** 6


class SchemePresentation:
    """Equations in unknowns y over an algebra base, coefficients reduced.

    Relations live in the combined context (base variables, unknowns);
    on construction every coefficient against the unknowns is brought to
    normal form with respect to the base relations, so two presentations
    of the same system compare equal term by term.
    """

    def __init__(self, base: AlgebraPresentation, variables, relations):
        self.base = base
        self.vars = tuple(variables)
        shared = set(self.vars) & set(base.vars)
        if shared:
            raise MixedContexts("unknowns shadow base variables: %r" % sorted(shared))
        ctx = tuple(base.vars) + self.vars
        self.all_vars = ctx
        ext_gb = [g.extend_context(ctx) for g in base.groebner.polys]
        rels = []
        for r in relations:
            if r.vars != ctx:
                r = r.extend_context(ctx)
            if r.field != base.field:
                raise MixedFields("relation stage differs from the base")
            rels.append(normal_form(r, ext_gb) if ext_gb else r)
        self.relations = tuple(rels)

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
    """
    if not (X.base is A or (X.base.field == A.field and X.base.vars == A.vars
                            and X.base.relations == A.relations)):
        raise MixedContexts("scheme is presented over a different base")
    d = A.dimension
    if d == 0:
        raise EmptyBase("restriction along the zero ring")
    field, S = A.field, A._stage
    if basis is None:
        basis = A.basis_elements()
        inv_change = None
    else:
        basis = [A.nf(b) for b in basis]
        if len(basis) != d:
            raise NotABasis("basis size differs from the algebra dimension")
        # column j of the inverse change of basis solves M x = e_j, M with
        # the basis' coordinates as columns; it is inconsistent when M is
        # singular
        units = [[(i, 1)] for i in range(d)]
        inv_change = S.solve(S.rows([A._packed_coords(b) for b in basis] + units, d), d)
        if inv_change is None:
            raise NotABasis("the given elements do not form a basis")
        inv_change = [[(i, a) for i, a in enumerate(x) if a] for x in inv_change]

    yvars, table = _restricted_names(X.vars, d, A.vars)
    ctx = tuple(A.vars) + tuple(yvars)
    nt = len(A.vars)
    basis_ctx = [b.extend_context(ctx) for b in basis]
    images = {tv: MPoly.variable(field, ctx, tv) for tv in A.vars}
    for sv in X.vars:
        acc = MPoly.zero(field, ctx)
        for b in range(d):
            acc = acc + MPoly.variable(field, ctx, table[(sv, b)]) * basis_ctx[b]
        images[sv] = acc
    ext_gb = [g.extend_context(ctx) for g in A.groebner.polys]
    idx = {m: i for i, m in enumerate(A.basis_monomials)}

    relations = []
    reduced_list = []
    for g in X.relations:
        expanded = substitute_expand(g, images)
        reduced = normal_form(expanded, ext_gb) if ext_gb else expanded
        reduced_list.append(reduced)
        vecs = {}
        for mono, c in reduced.terms.items():
            tpart, ypart = mono[:nt], mono[nt:]
            v = vecs.get(ypart)
            if v is None:
                v = [field.zero] * d
                vecs[ypart] = v
            i = idx[tpart]
            v[i] = v[i] + c
        comps = [dict() for _ in range(d)]
        zmono = (0,) * nt
        for ypart, v in vecs.items():
            u = v if inv_change is None else A._vector(S.mat_vec(inv_change, [
                (i, S.pack(c.coeffs)) for i, c in enumerate(v) if not c.is_zero()]))
            for b in range(d):
                if not u[b].is_zero():
                    comps[b][zmono + ypart] = u[b]
        for b in range(d):
            relations.append(MPoly(field, ctx, comps[b]))

    # structural round trip: recombining the coordinate relations along
    # the basis must reproduce each reduced expansion exactly
    for i in range(len(X.relations)):
        acc = MPoly.zero(field, ctx)
        for b in range(d):
            acc = acc + relations[i * d + b] * basis_ctx[b]
        acc = normal_form(acc, ext_gb) if ext_gb else acc
        if acc != reduced_list[i]:
            raise CertificateFailure("basis recombination failed")

    rels_y = [r.restrict_context(tuple(yvars)) for r in relations]
    return RestrictedScheme(X, A, basis, yvars, rels_y, table)


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
    relsK = [r if r.field == K else r.map_coefficients(K) for r in relations]
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
    if B.groebner.is_unit_ideal():
        return []
    if not B.vars:
        return [()]
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
    holds = _relation_check(B.relations, rootlists, K)
    out = [tuple(rl[j] for rl, j in zip(rootlists, idx))
           for idx in itertools.product(*(range(len(rl)) for rl in rootlists))
           if holds(idx)]
    out.sort(key=_point_label)
    return out


def _relation_check(relations, rootlists, K):
    """Whether a root combination solves every relation, on packed ints of K.

    Returns a predicate on index tuples into rootlists.  Each root gets a
    table of its powers; a term is its coefficient times table entries,
    reduced before every further factor but the last, so it adds at most
    one product of two reduced coefficients to the relation's sum.  The
    packing's value bound covers the sum of the longest relation, which
    is reduced once and compared with zero.
    """
    terms = [list(r.map_coefficients(K).terms.items()) for r in relations]
    S = _Packed(K.p, K.modulus, max(map(len, terms), default=0) // 2)
    red = S.reduce
    top = [max((m[i] for t in terms for m, _ in t), default=0)
           for i in range(len(rootlists))]
    tables = []
    for rl, e in zip(rootlists, top):
        rows = []
        for r in rl:
            row = [1, S.pack(r.coeffs)]
            while len(row) <= e:
                row.append(red(row[-1] * row[1]))
            rows.append(row)
        tables.append(rows)
    compiled = [[(S.pack(c.coeffs), [(i, e) for i, e in enumerate(m) if e])
                 for m, c in t] for t in terms]

    def holds(idx):
        rows = [tab[j] for tab, j in zip(tables, idx)]
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


def fiber_presentation(X: SchemePresentation, coords, K) -> AlgebraPresentation:
    """Coordinate ring of X's fiber over the base point coords, at stage K."""
    yctx = tuple(X.vars)
    assign = {tv: MPoly.constant(K, yctx, c if c.field == K else embed(c, K))
              for tv, c in zip(X.base.vars, coords)}
    assign.update((yv, MPoly.variable(K, yctx, yv)) for yv in yctx)
    return AlgebraPresentation(
        K, yctx, [substitute_expand(g, assign) for g in X.relations])


# ---------------------------------------------------------------------------
# algebra-valued points, computed without the restriction

def _section(CK, times_eps, images, ys):
    """The values a_j with eps phi(a_j) = eps y_j, or None if some eps y_j
    is not in the image: one `echelon` over the stage on the packed
    columns eps phi(m), m over the basis of A tensor K, then eps y_j."""
    K, S = CK.field, CK._stage
    cols = [S.mat_vec(times_eps, v) for v in images + ys]
    sol = S.solve(S.rows(cols, CK.dimension), len(images))
    return sol and [[FieldElement(K, S.unpack(a)) for a in x] for x in sol]


def _algebra_points_smooth(X, AK):
    CK = tensor_extend(X.coordinate_ring, AK.field)
    if CK.is_zero_ring():
        return []
    ctx = CK.vars
    images = [CK._packed_coords(m.extend_context(ctx)) for m in AK.basis_elements()]
    ys = [CK._packed_coords(CK.var(y)) for y in X.vars]
    components = [(CK._columns(eps), sorted(CK._packed_coords(eps)))
                  for eps in _local_idempotents(CK)]
    per = []
    for e in _local_idempotents(AK):
        e_vec = CK._packed_coords(e.extend_context(ctx))
        pts_e = []
        for times_eps, eps_vec in components:
            if CK._stage.mat_vec(times_eps, e_vec) != eps_vec:
                continue  # eps lies over another local factor
            sol = _section(CK, times_eps, images, ys)
            if sol is not None:  # else eps has rank above 1 over e
                pts_e.append([AK.nf(e * AK.from_coords(a)) for a in sol])
        per.append(pts_e)

    out = [tuple(sum(col, AK.zero()) for col in zip(*combo))
           for combo in itertools.product(*per)]
    tassign = {tv: AK.nf(AK.var(tv)) for tv in X.base.vars}
    for pt in out:
        assign = dict(tassign)
        assign.update(zip(X.vars, pt))
        if not all(substitute_in_algebra(AK, g, assign).is_zero()
                   for g in X.relations):
            raise CertificateFailure("a lifted point does not solve X")
    out.sort(key=_point_label)
    return out


def _algebra_points_bruteforce(X, AK):
    A = X.base
    K = AK.field
    d = AK.dimension
    r = len(X.vars)
    total = K.order ** (d * r)
    if total > SEARCH_GUARD:
        raise SearchGuardExceeded(
            "algebra_points: %d algebra tuples exceed the budget %d"
            % (total, SEARCH_GUARD))
    elements = [AK.from_coords(list(c)) for c in itertools.product(list(K), repeat=d)]
    tassign = {tv: AK.nf(AK.var(tv)) for tv in A.vars}
    out = []
    for combo in itertools.product(elements, repeat=r):
        assign = dict(tassign)
        assign.update(zip(X.vars, combo))
        if all(substitute_in_algebra(AK, g, assign).is_zero() for g in X.relations):
            out.append(tuple(combo))
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
    label order.
    """
    A = X.base
    if A.dimension == 0:
        raise EmptyBase("points valued in the zero ring")
    K = K or A.field
    AK = tensor_extend(A, K)
    if not X.vars:
        tassign = {tv: AK.nf(AK.var(tv)) for tv in A.vars}
        ok = all(substitute_in_algebra(AK, g, tassign).is_zero()
                 for g in X.relations)
        return [()] if ok else []
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

def regroup_point(R: RestrictedScheme, values, K=None):
    """Repackage restriction coordinates as algebra-valued coordinates."""
    A = R.algebra
    if K is None:
        K = values[0].field if values else A.field
    # R.basis is reduced modulo A, and A's reduced Groebner basis stays
    # reduced over K, so a K-combination of the basis is already reduced
    basis = [b if K == A.field else b.map_coefficients(K) for b in R.basis]
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
    target = proj.target
    shared = set(target.vars) & set(X.vars)
    if shared:
        raise MixedContexts("cannot base change, unknowns collide: %r" % sorted(shared))
    ctx = tuple(target.vars) + tuple(X.vars)
    assign = {pv: proj.images[pv].extend_context(ctx) for pv in proj.source.vars}
    for yv in X.vars:
        assign[yv] = MPoly.variable(target.field, ctx, yv)
    rels = [substitute_expand(g, assign) for g in X.relations]
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
    w = MPoly.variable(field, P.vars, prod.idempotent_var)
    one = MPoly.constant(field, P.vars, 1)
    lifted = [P.nf(w * rename_context(m, prod.left_vars, P.vars))
              for m in A1.basis_elements()]
    lifted += [P.nf((one - w) * rename_context(m, prod.right_vars, P.vars))
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
    __slots__ = ("ok", "unit_ideal", "per_stage")

    def __init__(self, ok: bool, unit_ideal: bool, per_stage: list):
        self.ok = ok
        self.unit_ideal = unit_ideal
        self.per_stage = per_stage


def open_cover_check(R: RestrictedScheme, hs,
                     stages=(1, 2)) -> CoverCertificate:
    """Principal opens covering X induce a matching cover downstairs.

    R restricts X along the standard basis of a local base with rational
    residue.  Each chart where an h is inverted is restricted on its own;
    its points must land bijectively on the points of R whose regrouped
    coordinates make h a unit, and some h must catch every point.
    """
    X, A = R.scheme, R.algebra
    if A.dimension - A.nilradical_dimension() != 1:
        raise NotLocalBase(
            "the covering comparison needs a local base with rational residue")
    B = X.coordinate_ring
    ctx = B.vars
    hs = [h if h.vars == ctx else h.extend_context(ctx) for h in hs]
    probe = AlgebraPresentation(A.field, ctx, list(B.relations) + list(hs))
    if not probe.groebner.is_unit_ideal():
        raise NotCovering("the given elements do not generate the unit ideal")

    zname = "z"
    n = 0
    while zname in set(A.vars) | set(X.vars):
        zname = "z%d" % n
        n += 1
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
        AK = tensor_extend(A, K)
        pts = R.points(K)
        tassign = {tv: AK.nf(AK.var(tv)) for tv in A.vars}
        unit_sets = []
        for h in hs:
            sel = set()
            for pt in pts:
                a = regroup_point(R, pt, K)
                assign = dict(tassign)
                assign.update(zip(R.scheme.vars, a))
                if AK.is_unit(substitute_in_algebra(AK, h, assign)):
                    sel.add(pt)
            unit_sets.append(sel)
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
    return CoverCertificate(ok, True, per_stage)
