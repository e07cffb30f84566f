"""Finitely presented commutative algebras over a stage, as quotient rings.

An AlgebraPresentation is k[t_1..t_n]/(relations) together with its
reduced Groebner basis and the standard monomial basis of the quotient.
The first basis element is always the monomial 1.  On top of that sit
the structural operations: base extension, splitting into local factors,
binary products, and the Jacobian smoothness certificate for a relative
presentation.  A presentation keeps one linear model on packed ints
(`exactfield._Packed`): per variable v, the columns nf(v m) over the
basis, a normal form only where v m leaves the staircase.  A map T with
T(v m) = T(v) T(m) is walked up the staircase from it: multiplication by
any f, and the Frobenius map x -> x^q, computed once with each v^q by
square-and-multiply on the tables.  The nilradical dimension, the
residue degrees and the local factors are all read off that one map, by
`_Packed.echelon` on its packed columns: the fixed space of F is the
kernel of F - I, and the image of a high enough power F^L has the
nilradical as its kernel and one residue field per local factor.
An inverse is one `_Packed.solve` on the columns of multiplication by
the element, and a non-unit's annihilator is read off that solve's
echelon form (`_Packed.null_vectors`); only the idempotents come off
minimal polynomials, by Lagrange interpolation at their roots.  The
primitive idempotents are refined once per presentation and kept on it,
like its local factors.
A polynomial is evaluated at algebra elements on the same columns
(`_evaluate`), with no substitution and no normal form; an `AlgebraHom`
maps a polynomial that way, and `weilres.weil_restrict` expands a
restriction on the same tables, so every product of elements of A runs
on this one model.  A base change
A tensor K (`tensor_extend`) is read off A: A's Groebner basis and
standard monomials, A's tables lifted into K's packing, and A's
Frobenius composed [K : k] times; it runs no Buchberger, no normal form
and no square-and-multiply over K.
"""

from __future__ import annotations

import heapq
import itertools
from functools import cached_property

from .errors import (
    CertificateFailure,
    MissingAssignment,
    MixedContexts,
    MixedFields,
    NotFinite,
    NotSquareSystem,
    ZeroRing,
)
from .exactfield import FieldElement, UniPoly, _at_image, _Packed, embed, roots_in
from .multipoly import (
    INFINITE,
    GroebnerBasis,
    MPoly,
    buchberger,
    fresh_name,
    normal_form,
    rename_context,
    standard_monomials,
)


class AlgebraPresentation:
    """k[vars]/(relations) with cached Groebner data, immutable once built."""

    def __init__(self, field, variables, relations):
        self.field = field
        self.vars = tuple(variables)
        rels = []
        for r in relations:
            if r.vars != self.vars or r.field != field:
                raise MixedContexts("relation context mismatch")
            if not r.is_zero():
                rels.append(r)
        self.relations = tuple(rels)
        self.groebner = buchberger(list(self.relations), field=field,
                                   variables=self.vars)
        self.basis_monomials = standard_monomials(self.groebner)
        self._base = None  # the presentation an extension is read from
        self.points_by_stage = {}  # filled by weilres.zero_dim_solve
        self.extensions = {}  # filled by tensor_extend, per stage
        self.local_factors = None  # filled by decompose_local
        self.idempotents = None  # filled by _local_idempotents

    @classmethod
    def _extension(cls, A, K):
        """A read over the larger stage K: the relations and A's reduced
        Groebner basis with their coefficients mapped to K, A's standard
        monomials, and `_tables` and `_frobenius` lifted from A's own
        when first read.  Only `tensor_extend` builds one."""
        AK = cls.__new__(cls)
        AK.field, AK.vars = K, A.vars
        AK.relations = tuple(r.map_coefficients(K) for r in A.relations)
        AK.groebner = GroebnerBasis(K, A.vars,
                                    [g.map_coefficients(K) for g in A.groebner.polys])
        AK.basis_monomials = A.basis_monomials
        AK._base = A
        AK.points_by_stage, AK.extensions = {}, {}
        AK.local_factors = AK.idempotents = None
        return AK

    # -- basic structure ----------------------------------------------

    @property
    def dimension(self):
        if self.basis_monomials is INFINITE:
            raise NotFinite("quotient by %r is not finite dimensional" % (self.groebner,))
        return len(self.basis_monomials)

    def is_zero_ring(self):
        return self.dimension == 0

    def basis_elements(self):
        """Standard monomials as elements, 1 first."""
        return [MPoly(self.field, self.vars, {m: self.field.one})
                for m in self.basis_monomials]

    def zero(self):
        return MPoly.zero(self.field, self.vars)

    def one(self):
        return MPoly.constant(self.field, self.vars, self.field.one)

    def var(self, name):
        return MPoly.variable(self.field, self.vars, name)

    def nf(self, f: MPoly) -> MPoly:
        return normal_form(f, self.groebner)

    # -- coordinates and the linear model ------------------------------

    @cached_property
    def _mono_index(self):
        return {m: i for i, m in enumerate(self.basis_monomials)}

    def coords(self, f: MPoly):
        """Coordinate vector of nf(f) in the standard monomial basis."""
        return self._vector(self._packed_coords(f))

    def from_coords(self, vec) -> MPoly:
        return MPoly(self.field, self.vars, dict(zip(self.basis_monomials, vec)))

    def _vector(self, vec):
        """Sparse packed coordinates as a vector of field elements."""
        return [row[0] for row in self._unpacked([vec])]

    def _element(self, vec) -> MPoly:
        """The normal form with sparse packed coordinates vec."""
        return self.from_coords(self._vector(vec))

    @cached_property
    def _stage(self):
        return _Packed(self.field.p, self.field.modulus, self.dimension)

    def _packed_coords(self, f: MPoly):
        """nf(f) as sparse (index, packed entry) pairs; on the staircase f is nf(f)."""
        idx = self._mono_index
        own = f.vars == self.vars and f.field == self.field and idx.keys() >= f.terms.keys()
        terms = f.terms if own else self.nf(f).terms
        return [(idx[m], self._stage.pack(c.coeffs)) for m, c in terms.items()]

    def _unpacked(self, cols):
        """Sparse packed columns as a matrix of field elements, rows first."""
        field, unpack = self.field, self._stage.unpack
        rows = [[field.zero] * len(cols) for _ in range(self.dimension)]
        for j, col in enumerate(cols):
            for i, a in col:
                rows[i][j] = FieldElement(field, unpack(a))
        return rows

    def _lifted(self, cols):
        """Sparse packed columns over the base of an extension, each entry
        packed on this stage: an F_p residue is the same int in every
        packing, and any other entry is sent where `embed` sends the
        base's generator, as `MPoly.map_coefficients` does."""
        k, S, T = self._base.field, self._base._stage, self._stage
        if k.degree == 1:
            return cols
        image = T.pack(embed(k.gen, self.field).coeffs)
        return [[(i, _at_image(T, S.unpack(a), image)) for i, a in col] for col in cols]

    @cached_property
    def _tables(self):
        """Per variable v, the sparse packed columns nf(v m), m over the basis:
        a unit vector, or for a border monomial v m, one normal form; an
        extension lifts its base's."""
        if self._base is not None:
            return [self._lifted(cols) for cols in self._base._tables]
        idx = self._mono_index
        shifts = [[m[:i] + (m[i] + 1,) + m[i + 1:] for m in self.basis_monomials]
                  for i in range(len(self.vars))]
        border = {w: self._packed_coords(MPoly(self.field, self.vars, {w: self.field.one}))
                  for w in set(itertools.chain(*shifts)) - idx.keys()}
        return [[[(idx[w], 1)] if w in idx else border[w] for w in ws] for ws in shifts]

    def _walk(self, first, tables):
        """Sparse packed columns of a map T up the staircase, from T(1) = first
        and T(m) = tables[i] T(m / v), v = vars[i] the first variable of m."""
        cols = [first]
        for m in self.basis_monomials[1:]:
            i = next(i for i, e in enumerate(m) if e)
            below = cols[self._mono_index[m[:i] + (m[i] - 1,) + m[i + 1:]]]
            cols.append(self._stage.mat_vec(tables[i], below))
        return cols

    def _columns(self, f: MPoly):
        """Sparse packed columns of multiplication by f: f m = v (f m')."""
        return self._walk(self._packed_coords(f), self._tables)

    def _evaluate(self, f: MPoly, values):
        """Sparse packed coordinates of f evaluated in the algebra, values
        mapping f's variables to sparse packed coordinates; a variable of
        the algebra without a value stands for itself.  f's coefficients
        may lie in a smaller stage and are sent in by `embed`.  Each
        value's multiplication columns are walked once, a term is its
        coefficient carried up from 1 by one `mat_vec` per unit of
        degree, and each term is added in reduced, so no entry sums more
        than d products."""
        S, d = self._stage, self.dimension
        if not d:
            return []
        cols = {}
        for i, v in enumerate(f.vars):
            if any(m[i] for m in f.terms):
                if v in values:
                    cols[i] = self._walk(values[v], self._tables)
                elif v in self.vars:
                    cols[i] = self._tables[self.vars.index(v)]
                else:
                    raise MissingAssignment("no value for variable %r" % v)
        field, red = self.field, S.reduce
        acc = [0] * d
        for m, c in f.terms.items():
            vec = [(0, S.pack((c if c.field == field else embed(c, field)).coeffs))]
            for i, e in enumerate(m):
                for _ in range(e):
                    vec = S.mat_vec(cols[i], vec)
            for i, a in vec:
                acc[i] = red(acc[i] + a)
        return [(i, a) for i, a in enumerate(acc) if a]

    @cached_property
    def _frobenius(self):
        """Sparse packed columns of F(x) = x^q, q the order of the stage.

        F is a ring map, linear over the stage: F(m) = F(v) F(m / v) walks
        the staircase with multiplication by v^q for the table of v, and
        v^q is square-and-multiply from v's column nf(v 1) in that table.
        An extension A tensor K, b = [K : k], lifts the columns of F_A^b,
        F_A composed b times on A's packing: (a tensor c)^(q^b) =
        F_A^b(a) tensor c for c in K.
        """
        if not self.dimension:
            return []
        if self._base is not None:
            A = self._base
            F = power = A._frobenius
            for _ in range(self.field.degree // A.field.degree - 1):
                power = [A._stage.mat_vec(F, col) for col in power]
            return self._lifted(power)
        S, one, tables = self._stage, [(0, 1)], []
        for table in self._tables:
            power, base, e = one, table[0], self.field.order
            while e:
                times_base = self._walk(base, self._tables)
                if e & 1:
                    power = S.mat_vec(times_base, power)
                e >>= 1
                base = S.mat_vec(times_base, base)
            tables.append(self._walk(power, self._tables))
        return self._walk(one, tables)

    @cached_property
    def _reduced_image(self):
        """Sparse packed columns spanning the image of F^L, q^L above the
        dimension, F the q-power map: F^L kills the nilradical, and on each
        local factor its image is a copy of the residue field.

        The images of F, F^2, ... shrink until two agree, and from there
        on F maps the image onto itself; by F^L they have agreed.  Each is
        F applied to a basis of the one before, and its basis is read off
        those columns at the pivots of one `echelon`.
        """
        S, F, d = self._stage, self._frobenius, self.dimension
        image = [[(i, 1)] for i in range(d)]
        while True:
            cols = [S.mat_vec(F, v) for v in image]
            pivots = S.echelon(S.rows(cols, d))
            if len(pivots) == len(image):
                return image
            image = [cols[j] for j in pivots]

    def nilradical_dimension(self):
        """Dimension of the nilradical, the kernel of an iterated Frobenius.

        A/nil(A) is the product of the residue fields, so A is local with
        rational residue exactly when this is one less than the dimension.
        """
        return self.dimension - len(self._reduced_image)

    def is_unit(self, f: MPoly):
        return self.inverse(f) is not None

    def inverse(self, f: MPoly):
        """Multiplicative inverse as a normal form, or None
        (`_inverse_or_annihilator`)."""
        return self._inverse_or_annihilator(f)[0]

    def _inverse_or_annihilator(self, f: MPoly):
        """(inverse, None) for a unit f, else (None, a nonzero annihilator
        of f), both normal forms, by one `solve` of f x = 1 on f's packed
        columns and the unit column, consistent exactly when f is a unit.
        The annihilator, `etale_check`'s obstruction, is the kernel vector
        of f's columns at their first free column, read off the echelon
        form the solve leaves, and must be nonzero and annihilate f."""
        S, d = self._stage, self.dimension
        if not d:
            return self.zero(), None  # zero ring: 1 = 0 and everything inverts
        cols = self._columns(f)
        rows = S.rows(cols + [[(0, 1)]], d)
        sol = S.solve(rows, d)
        if sol is None:
            ann = [(i, a) for vec in S.null_vectors(rows, d)[:1]
                   for i, a in enumerate(vec) if a]
            if not ann or S.mat_vec(cols, ann):
                raise CertificateFailure(
                    "the obstruction is not a nonzero annihilator of the determinant")
            return None, self._element(ann)
        x = [(i, a) for i, a in enumerate(sol[0]) if a]
        if S.mat_vec(cols, x) != [(0, 1)]:
            raise CertificateFailure("the solved inverse does not invert")
        return self._element(x), None

    def min_poly(self, f: MPoly) -> UniPoly:
        """Monic minimal polynomial of f acting on the quotient."""
        return self._min_poly(self._columns(f))

    def _min_poly(self, cols) -> UniPoly:
        """Monic minimal polynomial of the map with sparse packed columns cols.

        A Krylov iteration: the powers 1, f, f^2, ... are reduced in turn
        against sparse rows made from the earlier ones, each carrying its
        combination of powers; the first power that reduces to zero gives
        the relation.  No row has an entry at an earlier row's pivot, so
        only the rows whose pivots a power holds reduce it, in the order
        made.  An entry is reduced only where it is read, so it sums at
        most d products besides itself: inside the value bound of `_stage`.
        """
        field, d = self.field, self.dimension  # the zero ring, d = 0, gives 1
        S = self._stage
        red, ps = S.reduce, S.ps
        power = [(0, 1)]  # f^0 = 1, the first basis element
        rows, made = [], {}  # (pivot, sparse row), pivot entry 1; pivot -> row index
        for k in range(d + 1):
            if k:
                power = S.mat_vec(cols, power)
            vec = dict(power)
            vec[d + k] = 1
            queue = [made[i] for i in vec if i in made]
            heapq.heapify(queue)
            while queue:
                pivot, row = rows[heapq.heappop(queue)]
                if c := red(vec[pivot]):
                    c = ps - c  # -c, slot by slot
                    for i, b in row:
                        if i in vec:
                            vec[i] += c * b
                        else:
                            vec[i] = c * b
                            if i in made:
                                heapq.heappush(queue, made[i])
            vec = {i: r for i, a in vec.items() if a and (r := red(a))}
            pivot = min((i for i in vec if i < d), default=None)
            if pivot is None:
                return UniPoly(field, [FieldElement(field, S.unpack(vec.get(d + i, 0)))
                                       for i in range(k + 1)])
            inv = S.inverse(vec[pivot])
            made[pivot] = len(rows)
            rows.append((pivot, [(i, a if inv == 1 else red(a * inv)) for i, a in vec.items()]))
        raise CertificateFailure("no dependency found below the dimension bound")

    @cached_property
    def min_polys(self):
        """Minimal polynomial of each coordinate, in variable order, computed
        once on its multiplication columns: its table."""
        return tuple(map(self._min_poly, self._tables))

    def __repr__(self):
        return "AlgebraPresentation(%r, vars=%r, %d relations)" % (
            self.field, self.vars, len(self.relations))


def tensor_extend(A: AlgebraPresentation, K) -> AlgebraPresentation:
    """A tensor K, the same presentation read over a larger stage, built
    once per stage and kept on A.

    It is derived from A and computes nothing over K that A knows, so it
    does not go through `AlgebraPresentation.__init__`: Buchberger on
    inputs over k does only k-arithmetic and a reduced Groebner basis is
    unique, so A's basis, with its coefficients mapped to K, is the
    reduced basis over K, with the same standard monomials.  The tables
    are A's with each entry lifted to K, and the Frobenius x -> x^|K| is
    A's composed b = [K : k] times, lifted: (b - 1) d products of a
    vector by A's Frobenius instead of a square-and-multiply over K.
    """
    if K == A.field:
        return A
    if K.p != A.field.p or K.degree % A.field.degree != 0:
        raise MixedFields("cannot extend %r to %r" % (A.field, K))
    AK = A.extensions.get(K)
    if AK is None:
        AK = A.extensions[K] = AlgebraPresentation._extension(A, K)
    return AK


# ---------------------------------------------------------------------------
# local decomposition

class LocalFactor:
    __slots__ = ("idempotent", "presentation", "residue_degree")

    def __init__(self, idempotent: MPoly, presentation: AlgebraPresentation,
                 residue_degree: int):
        self.idempotent = idempotent          # normal form in the parent
        self.presentation = presentation
        self.residue_degree = residue_degree  # over the parent's coefficient stage


class AlgebraHom:
    """A k-algebra map given by generator images, validated on request."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: AlgebraPresentation, target: AlgebraPresentation,
                 images: dict):
        self.source = source
        self.target = target
        self.images = images

    def _values(self):
        """The images as sparse packed coordinates in the target."""
        return {v: self.target._packed_coords(g) for v, g in self.images.items()}

    def apply(self, f: MPoly) -> MPoly:
        """f's image, evaluated on the target's packed columns."""
        return self.target._element(self.target._evaluate(f, self._values()))

    def check(self):
        """Whether every source relation maps to zero."""
        values = self._values()
        return not any(self.target._evaluate(r, values) for r in self.source.relations)


def _lagrange(S, mu, c):
    """The packed coefficients of L_c = (mu / (x - c)) / (mu / (x - c))(c),
    mu packed and monic with the root c: synthetic division by x - c, a
    Horner value at c and one inverse."""
    red = S.reduce
    quo = [mu[-1]]  # high degree first
    for a in reversed(mu[1:-1]):
        quo.append(red(a + c * quo[-1]))
    value = 0
    for a in quo:
        value = red(value * c + a)
    inv = S.inverse(value)
    return [red(a * inv) for a in reversed(quo)]


def _combination(S, d, coeffs, vecs):
    """sum_k coeffs[k] vecs[k] for sparse packed vectors of length d, one
    reduction per entry: it sums len(vecs) <= d products."""
    acc = [0] * d
    for c, vec in zip(coeffs, vecs):
        if c:
            for i, a in vec:
                acc[i] += c * a
    red = S.reduce
    return [(i, r) for i, x in enumerate(acc) if x and (r := red(x))]


def _local_idempotents(A: AlgebraPresentation):
    """The primitive idempotents of A, one per local factor, as normal
    forms in label order, refined from 1 along the Frobenius fixed space
    once and kept on A; each call returns a new list.

    The q-power map is linear over a stage of order q.  Its fixed space
    meets the nilradical trivially and is spanned by the primitive
    idempotents, so it has dimension s, the number of local factors.  A
    fixed element is a combination of those idempotents with
    coefficients in the stage, so its minimal polynomial is squarefree
    and splits over the stage, and Lagrange interpolation at its roots
    yields the idempotents cutting out where it takes each value; no
    lifting through the nilpotents is needed.  Starting from 1, each
    fixed basis vector v refines the current idempotents e by its own,
    e -> L_c(v) e with L_c = (mu / (x - c)) / (mu / (x - c))(c) at each
    root c of its minimal polynomial mu; once every basis vector is
    constant on each piece, so is every fixed element, and the s pieces
    are the primitive idempotents.  All of this runs inside A on packed
    ints: the fixed space is the kernel of F - I by one `echelon` on the
    columns of A's Frobenius map, and per piece e the powers v^k e,
    k < deg mu, are taken once on the columns of multiplication by v,
    each L_c(v) e a combination of them; a piece on which v is a
    constant c (v e = c e) is kept as it is.  The idempotent laws are
    checked on the same columns.
    """
    if A.idempotents is not None:
        return list(A.idempotents)
    if A.dimension == 0:
        raise ZeroRing("the zero ring has no local factors")
    S = A._stage
    rows = S.rows(A._frobenius, A.dimension)
    for i, row in enumerate(rows):
        row[i] = S.reduce(row[i] + S.ps - 1)  # F - I
    V = S.kernel(rows)
    idems = [[(0, 1)]]  # the packed 1
    for vec in V[1:]:  # V[0] is 1: its column of F - I is zero, so free first
        if len(idems) == len(V):
            break
        cols = A._walk([(i, a) for i, a in enumerate(vec) if a], A._tables)
        mu = A._min_poly(cols)
        cs = roots_in(mu, A.field)
        if len(cs) != mu.degree:
            raise CertificateFailure("a fixed element does not split over the stage")
        mu = [S.pack(c.coeffs) for c in mu.coeffs]
        lagrange = [_lagrange(S, mu, S.pack(c.coeffs)) for c in cs]
        refined = []
        for e in idems:
            powers = [e, S.mat_vec(cols, e)]  # v^k e, k < deg mu
            i, a = e[0]
            c = S.reduce(dict(powers[1]).get(i, 0) * S.inverse(a))
            if powers[1] == [(j, r) for j, b in e if (r := S.reduce(c * b))]:
                refined.append(e)  # v e = c e: L_c(v) e = e, the others vanish
                continue
            while len(powers) < len(mu) - 1:
                powers.append(S.mat_vec(cols, powers[-1]))
            refined += [p for L in lagrange if (p := _combination(S, A.dimension, L, powers))]
        idems = refined
    if len(idems) != len(V):
        raise CertificateFailure("the fixed basis does not separate the local factors")
    elems = [A._element(e) for e in idems]
    if sum(elems, A.zero()) != A.one():  # normal forms sum to a normal form
        raise CertificateFailure("the local idempotents do not sum to 1")
    for j, e in enumerate(idems):
        times_e = A._walk(e, A._tables)
        if S.mat_vec(times_e, e) != e:
            raise CertificateFailure("a local idempotent is not idempotent")
        if any(S.mat_vec(times_e, other) for other in idems[:j]):
            raise CertificateFailure("two local idempotents are not orthogonal")
    A.idempotents = sorted(elems, key=lambda e: e.label())
    return list(A.idempotents)


def decompose_local(A: AlgebraPresentation):
    """Split A into local factors along its primitive idempotents.

    The idempotents come from `_local_idempotents`.  A presentation is
    built for each factor returned, and none when A is local.  The
    residue degree of the factor e A is the rank of e F^L(A), F^L(A)
    spanned by `_reduced_image`: F^L commutes with multiplication by
    the fixed e and maps e A onto a copy of its residue field.  The
    factors are found once and kept on A; each call returns a new list.
    """
    if A.local_factors is not None:
        return list(A.local_factors)
    idems = _local_idempotents(A)
    S, image, out = A._stage, A._reduced_image, []
    for e in idems:
        B = A if len(idems) == 1 else AlgebraPresentation(
            A.field, A.vars, list(A.relations) + [A.one() - e])
        times_e = A._columns(e)
        part = [S.mat_vec(times_e, v) for v in image]
        out.append(LocalFactor(e, B, len(S.echelon(S.rows(part, A.dimension)))))
    A.local_factors = out
    return list(out)


# ---------------------------------------------------------------------------
# binary products

class ProductAlgebra:
    __slots__ = ("presentation", "idempotent_var", "left_vars", "right_vars",
                 "idempotent_left", "idempotent_right", "proj_left", "proj_right")

    def __init__(self, presentation: AlgebraPresentation, idempotent_var: str,
                 left_vars: dict, right_vars: dict, idempotent_left: MPoly,
                 idempotent_right: MPoly, proj_left: AlgebraHom,
                 proj_right: AlgebraHom):
        self.presentation = presentation
        self.idempotent_var = idempotent_var
        self.left_vars = left_vars    # original A1 var -> product var
        self.right_vars = right_vars
        self.idempotent_left = idempotent_left
        self.idempotent_right = idempotent_right
        self.proj_left = proj_left
        self.proj_right = proj_right


def product_algebra(A1: AlgebraPresentation, A2: AlgebraPresentation) -> ProductAlgebra:
    """Present A1 x A2 with one new idempotent variable splitting 1.

    Variable names survive when the two sets are disjoint, otherwise the
    factor index is appended.  The idempotent variable takes the first
    free name among w, w0, w1, ...
    """
    if A1.field != A2.field:
        raise MixedFields("product factors live over different stages")
    field = A1.field
    collide = set(A1.vars) & set(A2.vars)
    left = {v: (v + "1" if v in collide else v) for v in A1.vars}
    right = {v: (v + "2" if v in collide else v) for v in A2.vars}
    wname = fresh_name("w", set(left.values()) | set(right.values()))
    pvars = tuple(left[v] for v in A1.vars) + tuple(right[v] for v in A2.vars) + (wname,)

    w = MPoly.variable(field, pvars, wname)
    one = MPoly.constant(field, pvars, 1)
    rels = [w * w - w]
    for v in A1.vars:
        u = MPoly.variable(field, pvars, left[v])
        rels.append(u * w - u)
    for v in A2.vars:
        u = MPoly.variable(field, pvars, right[v])
        rels.append(u * w)
    for v1 in A1.vars:
        for v2 in A2.vars:
            rels.append(MPoly.variable(field, pvars, left[v1])
                        * MPoly.variable(field, pvars, right[v2]))
    for r in A1.relations:
        c = r.constant_value()
        rels.append(rename_context(r, left, pvars) - (one - w) * c)
    for r in A2.relations:
        c = r.constant_value()
        rels.append(rename_context(r, right, pvars) - w * c)
    pres = AlgebraPresentation(field, pvars, rels)
    if pres.dimension != A1.dimension + A2.dimension:
        raise CertificateFailure("the product's dimension is not the factors' sum")

    img_left = {left[v]: A1.nf(A1.var(v)) for v in A1.vars}
    img_left.update({right[v]: A1.zero() for v in A2.vars})
    img_left[wname] = A1.one()
    img_right = {left[v]: A2.zero() for v in A1.vars}
    img_right.update({right[v]: A2.nf(A2.var(v)) for v in A2.vars})
    img_right[wname] = A2.zero()
    proj_left = AlgebraHom(pres, A1, img_left)
    proj_right = AlgebraHom(pres, A2, img_right)
    if not (proj_left.check() and proj_right.check()):
        raise CertificateFailure("a product projection is not an algebra map")
    return ProductAlgebra(
        presentation=pres,
        idempotent_var=wname,
        left_vars=left,
        right_vars=right,
        idempotent_left=pres.nf(w),
        idempotent_right=pres.nf(one - w),
        proj_left=proj_left,
        proj_right=proj_right,
    )


# ---------------------------------------------------------------------------
# relative smoothness certificate

class EtaleCertificate:
    __slots__ = ("ok", "jacobian_det", "inverse", "obstruction")

    def __init__(self, ok: bool, jacobian_det: MPoly, inverse: MPoly | None,
                 obstruction: MPoly | None):
        self.ok = ok
        self.jacobian_det = jacobian_det
        self.inverse = inverse
        self.obstruction = obstruction


def _poly_det(rows, field, variables):
    n = len(rows)
    if n == 0:
        return MPoly.constant(field, variables, 1)
    if n == 1:
        return rows[0][0]
    acc = MPoly.zero(field, variables)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _poly_det(minor, field, variables)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def etale_check(X) -> EtaleCertificate:
    """Square Jacobian test: the determinant must be a unit of the ring.

    The ring is X's total coordinate ring, X.coordinate_ring.  The
    certificate carries the inverse normal form when it exists and a
    nonzero annihilator of the determinant otherwise: the first kernel
    vector of the determinant's multiplication columns, read off the
    echelon form of the inverse's one solve.
    """
    if len(X.relations) != len(X.vars):
        raise NotSquareSystem(
            "%d relations against %d scheme variables" % (len(X.relations), len(X.vars)))
    B = X.coordinate_ring
    rows = [[g.derivative(y) for y in X.vars] for g in X.relations]
    det = B.nf(_poly_det(rows, B.field, B.vars))
    # raises NotFinite when the quotient is infinite
    inv, obstruction = B._inverse_or_annihilator(det)
    return EtaleCertificate(inv is not None, det, inv, obstruction)
