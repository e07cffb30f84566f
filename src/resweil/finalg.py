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
Inverses, annihilators and idempotents come off minimal polynomials by
Horner's rule on packed coefficients.  The primitive idempotents are
refined once per presentation and kept on it, like its local factors.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import (
    CertificateFailure,
    MixedContexts,
    MixedFields,
    NotFinite,
    NotSquareSystem,
    ZeroRing,
)
from .exactfield import FieldElement, UniPoly, _Packed, roots_in
from .multipoly import (
    INFINITE,
    MPoly,
    buchberger,
    normal_form,
    standard_monomials,
    substitute_expand,
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
        self.points_by_stage = {}  # filled by weilres.zero_dim_solve
        self.extensions = {}  # filled by tensor_extend, per stage
        self.local_factors = None  # filled by decompose_local
        self.idempotents = None  # filled by _local_idempotents

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

    @cached_property
    def _tables(self):
        """Per variable v, the sparse packed columns nf(v m), m over the basis:
        a unit vector, or for a border monomial v m, one normal form."""
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

    def _horner(self, coeffs, cols, vec):
        """g(f) vec, g with packed coefficients coeffs (low degree first) and
        cols the packed columns of multiplication by f: from the top,
        acc <- f acc + c vec, one `mat_vec` with c vec as an extra column,
        so an entry sums d + 1 products, inside the value bound."""
        S, d = self._stage, self.dimension
        acc = []
        for c in reversed(coeffs):
            acc = S.mat_vec(cols + [[(i, c * a) for i, a in vec]], acc + [(d, 1)])
        return acc

    @cached_property
    def _frobenius(self):
        """Sparse packed columns of F(x) = x^q, q the order of the stage.

        F is a ring map, linear over the stage: F(m) = F(v) F(m / v) walks
        the staircase with multiplication by v^q for the table of v, and
        v^q is square-and-multiply from v's column nf(v 1) in that table.
        """
        if not self.dimension:
            return []
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
    def frobenius_matrix(self):
        """Matrix of x -> x^q: `_frobenius` unpacked into field elements, once.
        Nothing in the package reads it; the eliminations run on
        `_frobenius` itself."""
        return self._unpacked(self._frobenius)

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
        """Multiplicative inverse as a normal form, or None: with c_0 + x h(x)
        the minimal polynomial of f, f h(f) = -c_0, so f is a unit exactly
        when c_0 != 0, and then -h(f) / c_0 inverts it."""
        if not self.dimension:
            return self.zero()  # zero ring: 1 = 0 and everything inverts
        S, cols = self._stage, self._columns(f)
        c0, *h = self._packed_poly(self._min_poly(cols))
        if not c0:
            return None
        c = S.reduce(S.ps - S.inverse(c0))
        g = self._horner([S.reduce(c * a) for a in h], cols, [(0, 1)])
        if S.mat_vec(cols, g) != [(0, 1)]:
            raise CertificateFailure("the solved inverse does not invert")
        return self._element(g)

    def min_poly(self, f: MPoly) -> UniPoly:
        """Monic minimal polynomial of f acting on the quotient."""
        return self._min_poly(self._columns(f))

    def _min_poly(self, cols) -> UniPoly:
        """Monic minimal polynomial of the map with sparse packed columns cols.

        A Krylov iteration: the powers 1, f, f^2, ... are reduced in turn
        against an echelon form of the earlier ones, each row carrying its
        combination of powers; the first power that reduces to zero gives
        the relation.  An entry is reduced only where it is read, so it
        sums at most d products besides itself: inside the value bound of
        `_stage`.
        """
        field, d = self.field, self.dimension  # the zero ring, d = 0, gives 1
        S = self._stage
        red, ps = S.reduce, S.ps
        power = [(0, 1)]  # f^0 = 1, the first basis element
        rows = []  # (pivot, [coordinates | combination of powers]), pivot entry 1
        for k in range(d + 1):
            if k:
                power = S.mat_vec(cols, power)
            vec = [0] * (2 * d + 1)
            for i, a in power + [(d + k, 1)]:
                vec[i] = a
            for pivot, row in rows:
                c = vec[pivot]
                if c and (c := red(c)):
                    c = ps - c  # -c, slot by slot
                    for i, b in row:
                        vec[i] += c * b
            vec = [red(a) if a else 0 for a in vec]
            pivot = next((i for i in range(d) if vec[i]), None)
            if pivot is None:
                return UniPoly(field, [FieldElement(field, S.unpack(c)) for c in vec[d:]])
            inv = S.inverse(vec[pivot])
            rows.append((pivot, [(i, red(a * inv)) for i, a in enumerate(vec) if a]))
        raise CertificateFailure("no dependency found below the dimension bound")

    def _packed_poly(self, g: UniPoly):
        return [self._stage.pack(c.coeffs) for c in g.coeffs]

    @cached_property
    def min_polys(self):
        """Minimal polynomial of each coordinate, in variable order, computed once."""
        return tuple(self.min_poly(self.var(v)) for v in self.vars)

    def __repr__(self):
        return "AlgebraPresentation(%r, vars=%r, %d relations)" % (
            self.field, self.vars, len(self.relations))


def substitute_in_algebra(A: AlgebraPresentation, f: MPoly, assignment: dict) -> MPoly:
    """Image of f under var -> element substitution, reduced in A."""
    return A.nf(substitute_expand(f, assignment))


def tensor_extend(A: AlgebraPresentation, K) -> AlgebraPresentation:
    """The same presentation read over a larger stage, built once per
    stage and kept on A."""
    if K == A.field:
        return A
    if K.p != A.field.p or K.degree % A.field.degree != 0:
        raise MixedFields("cannot extend %r to %r" % (A.field, K))
    AK = A.extensions.get(K)
    if AK is None:
        rels = [r.map_coefficients(K) for r in A.relations]
        AK = A.extensions[K] = AlgebraPresentation(K, A.vars, rels)
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

    def apply(self, f: MPoly) -> MPoly:
        return self.target.nf(substitute_expand(f, self.images))

    def check(self):
        for r in self.source.relations:
            if not self.apply(r).is_zero():
                return False
        return True


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
    columns of A's Frobenius map, L_c(v) e a Horner evaluation on the
    columns of multiplication by v, and the idempotent laws are checked
    on the same columns.
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
        mu = A._packed_poly(mu)
        lagrange = [_lagrange(S, mu, S.pack(c.coeffs)) for c in cs]
        idems = [p for e in idems for p in (A._horner(L, cols, e) for L in lagrange) if p]
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
    taken = set(left.values()) | set(right.values())
    wname = "w"
    n = 0
    while wname in taken:
        wname = "w%d" % n
        n += 1
    pvars = tuple(left[v] for v in A1.vars) + tuple(right[v] for v in A2.vars) + (wname,)

    def to_prod(f, rename):
        out = {}
        for m, c in f.terms.items():
            mono = [0] * len(pvars)
            for i, e in enumerate(m):
                mono[pvars.index(rename[f.vars[i]])] = e
            out[tuple(mono)] = c
        return MPoly(field, pvars, out)

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
        rels.append(to_prod(r, left) - (one - w) * c)
    for r in A2.relations:
        c = r.constant_value()
        rels.append(to_prod(r, right) - w * c)
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
    nonzero annihilator of the determinant otherwise: h(det), where x h(x)
    is the minimal polynomial of det.
    """
    if len(X.relations) != len(X.vars):
        raise NotSquareSystem(
            "%d relations against %d scheme variables" % (len(X.relations), len(X.vars)))
    B = X.coordinate_ring
    rows = [[g.derivative(y) for y in X.vars] for g in X.relations]
    det = B.nf(_poly_det(rows, B.field, B.vars))
    inv = B.inverse(det)  # raises NotFinite when the quotient is infinite
    if inv is not None:
        return EtaleCertificate(True, det, inv, None)
    cols = B._columns(det)
    ann = B._horner(B._packed_poly(B._min_poly(cols))[1:], cols, [(0, 1)])
    obstruction = B._element(ann)
    if obstruction.is_zero() or B._stage.mat_vec(cols, ann):
        raise CertificateFailure(
            "the obstruction is not a nonzero annihilator of the determinant")
    return EtaleCertificate(False, det, None, obstruction)
