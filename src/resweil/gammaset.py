"""Finite sets with a Frobenius permutation, and their comparisons.

Every object here lives at one finite stage F_{p^N}: geometric points
are coordinate tuples there, and the group actor is the power map.  An
element of a product of fibers is a point too, whose coordinates are
the fiber points over the base points, in base order.  A GammaSet
packages a point set with that permutation; since the acting group is
generated by a single element, two GammaSets are isomorphic exactly
when the cycle types of their permutations agree, and an explicit
isomorphism can be assembled orbit by orbit.
"""

from __future__ import annotations

import itertools

from .errors import (
    AmbientMismatch,
    CertificateFailure,
    MissingFiber,
    NotZeroDimensional,
    PositiveDimensionalFiber,
)
from .exactfield import embed, frobenius, stage_field
from .finalg import AlgebraPresentation
from .multipoly import INFINITE
from .weilres import RestrictedScheme, _fiber_values, _rational_base_point, zero_dim_solve


class GeometricPoint:
    """A point by its coordinates, field elements or, in a product of
    fibers, points; equal and equally hashed on equal coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple):
        self.coords = coords

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.coords,))

    def label(self):
        return tuple(x.label() for x in self.coords)

    def __repr__(self):
        return "GeometricPoint%r" % (self.label(),)


def _power_frob_point(pt: GeometricPoint, e: int) -> GeometricPoint:
    coords = pt.coords
    for _ in range(e):
        coords = tuple(frobenius(x) for x in coords)
    return GeometricPoint(coords)


class GammaSet:
    """A finite set with one permutation whose given period is verified;
    a solver that duplicates or drops points fails with CertificateFailure."""

    def __init__(self, elements, perm, period):
        self.elements = tuple(sorted(elements, key=lambda e: e.label()))
        eset = set(self.elements)
        if len(eset) != len(self.elements):
            raise CertificateFailure("duplicate elements")
        if set(perm) != eset:
            raise CertificateFailure("permutation domain mismatch")
        if set(perm.values()) != eset:
            raise CertificateFailure("not a permutation of the set")
        self.perm = dict(perm)
        self.period = period
        # the set never changes, so its orbits are walked here, once
        seen = set()
        self._orbits = []
        for e in self.elements:
            if e in seen:
                continue
            orbit = [e]
            seen.add(e)
            cur = self.perm[e]
            while cur != e:
                orbit.append(cur)
                seen.add(cur)
                cur = self.perm[cur]
            self._orbits.append(tuple(orbit))
        if any(period % len(orbit) for orbit in self._orbits):
            raise CertificateFailure("permutation period exceeds the ambient bound")

    def __len__(self):
        return len(self.elements)

    def cycle_type(self):
        return tuple(sorted(map(len, self._orbits)))

    def orbits(self):
        return list(self._orbits)

    def canonical_orbits(self):
        """Orbits anchored at their label-least element, sorted by size then anchor."""
        out = []
        for orbit in self._orbits:
            k = min(range(len(orbit)), key=lambda i: orbit[i].label())
            anchored = orbit[k:] + orbit[:k]
            out.append(tuple(anchored))
        out.sort(key=lambda o: (len(o), o[0].label()))
        return out

    def __repr__(self):
        return "GammaSet(%d elements, cycle type %r)" % (
            len(self.elements), self.cycle_type())


class EquivariantMap:
    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: GammaSet, target: GammaSet, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = mapping

    def is_equivariant(self):
        for x in self.source.elements:
            if self.target.perm[self.mapping[x]] != self.mapping[self.source.perm[x]]:
                return False
        return True

    def is_bijective(self):
        values = set(self.mapping.values())
        return (len(values) == len(self.source.elements)
                and values == set(self.target.elements))

    def check(self):
        if set(self.mapping) != set(self.source.elements):
            return False
        if not set(self.mapping.values()) <= set(self.target.elements):
            return False
        return self.is_equivariant()


# ---------------------------------------------------------------------------
# builders

def pi0_points(B: AlgebraPresentation, N) -> GammaSet:
    """Component set of a finite presentation at stage N over its field.

    The permutation is the relative power map x -> x^(field order).
    For anything that is not finite over its stage this refuses rather
    than guessing a component count.  Every point must be rational at
    stage N: they number dim B/nil(B), or CertificateFailure is raised.
    """
    field = B.field
    if N % field.degree != 0:
        raise AmbientMismatch(
            "ambient degree %d is no multiple of the base degree %d"
            % (N, field.degree))
    K = stage_field(field.p, N)
    if B.basis_monomials is INFINITE:
        raise NotZeroDimensional(
            "the presentation is not finite over its stage")
    points = zero_dim_solve(B, K)
    reduced = B.dimension - B.nilradical_dimension()
    if len(points) != reduced:
        raise CertificateFailure(
            "%d point(s) solved, but the reduced algebra has dimension %d"
            % (len(points), reduced))
    return _frobenius_set([GeometricPoint(p) for p in points], field, N)


def _frobenius_set(points, field, N) -> GammaSet:
    """Points at stage N as a Frobenius set over field: the permutation
    is the relative power map x -> x^(field order), of period
    N / [field : F_p]."""
    e = field.degree
    return GammaSet(points, {pt: _power_frob_point(pt, e) for pt in points}, N // e)


def fiber(X, s: GeometricPoint, N):
    """Geometric points of X over one base point, as a sorted list.

    A point of X's total coordinate ring `X.coordinate_ring` pairs a
    base point with a point of its fiber, so the fiber over s is the
    tail of each point at stage N whose head is s, embedded there.  The
    ring keeps its points per stage: every base point reads one solve.
    It refuses when the ring is infinite, that is when any fiber is,
    not only the one over s.

    This is a plain list: a single fiber is only Frobenius stable when
    its base point is rational, so the group structure is left to the
    assembled product.
    """
    K = stage_field(X.field.p, N)
    C = X.coordinate_ring
    if C.basis_monomials is INFINITE:
        raise PositiveDimensionalFiber("a fiber of X is not a finite point set")
    base = tuple(embed(x, K) for x in s.coords)
    n = len(base)
    return [GeometricPoint(p[n:]) for p in zero_dim_solve(C, K) if p[:n] == base]


def product_gamma_set(S: GammaSet, fibers: dict, N) -> GammaSet:
    """Tuples over the base points with the twisted permutation: each is
    a `GeometricPoint` whose coordinates are its fiber points.

    A tuple u moves to v with v[sigma(s)] = F(u[s]), where sigma is the
    base permutation and F the coordinatewise p-power map; F carries the
    fiber over s into the fiber over sigma(s), which the constructor
    re-verifies through membership.
    """
    for s in S.elements:
        if s not in fibers:
            raise MissingFiber("no fiber supplied for %r" % (s,))
    ambient = {x.field for s in S.elements for pt in (s, *fibers[s]) for x in pt.coords}
    if len(ambient) > 1:
        raise AmbientMismatch(
            "points live at different stages: %r" % sorted(
                (f.degree for f in ambient)))
    sindex = {s: i for i, s in enumerate(S.elements)}
    # an image's component at sigma(s) is F of the component at s
    source = sorted(range(len(sindex)), key=lambda i: sindex[S.perm[S.elements[i]]])
    frob = {pt: _power_frob_point(pt, 1) for s in S.elements for pt in fibers[s]}
    elements = [GeometricPoint(c) for c in
                itertools.product(*[fibers[s] for s in S.elements])]
    perm = {el: GeometricPoint(tuple(frob[el.coords[i]] for i in source))
            for el in elements}
    return GammaSet(elements, perm, N)


def gamma_iso(G1: GammaSet, G2: GammaSet):
    """A canonical isomorphism, or None when the cycle types differ.

    For an action generated by one permutation, matching cycle types
    are the whole obstruction; the witness pairs orbits sorted by size
    and anchor label, then walks them in step.
    """
    if G1.cycle_type() != G2.cycle_type():
        return None
    mapping = {}
    for o1, o2 in zip(G1.canonical_orbits(), G2.canonical_orbits()):
        if len(o1) != len(o2):
            raise CertificateFailure("paired canonical orbits differ in size")
        for a, b in zip(o1, o2):
            mapping[a] = b
    em = EquivariantMap(G1, G2, mapping)
    if not (em.check() and em.is_bijective()):
        raise CertificateFailure("the orbit matching is not an isomorphism")
    return em


def evaluation_map(R: RestrictedScheme, left: GammaSet, S: GammaSet,
                   prod: GammaSet, N) -> EquivariantMap:
    """The coordinate witness from restriction points to fiber tuples.

    A restriction point is a tuple of algebra-valued coordinates; reading
    those at each base point gives one fiber point per base point.  The
    witness is returned unchecked: the caller decides what to make of a
    failed `check()` (well-definedness and equivariance) or bijectivity.
    """
    K = stage_field(R.base_field.p, N)
    images = _fiber_values(R, [el.coords for el in left.elements],
                           [s.coords for s in S.elements], K)
    mapping = {el: GeometricPoint(tuple(map(GeometricPoint, comps)))
               for el, comps in zip(left.elements, images)}
    return EquivariantMap(left, prod, mapping)


def reduction_map(R: RestrictedScheme, N) -> EquivariantMap:
    """Evaluate restriction points at the unique rational base point.

    Needs a local base algebra with rational residue.  The result is
    always an equivariant map; it can fail to be a bijection, which is
    precisely what makes it interesting, so no bijectivity is enforced.
    """
    s0 = _rational_base_point(R.algebra, "reduction")
    k = R.algebra.field
    K = stage_field(k.p, N)
    left = pi0_points(R.quotient, N)
    target = _frobenius_set(fiber(R.scheme, GeometricPoint(s0), N), k, N)
    images = _fiber_values(R, [el.coords for el in left.elements], [s0], K)
    mapping = {el: GeometricPoint(pt) for el, (pt,) in zip(left.elements, images)}
    em = EquivariantMap(left, target, mapping)
    if not em.check():
        raise CertificateFailure("reduction is not a map of Frobenius sets")
    return em
