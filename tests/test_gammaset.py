"""Frobenius permutation sets, fibers, twisted products, and witnesses."""

import random
from pathlib import Path

import pytest

from resweil import finalg, gammaset, weilres
from resweil import (
    AlgebraPresentation,
    GammaSet,
    MPoly,
    PrimeField,
    SchemePresentation,
    evaluation_map,
    fiber,
    gamma_iso,
    make_ext_field,
    pi0_points,
    product_algebra,
    reduction_map,
    stage_field,
    weil_restrict,
    zero_dim_solve,
)
from resweil.errors import (
    AmbientMismatch,
    CertificateFailure,
    MissingFiber,
    NotLocalBase,
    NotZeroDimensional,
    PositiveDimensionalFiber,
)
from resweil.exactfield import frobenius
from resweil.gammaset import GeometricPoint, product_gamma_set
from resweil.versuite import ambient_degree, parse_case
from resweil.weilres import regroup_point
from shared import _fiber_rule_presentation, _random_basis

CASES = Path(__file__).resolve().parent.parent / "cases"
CORPUS = sorted(p.stem for p in CASES.glob("*.case"))

F5 = PrimeField(5)
F7 = PrimeField(7)


def algebra(field, names, build):
    names = tuple(names)
    gens = [MPoly.variable(field, names, n) for n in names]
    return AlgebraPresentation(field, names, build(*gens))


def scheme(base, names, build):
    names = tuple(names)
    ctx = tuple(base.vars) + names
    gens = [MPoly.variable(base.field, ctx, n) for n in ctx]
    return SchemePresentation(base, names, build(*gens))


def quad_setup():
    A = algebra(F5, ["t"], lambda t: [t * t - 2])
    X = scheme(A, ["y"], lambda t, y: [y * y - t])
    return A, X, weil_restrict(A, X)


def points_of(field, coord_lists):
    return [GeometricPoint(tuple(field.from_int(c) for c in row))
            for row in coord_lists]


# -- the set with its permutation -------------------------------------

def test_gamma_set_basics():
    pts = points_of(F5, [[0], [1], [2]])
    perm = {pts[0]: pts[0], pts[1]: pts[2], pts[2]: pts[1]}
    G = GammaSet(pts, perm, 2)
    assert len(G) == 3
    assert G.cycle_type() == (1, 2)
    orbits = G.canonical_orbits()
    assert [len(o) for o in orbits] == [1, 2]
    assert orbits[1][0].label() == ((1,),)


def test_gamma_set_walks_its_orbits_once():
    pts = points_of(F5, [[0], [1], [2], [3]])
    perm = {pts[0]: pts[0], pts[1]: pts[2], pts[2]: pts[3], pts[3]: pts[1]}
    G = GammaSet(pts, perm, 3)
    # the orbits were walked in the constructor: later reads need no perm
    G.perm = None
    assert G.cycle_type() == (1, 3)
    assert [[e.label() for e in o] for o in G.canonical_orbits()] == [
        [((0,),)], [((1,),), ((2,),), ((3,),)]]
    assert sorted(map(len, G.orbits())) == [1, 3]


def test_gamma_set_rejects_bad_period():
    pts = points_of(F5, [[1], [2]])
    perm = {pts[0]: pts[1], pts[1]: pts[0]}
    with pytest.raises(CertificateFailure, match="period exceeds"):
        GammaSet(pts, perm, 1)


def test_gamma_set_rejects_non_permutation():
    pts = points_of(F5, [[1], [2]])
    perm = {pts[0]: pts[0], pts[1]: pts[0]}
    with pytest.raises(CertificateFailure, match="not a permutation"):
        GammaSet(pts, perm, 1)


def test_gamma_set_rejects_duplicate_elements():
    pts = points_of(F5, [[1], [2]])
    perm = {pts[0]: pts[0], pts[1]: pts[1]}
    with pytest.raises(CertificateFailure, match="duplicate elements"):
        GammaSet(pts + pts[:1], perm, 1)


def test_gamma_set_rejects_a_permutation_of_another_domain():
    pts = points_of(F5, [[1], [2], [3]])
    with pytest.raises(CertificateFailure, match="domain mismatch"):
        GammaSet(pts[:2], {pt: pt for pt in pts}, 1)


# -- component sets of presentations ----------------------------------

def test_pi0_quadratic_four_cycle():
    _, _, R = quad_setup()
    G = pi0_points(R.quotient, 4)
    assert len(G) == 4 and G.cycle_type() == (4,)


def test_pi0_rational_points_are_fixed():
    A = algebra(F7, ["eps"], lambda e: [e * e])
    X = scheme(A, ["y"], lambda e, y: [y * y - y - e])
    R = weil_restrict(A, X)
    G = pi0_points(R.quotient, 1)
    assert G.cycle_type() == (1, 1)
    G2 = pi0_points(R.quotient, 3)
    assert G2.cycle_type() == (1, 1)


def test_pi0_over_extension_stage():
    K = make_ext_field(5, 2)
    ctx = ("y",)
    y = MPoly.variable(K, ctx, "y")
    # y^2 = 1+2g with 1+2g a nonsquare: roots conjugate over K at stage 4
    c = K.element((1, 2))
    G = pi0_points(
        AlgebraPresentation(K, ctx, [y * y - MPoly.constant(K, ctx, c)]), 4)
    assert len(G) == 2 and G.cycle_type() == (2,)
    assert G.period == 2
    # the generator itself has order 3, hence is a square: both roots rational
    G2 = pi0_points(
        AlgebraPresentation(K, ctx, [y * y - MPoly.constant(K, ctx, K.gen)]), 4)
    assert G2.cycle_type() == (1, 1)


def test_pi0_guards():
    ctx = ("y",)
    K = make_ext_field(5, 2)
    with pytest.raises(AmbientMismatch):
        pi0_points(AlgebraPresentation(K, ctx, [MPoly.variable(K, ctx, "y")]), 3)
    with pytest.raises(NotZeroDimensional):
        pi0_points(AlgebraPresentation(F5, ctx, []), 1)


def test_algebra_gamma_sets():
    assert pi0_points(algebra(F5, ["t"], lambda t: [t * t - 2]), 2) \
        .cycle_type() == (2,)
    assert pi0_points(algebra(F5, ["t"], lambda t: [t * t - t]), 1) \
        .cycle_type() == (1, 1)
    assert pi0_points(algebra(F5, ["t"], lambda t: [t * t * (t - 1)]), 1) \
        .cycle_type() == (1, 1)
    prod = product_algebra(AlgebraPresentation(F5, (), []),
                           AlgebraPresentation(F5, (), []))
    assert pi0_points(prod.presentation, 1).cycle_type() == (1, 1)


# -- fibers ------------------------------------------------------------

def test_fiber_sizes_and_contents():
    A, X, _ = quad_setup()
    S = pi0_points(A, 4)
    sizes = [len(fiber(X, s, 4)) for s in S.elements]
    assert sizes == [2, 2]


def test_fiber_positive_dimensional():
    A = algebra(F5, ["t"], lambda t: [t * t - t])
    X = SchemePresentation(A, ("y",), [])
    S = pi0_points(A, 1)
    with pytest.raises(PositiveDimensionalFiber):
        fiber(X, S.elements[0], 1)


def test_fiber_moves_along_frobenius():
    # the p-power map sends the fiber over s onto the fiber over sigma(s)
    A, X, _ = quad_setup()
    S = pi0_points(A, 4)
    s = S.elements[0]
    t = S.perm[s]
    fs = fiber(X, s, 4)
    ft = set(fiber(X, t, 4))
    for pt in fs:
        moved = GeometricPoint(tuple(frobenius(x) for x in pt.coords))
        assert moved in ft


def _case(name):
    return parse_case((CASES / (name + ".case")).read_text())


@pytest.mark.parametrize("name", CORPUS)
def test_fibers_match_the_fiber_presentation_at_the_comparison_stage(name):
    case = _case(name)
    A, X = case.algebra, case.scheme
    N = ambient_degree(A, X, weil_restrict(A, X))
    K = stage_field(A.field.p, N)
    for s in pi0_points(A, N).elements:
        expected = zero_dim_solve(_fiber_rule_presentation(X, s.coords, K), K)
        assert [pt.coords for pt in fiber(X, s, N)] == expected


def test_a_base_point_of_a_smaller_stage_finds_its_fiber():
    # over F_3, y^2 = 1 + t has no rational point at t = 1, two at stage 2
    case = _case("mixed-local-shift")
    A, X = case.algebra, case.scheme
    K = stage_field(3, 2)
    sizes = []
    for s in pi0_points(A, 1).elements:
        expected = zero_dim_solve(_fiber_rule_presentation(X, s.coords, K), K)
        assert [pt.coords for pt in fiber(X, s, 2)] == expected
        sizes.append(len(expected))
    assert sizes == [2, 2]


# -- twisted products --------------------------------------------------

def test_product_two_rational_base_points():
    # split base, no twist: each coordinate moves under its own Frobenius
    prod = product_algebra(AlgebraPresentation(F5, (), []),
                           AlgebraPresentation(F5, (), []))
    P = prod.presentation
    ctx = P.vars + ("y",)
    y = MPoly.variable(F5, ctx, "y")
    X = SchemePresentation(P, ("y",), [y * y - 2])
    S = pi0_points(P, 2)
    fibs = {s: fiber(X, s, 2) for s in S.elements}
    assert [len(v) for v in fibs.values()] == [2, 2]
    G = product_gamma_set(S, fibs, 2)
    assert len(G) == 4 and G.cycle_type() == (2, 2)


def _assert_the_action_law(S, G):
    # the component at sigma(s) is F of the component at s
    sindex = {s: i for i, s in enumerate(S.elements)}
    for el in G.elements:
        moved = G.perm[el]
        for i, s in enumerate(S.elements):
            j = sindex[S.perm[s]]
            expect = GeometricPoint(tuple(frobenius(x) for x in el.coords[i].coords))
            assert moved.coords[j] == expect


def test_product_twisted_cycle():
    A, X, R = quad_setup()
    S = pi0_points(A, 4)
    fibs = {s: fiber(X, s, 4) for s in S.elements}
    G = product_gamma_set(S, fibs, 4)
    assert len(G) == 4 and G.cycle_type() == (4,)
    _assert_the_action_law(S, G)


def test_product_over_a_three_cycle_moves_along_sigma_not_its_inverse():
    # t^3 + t + 1 has no root in F_5: the base points form one 3-cycle,
    # on which sigma and its inverse differ
    A = algebra(F5, ["t"], lambda t: [t ** 3 + t + 1])
    X = scheme(A, ["y"], lambda t, y: [y * y - t])
    S = pi0_points(A, 6)
    assert S.cycle_type() == (3,)
    G = product_gamma_set(S, {s: fiber(X, s, 6) for s in S.elements}, 6)
    assert len(G) == 8
    _assert_the_action_law(S, G)


def test_product_guards():
    A, X, _ = quad_setup()
    S = pi0_points(A, 4)
    fibs = {S.elements[0]: fiber(X, S.elements[0], 4)}
    with pytest.raises(MissingFiber):
        product_gamma_set(S, fibs, 4)
    bad = {s: fiber(X, s, 4) for s in S.elements}
    bad[S.elements[0]] = [GeometricPoint((F5.from_int(1),))]
    with pytest.raises(AmbientMismatch):
        product_gamma_set(S, bad, 4)


# -- isomorphisms and witnesses ---------------------------------------

def test_gamma_iso_success_and_failure():
    pts = points_of(F5, [[0], [1], [2], [3]])
    swap = GammaSet(pts[:2], {pts[0]: pts[1], pts[1]: pts[0]}, 2)
    swap2 = GammaSet(pts[2:], {pts[2]: pts[3], pts[3]: pts[2]}, 2)
    iso = gamma_iso(swap, swap2)
    assert iso is not None and iso.is_bijective() and iso.is_equivariant()
    fixed = GammaSet(pts[2:], {pts[2]: pts[2], pts[3]: pts[3]}, 2)
    assert gamma_iso(swap, fixed) is None


def test_gamma_iso_raises_when_an_orbit_is_walked_backwards(monkeypatch):
    pts = points_of(F5, [[0], [1], [2], [3], [4], [5]])
    G1, G2 = [GammaSet(pts[k:k + 3], {pts[k + i]: pts[k + (i + 1) % 3]
                                      for i in range(3)}, 3) for k in (0, 3)]
    real = GammaSet.canonical_orbits
    monkeypatch.setattr(GammaSet, "canonical_orbits", lambda G: [
        o if G is G1 else o[:1] + o[:0:-1] for o in real(G)])
    with pytest.raises(CertificateFailure, match="not an isomorphism"):
        gamma_iso(G1, G2)


def test_gamma_iso_raises_when_orbits_of_different_sizes_are_paired(monkeypatch):
    pts = points_of(F5, [[0], [1], [2], [3], [4], [5]])
    G1 = GammaSet(pts[:3], {pts[0]: pts[0], pts[1]: pts[2], pts[2]: pts[1]}, 2)
    G2 = GammaSet(pts[3:], {pts[3]: pts[4], pts[4]: pts[3], pts[5]: pts[5]}, 2)
    real = GammaSet.canonical_orbits
    monkeypatch.setattr(GammaSet, "canonical_orbits",
                        lambda G: real(G)[::-1] if G is G2 else real(G))
    with pytest.raises(CertificateFailure, match="differ in size"):
        gamma_iso(G1, G2)


def test_gamma_iso_anchors_are_least_labels():
    _, _, R = quad_setup()
    left = pi0_points(R.quotient, 4)
    iso = gamma_iso(left, left)
    anchor = min(left.elements, key=lambda e: e.label())
    assert iso.mapping[anchor] == anchor


def test_evaluation_map_quadratic():
    A, X, R = quad_setup()
    left = pi0_points(R.quotient, 4)
    S = pi0_points(A, 4)
    fibs = {s: fiber(X, s, 4) for s in S.elements}
    G = product_gamma_set(S, fibs, 4)
    ev = evaluation_map(R, left, S, G, 4)
    assert ev.check() and ev.is_bijective()


def test_evaluation_map_dual():
    A = algebra(F7, ["eps"], lambda e: [e * e])
    X = scheme(A, ["y"], lambda e, y: [y * y - y - e])
    R = weil_restrict(A, X)
    left = pi0_points(R.quotient, 1)
    S = pi0_points(A, 1)
    fibs = {s: fiber(X, s, 1) for s in S.elements}
    G = product_gamma_set(S, fibs, 1)
    ev = evaluation_map(R, left, S, G, 1)
    assert ev.check() and ev.is_bijective()


def _regroup_rule_evaluation_map(R, left, S, N):
    """The witness by regrouping each restriction point into polynomials
    over A and evaluating those at every base point."""
    K = stage_field(R.base_field.p, N)
    mapping = {}
    for el in left.elements:
        a = regroup_point(R, el.coords, K)
        mapping[el] = tuple(GeometricPoint(tuple(c.evaluate(dict(zip(R.algebra.vars, s.coords)))
                                                 for c in a))
                            for s in S.elements)
    return mapping


@pytest.mark.parametrize("name", CORPUS)
def test_evaluation_map_matches_the_regroup_rule_along_a_random_basis(name):
    case = _case(name)
    A, X = case.algebra, case.scheme
    R = weil_restrict(A, X, basis=_random_basis(A, random.Random(name)))
    N = ambient_degree(A, X, R)
    S = pi0_points(A, N)
    left = pi0_points(R.quotient, N)
    prod = product_gamma_set(S, {s: fiber(X, s, N) for s in S.elements}, N)
    ev = evaluation_map(R, left, S, prod, N)
    expected = _regroup_rule_evaluation_map(R, left, S, N)
    assert {el: pt.coords for el, pt in ev.mapping.items()} == expected
    assert ev.check()


# -- reduction at the rational point ----------------------------------

def test_reduction_map_dual_frozen():
    A = algebra(F7, ["eps"], lambda e: [e * e])
    X = scheme(A, ["y"], lambda e, y: [y * y - y - e])
    R = weil_restrict(A, X)
    red = reduction_map(R, 1)
    got = {k.label(): v.label() for k, v in red.mapping.items()}
    assert got == {((0,), (6,)): ((0,),), ((1,), (1,)): ((1,),)}
    assert red.is_bijective()


def test_reduction_map_guard_reads_the_nilradical(monkeypatch):
    def forbidden(A):
        raise AssertionError("the guard decomposed the base")

    for module in (finalg, weilres, gammaset):
        monkeypatch.setattr(module, "decompose_local", forbidden, raising=False)
    A = algebra(F7, ["eps"], lambda e: [e * e])
    X = scheme(A, ["y"], lambda e, y: [y * y - y - e])
    assert reduction_map(weil_restrict(A, X), 1).is_bijective()


def test_reduction_map_raises_when_it_is_not_equivariant(monkeypatch):
    # over F_5 the fiber of (y - 1)(y^2 - 2) is a fixed point and a
    # 2-cycle; swapping two images across the orbits breaks equivariance
    A = algebra(F5, ["eps"], lambda e: [e * e])
    X = scheme(A, ["y"], lambda e, y: [(y - 1) * (y * y - 2)])
    R = weil_restrict(A, X)
    assert reduction_map(R, 2).is_bijective()

    class Swapped(gammaset.EquivariantMap):
        def __init__(self, source, target, mapping):
            small, large = sorted(source.orbits(), key=len)
            a, b = small[0], large[0]
            mapping[a], mapping[b] = mapping[b], mapping[a]
            super().__init__(source, target, mapping)
    monkeypatch.setattr(gammaset, "EquivariantMap", Swapped)
    with pytest.raises(CertificateFailure, match="not a map of Frobenius sets"):
        reduction_map(R, 2)


def test_reduction_map_can_lose_points():
    # relation with no unknowns kills the restriction but not the fiber
    A = algebra(F5, ["eps"], lambda e: [e * e])
    eps = MPoly.variable(F5, ("eps",), "eps")
    X = SchemePresentation(A, (), [eps])
    R = weil_restrict(A, X)
    assert R.is_empty()
    red = reduction_map(R, 1)
    assert len(red.source.elements) == 0
    assert len(red.target.elements) == 1
    assert not red.is_bijective()


def test_reduction_map_needs_local_rational():
    A, X, R = quad_setup()
    with pytest.raises(NotLocalBase):
        reduction_map(R, 4)
