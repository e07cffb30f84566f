"""Coordinate expansion, point solvers, and the comparison certificates."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from resweil import (
    AlgebraPresentation,
    MPoly,
    PrimeField,
    SchemePresentation,
    algebra_points,
    etale_check,
    enumerate_points,
    make_ext_field,
    open_cover_check,
    product_algebra,
    reduction_map,
    stage_field,
    tensor_extend,
    weil_restrict,
    zero_dim_solve,
)
from resweil.errors import (
    CertificateFailure,
    EmptyBase,
    NotCovering,
    NotFinite,
    NotLocalBase,
    NotSquareSystem,
    SearchGuardExceeded,
)
from resweil import _linalg, weilres
from resweil.multipoly import rename_context
from resweil.weilres import adjunction_check, product_formula_check, regroup_point
from resweil.finalg import _poly_det, decompose_local
from resweil.exactfield import embed
from resweil.versuite import parse_case, verify_case
from shared import _fiber_rule_presentation, _workloads

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "cases"
POINTS_STAGE = ROOT / "tests" / "data" / "points-stage"

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


def dual_case():
    A = algebra(F7, ["eps"], lambda e: [e * e])
    return A, scheme(A, ["y"], lambda e, y: [y * y - y - e])


def quad_case():
    A = algebra(F5, ["t"], lambda t: [t * t - 2])
    return A, scheme(A, ["y"], lambda t, y: [y * y - t])


def labels(points):
    return [[x.label() for x in pt] for pt in points]


def _substitute_rule_in_algebra(A, f, assignment):
    """Image of f under var -> element substitution, reduced in A: the
    route `AlgebraPresentation._evaluate` is compared with, by plain
    `MPoly` products and a normal form after each, f's coefficients sent
    into A's stage by `embed`."""
    acc = A.zero()
    for m, c in f.terms.items():
        term = A.one() * embed(c, A.field)
        for v, e in zip(f.vars, m):
            for _ in range(e):
                term = A.nf(term * assignment[v])
        acc = acc + term
    return acc


def oracle_algebra_points(X, K):
    """Exhaust all algebra-valued tuples; independent of the solver path."""
    A = X.base
    AK = tensor_extend(A, K)
    d = AK.dimension
    elements = [AK.from_coords(list(c))
                for c in itertools.product(list(K), repeat=d)]
    tassign = {tv: AK.nf(AK.var(tv)) for tv in A.vars}
    out = []
    for combo in itertools.product(elements, repeat=len(X.vars)):
        assign = dict(tassign)
        assign.update(zip(X.vars, combo))
        if all(_substitute_rule_in_algebra(AK, g, assign).is_zero()
               for g in X.relations):
            out.append(tuple(combo))
    return sorted(out, key=lambda pt: tuple(c.label() for c in pt))


# -- the expansion itself ---------------------------------------------

def test_expansion_dual_numbers():
    A, X = dual_case()
    R = weil_restrict(A, X)
    assert R.vars == ("y0", "y1")
    assert [str(r) for r in R.relations] == \
        ["y0^2 + 6*y0", "2*y0*y1 + 6*y1 + 6"]
    assert [str(g) for g in R.groebner.polys] == ["y0 + 3*y1 + 3", "y1^2 + 6"]
    assert labels(R.points()) == [[(0,), (6,)], [(1,), (1,)]]


def test_expansion_quadratic_stage():
    A, X = quad_case()
    R = weil_restrict(A, X)
    assert [str(r) for r in R.relations] == ["y0^2 + 2*y1^2", "2*y0*y1 + 4"]
    counts = [len(R.points(stage_field(5, m))) for m in (1, 2, 3, 4)]
    assert counts == [0, 0, 0, 4]


def test_relation_block_shape():
    # one equation over a dimension-3 base splits into three relations
    A = algebra(F5, ["t"], lambda t: [t * t * t - t])
    X = scheme(A, ["y"], lambda t, y: [y * y - 1 - t])
    R = weil_restrict(A, X)
    assert len(R.relations) == 3
    assert len(R.vars) == 3


def test_zero_component_relations_kept():
    # y^2 - 1 has no part along eps, so one component relation is zero
    A = algebra(F5, ["eps"], lambda e: [e * e])
    X = scheme(A, ["y"], lambda e, y: [y * y - 1])
    R = weil_restrict(A, X)
    assert len(R.relations) == 2
    assert sum(1 for r in R.relations if r.is_zero()) == 0 or \
        sum(1 for r in R.relations if r.is_zero()) == 1
    assert [str(r) for r in R.relations] == ["y0^2 + 4", "2*y0*y1"]


def test_restrict_rejects_zero_base():
    Z = algebra(F5, ["t"], lambda t: [t, t - 1])
    X = SchemePresentation(Z, ("y",),
                           [MPoly.variable(F5, ("t", "y"), "y")])
    with pytest.raises(EmptyBase):
        weil_restrict(Z, X)


def test_scheme_presentation_reduces_base_part():
    A = algebra(F5, ["t"], lambda t: [t * t - 2])
    ctx = ("t", "y")
    t = MPoly.variable(F5, ctx, "t")
    y = MPoly.variable(F5, ctx, "y")
    X = SchemePresentation(A, ("y",), [y - t * t * t])
    # t^3 reduces to 2t against the base relation
    assert [str(r) for r in X.relations] == ["3*t + y"]


def test_basis_independence():
    A, X = quad_case()
    R = weil_restrict(A, X)
    alt = [A.one(), A.one() + A.var("t")]
    Ralt = weil_restrict(A, X, basis=alt)
    for m in (2, 4):
        K = stage_field(5, m)
        assert len(R.points(K)) == len(Ralt.points(K))
        assert adjunction_check(Ralt, K).ok
    # regrouped coordinates agree as sets at the splitting stage
    K = stage_field(5, 4)
    left = {tuple(c.label() for c in regroup_point(R, pt, K))
            for pt in R.points(K)}
    right = {tuple(c.label() for c in regroup_point(Ralt, pt, K))
             for pt in Ralt.points(K)}
    assert left == right


def test_weil_restrict_empty_scheme_unit_basis():
    # no equations: the restriction is affine space of dimension r*d
    A, _ = quad_case()
    X = SchemePresentation(A, ("y",), [])
    R = weil_restrict(A, X)
    assert R.relations == ()
    assert len(R.points(F5)) == 25


# -- the solvers -------------------------------------------------------

def test_zero_dim_solve_matches_exhaustion():
    rng = random.Random(2291)
    for _ in range(15):
        p = rng.choice([3, 5])
        F = PrimeField(p)
        ctx = ("a", "b")
        a = MPoly.variable(F, ctx, "a")
        b = MPoly.variable(F, ctx, "b")
        rels = [a ** 2 - rng.randrange(p), b ** 2 - a * rng.randrange(p) - rng.randrange(p)]
        B = AlgebraPresentation(F, ctx, rels)
        K = stage_field(p, rng.choice([1, 2]))
        got = zero_dim_solve(B, K)
        want = enumerate_points(F, ctx, rels, K)
        assert got == want


def test_solver_unit_ideal_and_no_vars():
    B = algebra(F5, ["t"], lambda t: [t, t - 1])
    assert zero_dim_solve(B, F5) == []
    # without variables, the orbit walk over no root lists yields k's one
    # empty point, and the zero ring has none
    k = AlgebraPresentation(F5, (), [])
    zero = AlgebraPresentation(F5, (), [MPoly.constant(F5, (), 1)])
    for m in (1, 2, 3):
        K = stage_field(5, m)
        assert zero_dim_solve(k, K) == [()]
        assert zero_dim_solve(zero, K) == []


def test_enumerate_guard():
    K = stage_field(5, 5)
    ctx = ("a", "b")
    a = MPoly.variable(F5, ctx, "a")
    with pytest.raises(SearchGuardExceeded, match="^enumerate_points: "):
        enumerate_points(F5, ctx, [a - 1], K)


def test_search_guard_is_read_at_call_time(monkeypatch):
    # stage 2 of dual-numbers-etale takes 4 root combinations
    case = parse_case((CASES / "dual-numbers-etale.case").read_text())
    R = weil_restrict(case.algebra, case.scheme)
    monkeypatch.setattr(weilres, "SEARCH_GUARD", 1)
    with pytest.raises(SearchGuardExceeded, match="^zero_dim_solve: 4 "):
        R.points(stage_field(7, 2))


def test_presentation_points_underdetermined():
    # a single relation in two unknowns is not finite; exhaustion kicks in
    ctx = ("a", "b")
    a = MPoly.variable(F5, ctx, "a")
    b = MPoly.variable(F5, ctx, "b")
    pts = zero_dim_solve(AlgebraPresentation(F5, ctx, [a * b - 1]), F5)
    assert len(pts) == 4


# -- algebra-valued points and the adjunction -------------------------

def test_algebra_points_dual_frozen():
    A, X = dual_case()
    pts = algebra_points(X)
    assert [[str(c) for c in pt] for pt in pts] == [["eps + 1"], ["6*eps"]]


def test_algebra_points_match_oracle():
    A, X = dual_case()
    for m in (1, 2):
        K = stage_field(7, m)
        assert algebra_points(X, K) == oracle_algebra_points(X, K)
    A2, X2 = quad_case()
    for m in (1, 2):
        K = stage_field(5, m)
        assert algebra_points(X2, K) == oracle_algebra_points(X2, K)


def test_algebra_points_non_smooth_falls_back():
    A = algebra(F5, ["eps"], lambda e: [e * e])
    X = scheme(A, ["y"], lambda e, y: [y * y - e])
    assert algebra_points(X) == []
    X2 = scheme(A, ["y"], lambda e, y: [y * y - 1 - e])
    pts = algebra_points(X2)
    assert pts == oracle_algebra_points(X2, F5)
    assert [[str(c) for c in pt] for pt in pts] == \
        [["3*eps + 1"], ["2*eps + 4"]]


def test_algebra_points_exhaustion_is_guarded(monkeypatch):
    A = algebra(F5, ["eps"], lambda e: [e * e])
    X = scheme(A, ["y"], lambda e, y: [y * y - e])
    monkeypatch.setattr(weilres, "SEARCH_GUARD", 24)
    with pytest.raises(SearchGuardExceeded,
                       match="^algebra_points: 25 algebra tuples"):
        algebra_points(X)


def test_algebra_points_no_unknowns():
    A = algebra(F5, ["eps"], lambda e: [e * e])
    consistent = SchemePresentation(A, (), [MPoly.zero(F5, ("eps",))])
    broken = SchemePresentation(A, (), [MPoly.variable(F5, ("eps",), "eps")])
    assert algebra_points(consistent) == [()]
    assert algebra_points(broken) == []


def _etale_verdict(X):
    try:
        return etale_check(X).ok
    except (NotFinite, NotSquareSystem) as e:
        return type(e)


# beside the corpus (all smooth but one non-square system): a
# determinant that is not a unit, and an infinite coordinate ring
VERDICT_CASES = {p.stem: p.read_text() for p in CASES.glob("*.case")}
VERDICT_CASES.update({
    "nilpotent-determinant": 'case "nilpotent-determinant"\nfield p = 5\n'
    "algebra A : vars eps ; rels eps^2\nscheme X : vars y ; rels y^2 - eps\n",
    "infinite-square": 'case "infinite-square"\nfield p = 5\n'
    "algebra A : vars eps ; rels eps^2\n"
    "scheme X : vars y, z ; rels y - z, 2*y - 2*z\n",
})


@pytest.mark.parametrize("name", sorted(VERDICT_CASES))
def test_etale_verdict_is_the_same_over_every_stage(name):
    # algebra_points reads X's own certificate at every stage; the verdict
    # of the extended presentation over A tensor K must be the same
    case = parse_case(VERDICT_CASES[name])
    A, X = case.algebra, case.scheme
    verdict = _etale_verdict(X)
    for m in (1, 2, 3):
        K = stage_field(A.field.p, m)
        rels = [g.map_coefficients(K) for g in X.relations]
        XK = SchemePresentation(tensor_extend(A, K), X.vars, rels)
        assert _etale_verdict(XK) == verdict, (name, m)


def _counted_etale_check(monkeypatch):
    calls = []
    check = weilres.etale_check

    def counted(X):
        calls.append(X)
        return check(X)

    monkeypatch.setattr(weilres, "etale_check", counted)
    return calls


def test_each_scheme_runs_its_etale_check_once(monkeypatch):
    # the theorem and non-smooth prechecks and the adjunction route at
    # every stage read X.etale_certificate: one etale_check per case's
    # scheme
    calls = _counted_etale_check(monkeypatch)
    for path in sorted(CASES.glob("*.case")):
        verify_case(parse_case(path.read_text()))
    assert len(calls) == 15 and len(set(map(id, calls))) == 15


@pytest.mark.parametrize("name, error", [
    ("nilpotent-collapse", NotSquareSystem), ("infinite-square", NotFinite)])
def test_etale_certificate_keeps_no_raise(monkeypatch, name, error):
    calls = _counted_etale_check(monkeypatch)
    X = parse_case(VERDICT_CASES[name]).scheme
    for _ in range(2):
        with pytest.raises(error):
            X.etale_certificate
    assert len(calls) == 2


def test_local_solve_needs_a_unit_pivot():
    A = algebra(F7, ["eps"], lambda e: [e * e])
    eps = A.nf(A.var("eps"))
    with pytest.raises(CertificateFailure, match="no unit pivot"):
        _local_solve(A, [[eps]], [A.one()])


def test_adjunction_dual_and_quadratic():
    for A, X in (dual_case(), quad_case()):
        R = weil_restrict(A, X)
        for m in (1, 2, 3):
            cert = adjunction_check(R, stage_field(A.field.p, m))
            assert cert.ok
            assert len(cert.pairs) == len(cert.left_points)


def test_adjunction_at_splitting_stage():
    A, X = quad_case()
    R = weil_restrict(A, X)
    cert = adjunction_check(R, stage_field(5, 4))
    assert cert.ok and len(cert.left_points) == 4


def test_newton_correction_through_nilpotents():
    # smooth system over a base with nilpotents: the lifted points must
    # be exact, not just correct at residue level
    A = algebra(F7, ["eps"], lambda e: [e * e])
    X = scheme(A, ["y"], lambda e, y: [y * y * y - 1 - e])
    pts = algebra_points(X)
    assert pts == oracle_algebra_points(X, F7)
    assert sorted(str(pt[0]) for pt in pts) == \
        ["3*eps + 2", "5*eps + 1", "6*eps + 4"]


def test_relative_coords_round_trip():
    K = make_ext_field(5, 2)
    L = make_ext_field(5, 4)
    rng = random.Random(404)
    for _ in range(50):
        x = L.element(tuple(rng.randrange(5) for _ in range(4)))
        cs = relative_coords(x, K, L)
        assert len(cs) == 2
        back = L.zero
        for i, c in enumerate(cs):
            back = back + embed(c, L) * (L.gen ** i)
        assert back == x


def test_relative_coords_raises_when_the_powers_do_not_span(monkeypatch):
    # a stage basis of K with a repeated vector leaves the powers of L's
    # generator short of a basis over K
    K = make_ext_field(5, 2)
    L = make_ext_field(5, 4)
    monkeypatch.setitem(globals(), "_stage_basis", lambda K: [K.one] * K.degree)
    with pytest.raises(CertificateFailure, match="do not span over the substage"):
        relative_coords(L.gen, K, L)


# -- the packed relation check of the point solver --------------------

def _evaluate_verdicts(relations, rootlists, K):
    """The reference: MPoly.evaluate at every root combination."""
    relsK = [r.map_coefficients(K) for r in relations]
    variables = relations[0].vars
    out = {}
    for idx in itertools.product(*(range(len(rl)) for rl in rootlists)):
        values = dict(zip(variables, (rl[j] for rl, j in zip(rootlists, idx))))
        out[idx] = all(r.evaluate(values).is_zero() for r in relsK)
    return out


def test_packed_relation_check_matches_evaluate_on_the_corpus(monkeypatch):
    # every quotient the verifier solves on the corpus, at every stage it
    # asks for: the packed check and MPoly.evaluate agree on every root
    # combination, the rejected ones included
    seen = []
    solve = weilres._solve_points

    def recording(B, K):
        seen.append((B, K))
        return solve(B, K)

    monkeypatch.setattr(weilres, "_solve_points", recording)
    for path in sorted(CASES.glob("*.case")):
        verify_case(parse_case(path.read_text()))
    accepted = rejected = 0
    for B, K in seen:
        if (B.groebner.is_unit_ideal() or not B.vars
                or B.basis_monomials is weilres.INFINITE):
            continue
        rootlists = [weilres.roots_in(mu, K) for mu in B.min_polys]
        holds = weilres._relation_check(B.relations, rootlists, K)
        for idx, verdict in _evaluate_verdicts(B.relations, rootlists, K).items():
            assert holds(idx) == verdict, (B, K, idx)
            accepted += verdict
            rejected += not verdict
    assert accepted and rejected


SLOT_BOUND_PACKINGS = ((2 ** 31 - 1, 3), (2 ** 31 - 1, 6), (7, 6))


def test_packed_relation_check_at_the_slot_bound(slot_peaks):
    # every coefficient and every root with all slots at p - 1: each term
    # adds the largest product two reduced coefficients make, and the
    # longest relation's sum has to fit below the packing's value bound
    n = 8
    for p, m in SLOT_BOUND_PACKINGS:
        K = make_ext_field(p, m)
        top = K.element((p - 1,) * m)
        names = tuple("x%d" % i for i in range(n))
        xs = [MPoly.variable(K, names, v) for v in names]
        linear = MPoly.constant(K, names, top)
        for x in xs:
            linear = linear + x * top
        # zero exactly where every unknown is top
        value = top + top * top * n
        rels = [linear - MPoly.constant(K, names, value), linear * linear]
        rootlists = [[K.one, top]] * n
        for relations in (rels[:1], rels):
            holds = weilres._relation_check(relations, rootlists, K)
            verdicts = _evaluate_verdicts(relations, rootlists, K)
            assert all(holds(idx) == v for idx, v in verdicts.items()), (p, m)
        assert weilres._relation_check(rels[:1], rootlists, K)((1,) * n)
        assert not weilres._relation_check(rels[:1], rootlists, K)((0,) * n)
    assert slot_peaks.keys() >= set(SLOT_BOUND_PACKINGS)


# -- the point solver, one check per Frobenius orbit -------------------

def _rule_solve_points(B, K):
    """K-points of a finite quotient by the relation check at every
    combination of coordinate roots: the route `_solve_points` replaced
    by one check per Frobenius orbit."""
    if B.groebner.is_unit_ideal():
        return []
    if not B.vars:
        return [()]
    rootlists = [weilres.roots_in(mu, K) for mu in B.min_polys]
    holds = weilres._relation_check(B.relations, rootlists, K)
    out = [tuple(rl[j] for rl, j in zip(rootlists, idx))
           for idx in itertools.product(*(range(len(rl)) for rl in rootlists))
           if holds(idx)]
    out.sort(key=weilres._point_label)
    return out


def _fresh_points(B, K):
    B.points_by_stage.pop(K, None)
    return zero_dim_solve(B, K)


@pytest.mark.parametrize("name", sorted(p.stem for p in CASES.glob("*.case")))
def test_orbit_solver_matches_the_rule_on_the_corpus(name):
    case = parse_case((CASES / (name + ".case")).read_text())
    A, X = case.algebra, case.scheme
    R = weil_restrict(A, X)
    for B in (A, X.coordinate_ring, R.quotient):
        if B.basis_monomials is weilres.INFINITE:
            continue
        for m in (1, 2, 3, 4):
            if m % B.field.degree == 0:
                K = stage_field(case.p, m)
                assert _fresh_points(B, K) == _rule_solve_points(B, K), (B, m)


@pytest.mark.parametrize("seed", [1, 2])
def test_orbit_solver_matches_the_rule_on_the_points_stage(monkeypatch, seed):
    for op in _workloads(monkeypatch).points_stage(seed):
        case = parse_case(op["text"])
        B = weil_restrict(case.algebra, case.scheme).quotient
        K = stage_field(op["p"], op["stage"])
        got = _fresh_points(B, K)
        assert got == _rule_solve_points(B, K), op["name"]
        assert len(got) == op["oracle"]["count"], op["name"]


POINTS_SHAPE = POINTS_STAGE / "points-1a-p5-m6.case"


def _shape_quotient():
    """The quotient of the committed (p, m) = (5, 6) points shape: one
    coordinate whose minimal polynomial has 12 roots in F_{5^6}, in
    orbits of 1, 2, 3 and 6."""
    case = parse_case(POINTS_SHAPE.read_text())
    return weil_restrict(case.algebra, case.scheme).quotient, stage_field(5, 6)


def _counting_relation_check(monkeypatch):
    checked = []
    check = weilres._relation_check

    def counting(relations, rootlists, K):
        holds = check(relations, rootlists, K)
        return lambda idx: checked.append(idx) or holds(idx)
    monkeypatch.setattr(weilres, "_relation_check", counting)
    return checked


def test_orbit_solver_checks_each_orbit_once(monkeypatch):
    B, K = _shape_quotient()
    checked = _counting_relation_check(monkeypatch)
    points = _fresh_points(B, K)
    assert len(points) == 12
    assert len(checked) == 4


def test_orbit_solver_raises_on_a_root_list_open_under_frobenius(monkeypatch):
    # one root outside F_5 is dropped: its orbit loses a member, and the
    # image of that member's predecessor is missing
    B, K = _shape_quotient()
    roots_in = weilres.roots_in

    def dropping(mu, K):
        rs = roots_in(mu, K)
        return [r for r in rs if r != next(r for r in rs if r ** 5 != r)]
    monkeypatch.setattr(weilres, "roots_in", dropping)
    with pytest.raises(CertificateFailure,
                       match="^a root list is not closed under Frobenius$"):
        _fresh_points(B, K)


def test_orbit_solver_rejects_a_fake_orbit(monkeypatch):
    # a whole orbit of six non-roots is added: the list stays closed under
    # Frobenius, and the one check of the orbit drops all six
    B, K = _shape_quotient()
    want = _fresh_points(B, K)
    fake = next(x for x in K if x ** 5 ** 3 != x and x ** 5 ** 2 != x
                and (x,) not in want)
    orbit = [fake]
    while orbit[-1] ** 5 != fake:
        orbit.append(orbit[-1] ** 5)
    assert len(orbit) == 6
    roots_in = weilres.roots_in
    monkeypatch.setattr(weilres, "roots_in", lambda mu, K: sorted(
        roots_in(mu, K) + orbit, key=lambda x: x.label()))
    checked = _counting_relation_check(monkeypatch)
    assert _fresh_points(B, K) == want
    assert len(checked) == 5


# -- product and covering comparisons ---------------------------------

def test_product_formula_split_stage():
    P0 = AlgebraPresentation(F5, (), [])
    prod = product_algebra(P0, P0)
    P = prod.presentation
    y = MPoly.variable(F5, P.vars + ("y",), "y")
    X = SchemePresentation(P, ("y",), [y * y - 2])
    cert = product_formula_check(prod, X)
    assert cert.ok and cert.ideal_match
    assert cert.counts == [(1, 0, 0, 0), (2, 4, 2, 2), (3, 0, 0, 0)]


def test_product_formula_mixed_factors():
    A1 = algebra(F5, ["t"], lambda t: [t * t - 2])
    A2 = algebra(F5, ["eps"], lambda e: [e * e])
    prod = product_algebra(A1, A2)
    P = prod.presentation
    ctx = P.vars + ("y",)
    y = MPoly.variable(F5, ctx, "y")
    tt = MPoly.variable(F5, ctx, "t")
    X = SchemePresentation(P, ("y",), [y * y - 1 - tt])
    cert = product_formula_check(prod, X, stages=(1, 2))
    assert cert.ok and cert.ideal_match
    for m, nP, n1, n2 in cert.counts:
        assert nP == n1 * n2


def test_open_cover_dual():
    A, X = dual_case()
    ctx = ("eps", "y")
    y = MPoly.variable(F7, ctx, "y")
    cert = open_cover_check(weil_restrict(A, X), [y, y - 1])
    assert cert.ok
    for row in cert.per_stage:
        assert row["points"] == 2
        assert row["unit_counts"] == [1, 1]
        assert row["chart_counts"] == [1, 1]


def test_open_cover_guard_reads_the_nilradical(monkeypatch):
    def forbidden(A):
        raise AssertionError("the guard decomposed the base")

    monkeypatch.setattr(weilres, "_local_idempotents", forbidden)
    A, X = dual_case()
    y = MPoly.variable(F7, ("eps", "y"), "y")
    assert open_cover_check(weil_restrict(A, X), [y, y - 1]).ok


def test_open_cover_restricts_each_chart_once(monkeypatch):
    case = parse_case((CASES / "cubic-dual-lift.case").read_text())
    (hs,) = [c[1] for c in case.checks if c[0] == "cover"]
    calls = []

    def counting_restrict(A, X, basis=None):
        calls.append(X)
        return weil_restrict(A, X, basis)

    R = weil_restrict(case.algebra, case.scheme)
    monkeypatch.setattr("resweil.weilres.weil_restrict", counting_restrict)
    for stages in ((1,), (1, 2, 3)):
        calls.clear()
        cert = open_cover_check(R, hs, stages)
        assert cert.ok and len(cert.per_stage) == len(stages)
        assert len(calls) == len(hs)


def test_open_cover_not_covering():
    A, X = dual_case()
    ctx = ("eps", "y")
    y = MPoly.variable(F7, ctx, "y")
    with pytest.raises(NotCovering):
        open_cover_check(weil_restrict(A, X), [y])


def test_open_cover_needs_local_rational_base():
    A = algebra(F5, ["t"], lambda t: [t * t - t])
    X = scheme(A, ["y"], lambda t, y: [y * y - 1])
    y = MPoly.variable(F5, ("t", "y"), "y")
    with pytest.raises(NotLocalBase):
        open_cover_check(weil_restrict(A, X), [y, y - 1])
    A2, X2 = quad_case()
    y2 = MPoly.variable(F5, ("t", "y"), "y")
    with pytest.raises(NotLocalBase):
        open_cover_check(weil_restrict(A2, X2), [y2, y2 - 1])


def test_a_local_base_with_two_rational_points_fails_both_readers(monkeypatch):
    # the reduction and the cover check read the rational base point of
    # the dual numbers through one reader, which refuses a second point
    A, X = dual_case()
    R = weil_restrict(A, X)
    y = MPoly.variable(F7, ("eps", "y"), "y")
    real = weilres.zero_dim_solve
    monkeypatch.setattr(weilres, "zero_dim_solve",
                        lambda B, K: real(B, K) * (2 if B is A else 1))
    why = "^a local base with rational residue has 2 rational points$"
    with pytest.raises(CertificateFailure, match=why):
        open_cover_check(R, [y, y - 1])
    with pytest.raises(CertificateFailure, match=why):
        reduction_map(R, 1)


COVER_CASES = ("cubic-dual-lift", "dual-numbers-etale", "dual-shift-pair")


def _cover_case(name):
    case = parse_case((CASES / (name + ".case")).read_text())
    (hs,) = [c[1] for c in case.checks if c[0] == "cover"]
    return case, hs


def _algebra_rule_unit_sets(R, hs, K):
    """The cover check's unit sets the algebra way: each point of R
    regrouped into A tensor K, each h evaluated there on the packed
    columns, and the value asked whether it is a unit of A tensor K."""
    AK = tensor_extend(R.algebra, K)
    pts = R.points(K)
    values = [dict(zip(R.scheme.vars, map(AK._packed_coords, regroup_point(R, pt, K))))
              for pt in pts]
    return [{pt for pt, v in zip(pts, values) if AK.is_unit(AK._element(AK._evaluate(h, v)))}
            for h in hs]


@pytest.mark.parametrize("name", COVER_CASES)
def test_cover_unit_sets_match_the_algebra_rule(monkeypatch, name):
    # A tensor K is local with residue K, so h(x) is a unit exactly when
    # it is nonzero at the reduction of x, as the algebra rule finds
    case, hs = _cover_case(name)
    R = weil_restrict(case.algebra, case.scheme)
    seen = []
    real = weilres._unit_sets

    def noting(R, hs, s0, pts, K):
        out = real(R, hs, s0, pts, K)
        seen.append((K.degree, out, _algebra_rule_unit_sets(R, hs, K)))
        return out
    monkeypatch.setattr(weilres, "_unit_sets", noting)
    assert open_cover_check(R, hs, (1, 2)).ok
    assert [m for m, _, _ in seen] == [1, 2]
    for m, got, want in seen:
        assert got == want, m
        assert all(sel < set(R.points(stage_field(R.base_field.p, m))) for sel in got), m


def test_no_unit_question_reads_a_minimal_polynomial(monkeypatch):
    # inverse, etale_check and the cover check decide units by a solve or
    # by the residue; minimal polynomials come only from the point solver
    callers = []
    real = AlgebraPresentation._min_poly

    def noting(self, cols):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(self, cols)
    monkeypatch.setattr(AlgebraPresentation, "_min_poly", noting)
    for name in COVER_CASES:
        case, hs = _cover_case(name)
        R = weil_restrict(case.algebra, case.scheme)
        B = case.scheme.coordinate_ring
        callers.clear()
        cert = etale_check(case.scheme)
        assert cert.ok and B.inverse(cert.jacobian_det) == cert.inverse
        assert callers == [], name
        assert open_cover_check(R, hs, (1, 2)).ok
        assert set(callers) == {"min_polys"}, name


def test_regroup_point_values():
    A, X = dual_case()
    R = weil_restrict(A, X)
    (p1, p2) = R.points()
    a1 = regroup_point(R, p1)
    assert [str(c) for c in a1] == ["6*eps"]
    a2 = regroup_point(R, p2)
    assert [str(c) for c in a2] == ["eps + 1"]


def test_regroup_point_is_reduced_over_every_stage():
    # regroup_point takes no normal form over A tensor K: the basis is
    # reduced modulo A, and K-combinations of reduced elements stay so
    A, X = quad_case()
    t = A.var("t")
    restrictions = [weil_restrict(A, X, basis=[A.one() + t * t * t, 3 + 4 * t])]
    # the product check's basis, adapted to the idempotent w
    A1 = algebra(F5, ["t"], lambda t: [t * t - 2])
    A2 = algebra(F5, ["eps"], lambda e: [e * e])
    prod = product_algebra(A1, A2)
    P = prod.presentation
    w = P.var(prod.idempotent_var)
    lifted = [P.nf(w * rename_context(m, prod.left_vars, P.vars))
              for m in A1.basis_elements()]
    lifted += [P.nf((P.one() - w) * rename_context(m, prod.right_vars, P.vars))
               for m in A2.basis_elements()]
    ctx = P.vars + ("y", "z")
    y, z, tt = (MPoly.variable(F5, ctx, v) for v in ("y", "z", "t"))
    XP = SchemePresentation(P, ("y", "z"), [y * y - 1 - tt, z * y - 2])
    restrictions.append(weil_restrict(P, XP, basis=lifted))
    rng = random.Random(7)
    for R in restrictions:
        for m in (1, 2, 3):
            K = stage_field(5, m)
            AK = tensor_extend(R.algebra, K)
            elems = list(K)
            for _ in range(20):
                values = [rng.choice(elems) for _ in R.vars]
                a = regroup_point(R, values, K)
                assert a == tuple(AK.nf(c) for c in a)


# -- the adjunction route against the residue-lift rule ------------------
#
# The route algebra_points took before it read points off the rank-one
# components of C tensor K: per local factor B of A tensor K, solve a
# residue point and the fiber over it, lift each fiber point through a
# section solved in relative coordinates, and Newton-correct it through
# the nilpotents by Cramer's rule.

def _stage_basis(K):
    if K.degree == 1:
        return [K.one]
    return [K.element(tuple(1 if i == l else 0 for i in range(K.degree)))
            for l in range(K.degree)]


def _relative_inverse(K, L):
    """(F_p, the inverse of the change of basis from L's power basis to
    the K-basis 1, g, .., g^(f-1))."""
    PF = PrimeField(L.p)
    f = L.degree // K.degree
    cols = []
    gp = L.one
    for _ in range(f):
        for beta in _stage_basis(K):
            x = embed(beta, L) * gp
            cols.append([PF.from_int(c) for c in x.coeffs])
        gp = gp * L.gen
    n = L.degree
    inv = _linalg.invert([[cols[j][i] for j in range(n)] for i in range(n)], PF)
    if inv is None:
        raise CertificateFailure("powers of the generator do not span over the substage")
    return PF, inv


def relative_coords(x, K, L):
    """Coordinates of x in the K-basis 1, g, .., g^(f-1) of the stage L."""
    if K == L:
        return [x]
    PF, inv = _relative_inverse(K, L)
    vec = _linalg.mat_vec(inv, [PF.from_int(c) for c in x.coeffs], PF)
    return [K.element(tuple(vec[i * K.degree + l].coeffs[0] for l in range(K.degree)))
            for i in range(L.degree // K.degree)]


def _local_solve(B, M, rhs):
    """Solve M x = rhs over a quotient by Cramer's rule, one inverse for
    every unknown: x_j = det(M, column j replaced by rhs) / det(M)."""
    field, variables = B.field, B.vars
    inv = B.inverse(B.nf(_poly_det(M, field, variables)))
    if inv is None:
        raise CertificateFailure("no unit pivot available")
    return [B.nf(_poly_det([row[:j] + [r] + row[j + 1:] for row, r in zip(M, rhs)],
                           field, variables) * inv)
            for j in range(len(M))]


def _newton_lift(X, Bf, dgdy, start):
    """Correct a residue-level solution to an exact one through nilpotents."""
    assign_t = {tv: Bf.nf(Bf.var(tv)) for tv in X.base.vars}
    current = list(start)
    for _ in range(64):
        assign = dict(assign_t)
        assign.update(zip(X.vars, current))
        vals = [_substitute_rule_in_algebra(Bf, g, assign) for g in X.relations]
        if all(v.is_zero() for v in vals):
            return tuple(current)
        J = [[_substitute_rule_in_algebra(Bf, dg, assign) for dg in row] for row in dgdy]
        delta = _local_solve(Bf, J, vals)
        current = [Bf.nf(c - dlt) for c, dlt in zip(current, delta)]
    raise CertificateFailure("correction loop failed to terminate")


def _newton_rule_algebra_points(X, K):
    """algebra_points(X, K) by residue lift and Newton correction."""
    A = X.base
    AK = tensor_extend(A, K)
    if not X.vars or len(X.relations) != len(X.vars):
        return algebra_points(X, K)  # neither route is the smooth one
    try:
        smooth = X.etale_certificate.ok
    except NotFinite:
        smooth = False
    if not smooth:
        return weilres._algebra_points_bruteforce(X, AK)
    factors = decompose_local(AK)
    dgdy = [[g.derivative(y) for y in X.vars] for g in X.relations]
    per = []
    for f in factors:
        Bf = f.presentation
        Lf = stage_field(K.p, K.degree * f.residue_degree)
        rho_pts = zero_dim_solve(Bf, Lf)
        if not rho_pts:
            raise CertificateFailure("a local factor has no residue point")
        rho = dict(zip(Bf.vars, rho_pts[0]))
        ybars = zero_dim_solve(_fiber_rule_presentation(X, rho_pts[0], Lf), Lf)
        cols = []
        for m in Bf.basis_monomials:
            e = MPoly(K, Bf.vars, {m: K.one})
            val = (e.evaluate(rho) if Lf == K
                   else e.map_coefficients(Lf).evaluate(rho))
            cols.append(relative_coords(val, K, Lf))
        sect = [[col[i] for col in cols] for i in range(f.residue_degree)]
        pts_f = []
        for ybar in ybars:
            start = []
            for val in ybar:
                sol = _linalg.solve(sect, relative_coords(val, K, Lf), K)
                if sol is None:
                    raise CertificateFailure("the residue map is not onto")
                start.append(Bf.from_coords(sol))
            pts_f.append(_newton_lift(X, Bf, dgdy, start))
        per.append(pts_f)
    out = [tuple(AK.nf(sum((f.idempotent * pt[j] for f, pt in zip(factors, combo)),
                           AK.zero()))
                 for j in range(len(X.vars)))
           for combo in itertools.product(*per)]
    return sorted(out, key=lambda pt: tuple(c.label() for c in pt))


def four_local_case():
    # F_5[t]/(t^2 (t - 1) (t - 3) (t^2 - 2)): the dual numbers, F_5 twice
    # and F_25; over them y^2 = t + 1 has a fiber of each kind, split,
    # inert and, over t = 0, through the nilpotents
    A = algebra(F5, ["t"], lambda t: [t * t * (t - 1) * (t - 3) * (t * t - 2)])
    return A, scheme(A, ["y", "z"], lambda t, y, z: [y * y - t - 1, z * y - t])


CORPUS_SCHEMES = {p.stem: p.read_text() for p in sorted(CASES.glob("*.case"))}


@pytest.mark.parametrize("name", sorted(CORPUS_SCHEMES))
def test_algebra_points_match_the_newton_rule_on_the_corpus(name):
    X = parse_case(CORPUS_SCHEMES[name]).scheme
    for m in (1, 2, 3):
        K = stage_field(X.field.p, m)
        assert algebra_points(X, K) == _newton_rule_algebra_points(X, K), (name, m)


def _random_element(B, rng):
    field = B.field
    return B.from_coords([field.element(tuple(rng.randrange(field.p) for _ in range(field.degree)))
                          for _ in range(B.dimension)])


def _random_poly(field, ctx, rng, terms=6, top=3):
    return MPoly(field, ctx, {tuple(rng.randrange(top + 1) for _ in ctx):
                              field.from_int(rng.randrange(1, field.p)) for _ in range(terms)})


@pytest.mark.parametrize("name", sorted(CORPUS_SCHEMES))
def test_evaluate_matches_the_substitution_rule_on_the_corpus(name, slot_peaks):
    # every corpus algebra A and X's coordinate ring C, each over the
    # stages 1-3: X's relations, their derivatives and random polynomials
    # evaluated at random values, each variable of the algebra standing
    # for itself where it gets none
    case = parse_case(CORPUS_SCHEMES[name])
    A, X = case.algebra, case.scheme
    C = X.coordinate_ring
    rng = random.Random(name)
    polys = list(X.relations) + [g.derivative(y) for g in X.relations for y in X.vars]
    polys += [_random_poly(A.field, C.vars, rng) for _ in range(3)]
    checked = 0
    for m in (1, 2, 3):
        K = stage_field(case.p, m)
        for B in (A, C):
            if B.basis_monomials is weilres.INFINITE or not B.dimension:
                continue
            BK = tensor_extend(B, K)
            for f in polys:
                free = [v for v in C.vars if v not in BK.vars or rng.random() < 0.5]
                elems = {v: _random_element(BK, rng) for v in free}
                assignment = {v: BK.var(v) for v in BK.vars}
                assignment.update(elems)
                values = {v: BK._packed_coords(a) for v, a in elems.items()}
                assert (BK._element(BK._evaluate(f, values))
                        == _substitute_rule_in_algebra(BK, f, assignment)), (B, K, f)
                checked += 1
    assert checked >= 3 * len(polys)
    assert slot_peaks


@pytest.mark.parametrize("shape", [dual_case, quad_case, four_local_case])
def test_algebra_points_match_the_newton_rule_on_the_shapes(shape):
    A, X = shape()
    found = 0
    for m in (1, 2, 3, 4):
        K = stage_field(A.field.p, m)
        pts = algebra_points(X, K)
        assert pts == _newton_rule_algebra_points(X, K), m
        found += len(pts)
    assert found


def test_algebra_points_of_a_scheme_with_the_zero_coordinate_ring():
    # the relation 1: square, etale (every element of the zero ring is a
    # unit) and without points at any stage
    A = algebra(F5, ["eps"], lambda e: [e * e])
    X = scheme(A, ["y"], lambda e, y: [y - y + 1])
    assert X.coordinate_ring.is_zero_ring() and X.etale_certificate.ok
    for m in (1, 2, 3):
        K = stage_field(5, m)
        assert algebra_points(X, K) == [] == _newton_rule_algebra_points(X, K)


def _pivoting_local_solve(B, M, rhs):
    """The Newton step the old way: elimination over a local quotient, with
    a unit pivot searched in each column by one inverse per candidate."""
    n = len(M)
    rows = [list(M[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = pinv = None
        for r in range(col, n):
            inv = B.inverse(rows[r][col])
            if inv is not None:
                piv, pinv = r, inv
                break
        if piv is None:
            raise CertificateFailure("no unit pivot available")
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [B.nf(pinv * e) for e in rows[col]]
        for r in range(n):
            if r == col:
                continue
            factor = rows[r][col]
            if factor.is_zero():
                continue
            rows[r] = [a - B.nf(factor * b) for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def test_local_solve_matches_the_pivoting_rule_on_the_corpus_newton_systems(monkeypatch):
    systems = []
    real = _local_solve

    def recording(B, M, rhs):
        x = real(B, M, rhs)
        systems.append((B, M, rhs, x))
        return x
    monkeypatch.setitem(globals(), "_local_solve", recording)
    for text in CORPUS_SCHEMES.values():
        X = parse_case(text).scheme
        for m in (1, 2, 3):
            _newton_rule_algebra_points(X, stage_field(X.field.p, m))
    monkeypatch.undo()
    assert systems  # all 1 x 1 in the corpus; the 2 x 2 test below swaps rows
    for B, M, rhs, x in systems:
        assert x == _pivoting_local_solve(B, M, rhs), (B, M, rhs)


def test_local_solve_matches_the_pivoting_rule_on_a_two_by_two_local_system():
    # the first column's top entry is no unit, so the pivot search swaps rows
    A = algebra(F7, ["eps"], lambda e: [e * e])
    eps = A.var("eps")

    def c(a):
        return MPoly.constant(F7, A.vars, a)
    M = [[eps, c(1) + eps], [c(3), c(2) * eps]]
    rhs = [c(1) + c(2) * eps, c(5) * eps]
    x = _local_solve(A, M, rhs)
    assert x == _pivoting_local_solve(A, M, rhs)
    assert [A.nf(row[0] * x[0] + row[1] * x[1]) for row in M] == rhs


# -- typed input errors that survive `python -O` --------------------------

@pytest.mark.parametrize("statement, error", [
    ("SchemePresentation(A, ('t',), [])", "MixedContexts"),
    ("SchemePresentation(A, ('y',), [MPoly.variable(make_ext_field(5, 2), ty, 'y')])",
     "MixedFields"),
    ("weil_restrict(AlgebraPresentation(F, ('t',), [t * t - 3]), X)", "MixedContexts"),
    ("weil_restrict(A, X, basis=[t])", "NotABasis"),
    ("weil_restrict(A, X, basis=[t, t + t])", "NotABasis"),
    ("product_formula_check(prod, SchemePresentation(P, ('t',), [pt * pt - 1]))",
     "MixedContexts"),
    ("product_formula_check(prod, X)", "MixedContexts"),
], ids=["shadowing-unknowns", "relation-stage", "restriction-base", "basis-size",
        "not-a-basis", "base-change-collision", "product-base"])
def test_typed_input_errors_survive_optimized_mode(statement, error):
    # A = F_5[t]/(t^2 - 2), X: y^2 = t over A, prod = A x A with product
    # variables t1, t2, w, so an unknown t is free over the product but
    # collides with each factor's t on base change
    script = (
        "from resweil import (AlgebraPresentation, MPoly, PrimeField,\n"
        "    SchemePresentation, make_ext_field, product_algebra,\n"
        "    weil_restrict)\n"
        "from resweil.weilres import product_formula_check\n"
        "F = PrimeField(5)\n"
        "t = MPoly.variable(F, ('t',), 't')\n"
        "A = AlgebraPresentation(F, ('t',), [t * t - 2])\n"
        "ty = ('t', 'y')\n"
        "X = SchemePresentation(A, ('y',), [MPoly.variable(F, ty, 'y') ** 2\n"
        "                                   - MPoly.variable(F, ty, 't')])\n"
        "prod = product_algebra(A, A)\n"
        "P = prod.presentation\n"
        "pt = MPoly.variable(F, P.vars + ('t',), 't')\n"
        "try:\n"
        "    %s\n"
        "except Exception as e:\n"
        "    print(type(e).__name__)\n" % statement)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(CASES.parent / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, env=env, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == error + "\n"
