"""Quotient algebra structure: bases, local factors, products, smoothness."""

import itertools
import os
import random
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from resweil import _linalg, exactfield, finalg, weilres
from resweil import (
    AlgebraHom,
    AlgebraPresentation,
    MPoly,
    PrimeField,
    SchemePresentation,
    UniPoly,
    decompose_local,
    etale_check,
    make_ext_field,
    product_algebra,
    roots_in,
    stage_field,
    tensor_extend,
    weil_restrict,
)
from resweil.multipoly import INFINITE
from resweil.errors import (
    CertificateFailure,
    MissingAssignment,
    MixedFields,
    NotFinite,
    NotSquareSystem,
    NotZeroDimensional,
    PositiveDimensionalFiber,
    ZeroRing,
)
from resweil.gammaset import pi0_points
from resweil.versuite import parse_case, verify
from shared import _fiber_rule_presentation, _is_irreducible

CASES = Path(__file__).resolve().parent.parent / "cases"

F5 = PrimeField(5)
F7 = PrimeField(7)


def alg(field, names, build):
    names = tuple(names)
    gens = [MPoly.variable(field, names, n) for n in names]
    return AlgebraPresentation(field, names, build(*gens))


def oracle_hom_count(A, K):
    """Count algebra maps into K by exhausting variable assignments."""
    count = 0
    for combo in itertools.product(list(K), repeat=len(A.vars)):
        values = dict(zip(A.vars, combo))
        if all(r.map_coefficients(K).evaluate(values).is_zero() for r in A.relations):
            count += 1
    return count


# -- bases and dimensions ----------------------------------------------

def test_dimension_and_basis_examples():
    dual = alg(F5, ["eps"], lambda e: [e * e])
    assert dual.dimension == 2
    assert [str(b) for b in dual.basis_elements()] == ["1", "eps"]

    quad = alg(F5, ["t"], lambda t: [t * t - 2])
    assert quad.dimension == 2

    pts = alg(F5, ["t"], lambda t: [t * t - t])
    assert pts.dimension == 2


def test_basis_starts_with_one():
    A = alg(F7, ["t", "u"], lambda t, u: [t * t * t - 2, u * u - t])
    assert A.dimension == 6
    assert str(A.basis_elements()[0]) == "1"


def test_not_finite():
    A = alg(F5, ["t", "u"], lambda t, u: [t * u - 1])
    with pytest.raises(NotFinite):
        A.dimension


def test_zero_ring_dimension():
    A = alg(F5, ["t"], lambda t: [t, t - 1])
    assert A.is_zero_ring()
    with pytest.raises(ZeroRing):
        decompose_local(A)


# -- element-level helpers --------------------------------------------

def test_min_poly():
    quad = alg(F5, ["t"], lambda t: [t * t - 2])
    t = quad.var("t")
    assert quad.min_poly(t) == UniPoly.from_ints(F5, [-2, 0, 1])
    dual = alg(F5, ["eps"], lambda e: [e * e])
    assert dual.min_poly(dual.var("eps")) == UniPoly.from_ints(F5, [0, 0, 1])
    assert dual.min_poly(dual.one()) == UniPoly.from_ints(F5, [-1, 1])


def _solve_rule_min_poly(B, f):
    """The minimal polynomial the long way: one linear solve per power.

    Powers are MPoly products reduced by normal forms, and the solves run
    on field elements, so nothing here reads the packed tables."""
    d = B.dimension
    powers = [B.coords(B.one())]
    current = B.one()
    for _ in range(d):
        current = B.nf(current * B.nf(f))
        w = B.coords(current)
        mat = [[powers[j][i] for j in range(len(powers))] for i in range(d)]
        sol = _linalg.solve(mat, w, B.field)
        if sol is not None:
            return UniPoly(B.field, [-c for c in sol] + [B.field.one])
        powers.append(w)
    raise AssertionError("no dependency found below the dimension bound")


def _per_column_mult_matrix(B, f):
    """Multiplication by f the long way: an MPoly product and a normal form
    per basis monomial."""
    d = B.dimension
    fn = B.nf(f)
    cols = [B.coords(fn * MPoly(B.field, B.vars, {m: B.field.one}))
            for m in B.basis_monomials]
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def _solve_rule_inverse(B, f):
    """The inverse the long way: `_linalg.solve` on the per-column matrix of
    multiplication by f, against the coordinates of 1."""
    sol = _linalg.solve(_per_column_mult_matrix(B, f), B.coords(B.one()), B.field)
    return None if sol is None else B.from_coords(sol)


def _power_rule_frobenius_matrix(B):
    """The q-power map the long way: each basis element raised to the q-th
    power by square-and-multiply on MPoly products and normal forms."""
    d = B.dimension
    cols = []
    for power in B.basis_elements():
        result, e = B.one(), B.field.order
        while e:
            if e & 1:
                result = B.nf(result * power)
            power = B.nf(power * power)
            e >>= 1
        cols.append(B.coords(result))
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def _mat_mul_rule_nilradical_dimension(B, F):
    """The kernel of F^L, q^L > dim B, with F^L by products of field-element
    matrices."""
    L = 1
    while B.field.order ** L < B.dimension + 1:
        L += 1
    M = F
    for _ in range(L - 1):
        M = _linalg.mat_mul(M, F, B.field)
    return len(_linalg.kernel_basis(M, B.field))


def _annihilates(B, mu, f):
    acc = B.zero()
    for c in reversed(mu.coeffs):
        acc = B.nf(acc * f) + MPoly.constant(B.field, B.vars, c)
    return B.nf(acc).is_zero()


CORPUS = sorted(p.stem for p in CASES.glob("*.case"))


def _corpus_presentations(name):
    """Every finite, nonzero quotient a corpus case builds: A, X's total
    coordinate ring and R.quotient; A over F_{p^2}, F_{p^3} and F_{p^4};
    and each fiber presentation at the comparison stage N."""
    case = parse_case((CASES / (name + ".case")).read_text())
    A, X = case.algebra, case.scheme
    R = weil_restrict(A, X)
    out = [A, X.coordinate_ring, R.quotient]
    out += [tensor_extend(A, stage_field(case.p, n)) for n in (2, 3, 4)
            if n % A.field.degree == 0]
    try:
        N = verify.ambient_degree(A, X, R)
    except (NotZeroDimensional, PositiveDimensionalFiber):
        N = None
    if N is not None:
        K = stage_field(case.p, N)
        out += [_fiber_rule_presentation(X, s.coords, K)
                for s in pi0_points(A, N).elements]
    return [B for B in out if B.basis_monomials is not INFINITE and B.dimension]


def _fixed_vectors(B):
    """The Frobenius fixed basis that `decompose_local` feeds to min_poly."""
    d, F, field = B.dimension, B._unpacked(B._frobenius), B.field
    M = [[F[i][j] - (field.one if i == j else field.zero) for j in range(d)]
         for i in range(d)]
    return [B.from_coords(v) for v in _linalg.kernel_basis(M, field)]


def _random_elements(B, rng):
    """A random element on the staircase, and one with a term off it."""
    field = B.field

    def coeff():
        return field.element(tuple(rng.randrange(field.p) for _ in range(field.degree)))
    on = B.from_coords([coeff() for _ in range(B.dimension)])
    off = on + MPoly(field, B.vars, {tuple(B.dimension for _ in B.vars): coeff()})
    return [on, off]


def _test_elements(B, rng):
    return [B.var(v) for v in B.vars] + _fixed_vectors(B) + _random_elements(B, rng)


@pytest.mark.parametrize("name", CORPUS)
def test_min_poly_matches_the_solve_rule_on_the_corpus(name):
    rng = random.Random(name)
    checked = 0
    for B in _corpus_presentations(name):
        for f in _test_elements(B, rng):
            mu = B.min_poly(f)
            assert mu == _solve_rule_min_poly(B, f), (name, B, f)
            assert _annihilates(B, mu, f)
            checked += 1
    assert checked


@pytest.mark.parametrize("name", CORPUS)
def test_min_polys_read_the_tables_on_the_corpus(monkeypatch, name):
    # each coordinate's columns are its table, so no walk up the
    # staircase runs, and the result is min_poly of the variable
    walked = []
    walk = AlgebraPresentation._walk
    for B in _corpus_presentations(name):
        vars(B).pop("min_polys", None)  # computed again below
        monkeypatch.setattr(AlgebraPresentation, "_walk",
                            lambda self, *args: walked.append(self) or walk(self, *args))
        got = B.min_polys
        monkeypatch.setattr(AlgebraPresentation, "_walk", walk)
        assert walked == [], (name, B)
        assert got == tuple(B.min_poly(B.var(v)) for v in B.vars), (name, B)


@pytest.mark.parametrize("name", CORPUS)
def test_mult_matrix_matches_the_per_column_rule_on_the_corpus(name):
    rng = random.Random(name)
    checked = 0
    for B in _corpus_presentations(name):
        for f in _test_elements(B, rng):
            assert B._unpacked(B._columns(f)) == _per_column_mult_matrix(B, f), (name, B, f)
            checked += 1
    assert checked


@pytest.mark.parametrize("name", CORPUS)
def test_inverse_matches_the_solve_rule_on_the_corpus(name):
    rng = random.Random(name)
    seen = {True: 0, False: 0}
    for B in _corpus_presentations(name):
        for f in _test_elements(B, rng):
            inv = B.inverse(f)
            assert inv == _solve_rule_inverse(B, f), (name, B, f)
            assert inv is None or B.nf(f * inv) == B.one()
            seen[inv is not None] += 1
    assert seen[True] and seen[False], seen


def _non_etale_schemes():
    """Schemes whose Jacobian determinant is no unit: nilpotent over the
    dual numbers, and a zero divisor that is not nilpotent over two points."""
    def scheme(base, names, build):
        ctx = base.vars + tuple(names)
        gens = [MPoly.variable(base.field, ctx, v) for v in ctx]
        return SchemePresentation(base, tuple(names), build(*gens))
    dual = alg(F5, ["eps"], lambda e: [e * e])
    pts = alg(F5, ["t"], lambda t: [t * t - t])
    return [scheme(dual, ["y"], lambda e, y: [y * y - e]),
            scheme(pts, ["y"], lambda t, y: [y * y - t]),
            scheme(pts, ["y", "z"], lambda t, y, z: [y * y - t, z ** 3 - y])]


def test_etale_certificate_holds_in_the_reference_arithmetic():
    cases = [parse_case((CASES / (name + ".case")).read_text()) for name in CORPUS]
    seen = {True: 0, False: 0}
    for X in [case.scheme for case in cases] + _non_etale_schemes():
        try:
            cert = etale_check(X)
        except (NotSquareSystem, NotFinite):
            continue
        B, det = X.coordinate_ring, cert.jacobian_det
        if cert.ok:
            assert B.nf(det * cert.inverse) == B.one(), X
            assert cert.inverse == _solve_rule_inverse(B, det), X
        else:
            # h(det), for the minimal polynomial x h(x) of det
            assert not cert.obstruction.is_zero(), X
            assert B.nf(det * cert.obstruction).is_zero(), X
            assert _solve_rule_inverse(B, det) is None, X
        seen[cert.ok] += 1
    assert seen == {True: 14, False: 3}


@pytest.mark.parametrize("name", CORPUS)
def test_frobenius_matrix_matches_the_power_rule_on_the_corpus(name):
    checked = 0
    for B in _corpus_presentations(name):
        F = _power_rule_frobenius_matrix(B)
        assert B._unpacked(B._frobenius) == F, (name, B)
        assert B.nilradical_dimension() == _mat_mul_rule_nilradical_dimension(B, F)
        checked += 1
    assert checked


def _border(B):
    return {m[:i] + (m[i] + 1,) + m[i + 1:] for m in B.basis_monomials
            for i in range(len(B.vars))} - set(B.basis_monomials)


@pytest.mark.parametrize("build", [
    lambda: alg(F7, ["t", "u"], lambda t, u: [t ** 3 - 2, u * u - t]),
    lambda: alg(F5, ["x", "y"], lambda x, y: [x - 2, (y * y - x) * y ** 2]),
    lambda: _four_local_factors(),
    # q = 3 below the dimension: the nilradical needs F^L, L > 1
    lambda: alg(PrimeField(3), ["t"], lambda t: [t ** 5]),
    lambda: alg(PrimeField(3), ["x", "y"], lambda x, y: [x ** 4, y * y - x * y]),
])
def test_frobenius_matrix_makes_a_normal_form_per_border_monomial_only(
        monkeypatch, build):
    # v^q and the walk run on the packed tables: the normal forms are the
    # tables' own, and no field-element matrix is multiplied
    B = build()
    expected = _power_rule_frobenius_matrix(build())
    calls = {"normal_form": 0, "mat_mul": 0}
    real_nf = finalg.normal_form

    def normal_form(*args):
        calls["normal_form"] += 1
        return real_nf(*args)

    def mat_mul(*args):
        calls["mat_mul"] += 1
    monkeypatch.setattr(finalg, "normal_form", normal_form)
    monkeypatch.setattr(_linalg, "mat_mul", mat_mul)
    F = B._unpacked(B._frobenius)
    B.nilradical_dimension()
    assert calls == {"normal_form": len(_border(B)), "mat_mul": 0}
    monkeypatch.undo()
    assert F == expected
    assert B.nilradical_dimension() == _mat_mul_rule_nilradical_dimension(B, F)
    assert B.nilradical_dimension() == B.dimension - sum(
        f.residue_degree for f in decompose_local(B))


def _seeded_irreducible(rng, F, d):
    while True:
        f = UniPoly.from_ints(F, [rng.randrange(F.p) for _ in range(d)] + [1])
        if _is_irreducible(f):
            return f


def _points_stage_shape():
    """A points-stage request at (p, m) = (3, 4): y over F_3 with one relation
    f of degree 64, a product of distinct irreducibles of these degrees."""
    F3 = PrimeField(3)
    rng = random.Random(34)
    f = UniPoly(F3, [F3.one])
    for d in (1, 2, 3, 4, 5, 6, 7, 8, 12, 16):
        f = f * _seeded_irreducible(rng, F3, d)
    assert f.degree == 64
    rel = MPoly(F3, ("y",), {(i,): c for i, c in enumerate(f.coeffs)})
    return f, AlgebraPresentation(F3, ("y",), [rel])


def test_points_kernel_is_cheap_on_a_points_stage_shape(monkeypatch):
    # the factors of degree 1, 2 and 4 split over F_81, into 7 roots
    f, B = _points_stage_shape()
    calls = {"factor_univariate": 0, "degree_blocks over K": 0, "solve": 0}

    def counting(module, name, key):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(exactfield, "factor_univariate", "factor_univariate")
    counting(_linalg, "solve", "solve")
    blocks = exactfield._Packed.degree_blocks

    def degree_blocks(self, *args):
        calls["degree_blocks over K"] += self.m == 4
        return blocks(self, *args)
    monkeypatch.setattr(exactfield._Packed, "degree_blocks", degree_blocks)
    mu = B.min_poly(B.var("y"))
    K = make_ext_field(3, 4)
    roots = roots_in(mu, K)
    assert mu == f.monic()
    assert len(roots) == 7
    assert all(f.map_coefficients(K).evaluate(r).is_zero() for r in roots)
    # full factoring over F_81 and one solve per power would show here
    assert calls == {"factor_univariate": 0, "degree_blocks over K": 0, "solve": 0}


def test_min_poly_reads_the_tables_on_a_points_stage_shape(monkeypatch):
    # the only border monomial is y^64: its normal form is the one the
    # minimal polynomial needs, and the Krylov iteration multiplies no
    # field elements outside it
    f, B = _points_stage_shape()
    expected = f.monic()
    border = {m[:i] + (m[i] + 1,) + m[i + 1:] for m in B.basis_monomials
              for i in range(len(B.vars))} - set(B.basis_monomials)
    assert border == {(64,)}
    calls = {"normal_form": 0, "mul": 0}
    inside = []
    real_nf, real_mul = finalg.normal_form, exactfield.FieldElement.__mul__

    def normal_form(*args):
        calls["normal_form"] += 1
        inside.append(True)
        try:
            return real_nf(*args)
        finally:
            inside.pop()

    def mul(self, other):
        calls["mul"] += not inside
        return real_mul(self, other)
    monkeypatch.setattr(finalg, "normal_form", normal_form)
    monkeypatch.setattr(exactfield.FieldElement, "__mul__", mul)
    monkeypatch.setattr(exactfield.FieldElement, "__rmul__", mul)
    mu = B.min_poly(B.var("y"))
    assert calls == {"normal_form": len(border), "mul": 0}
    monkeypatch.undo()
    assert mu == expected


SLOT_BOUND_PACKINGS = ((2 ** 31 - 1, 3), (2 ** 31 - 1, 6), (7, 6))


def test_min_poly_at_the_slot_bound(slot_peaks):
    # y^d = top (1 + y + ... + y^(d-1)) with every slot of top at p - 1:
    # the border column holds top in every entry, and the Krylov
    # iteration reaches it at the last power
    d = 8
    for p, m in SLOT_BOUND_PACKINGS:
        K = make_ext_field(p, m)
        top = K.element((p - 1,) * m)
        g = UniPoly(K, [-top] * d + [K.one])
        rel = MPoly(K, ("y",), {(i,): c for i, c in enumerate(g.coeffs)})
        B = AlgebraPresentation(K, ("y",), [rel])
        assert [row[d - 1] for row in B._unpacked(B._columns(B.var("y")))] == [top] * d
        assert B.min_poly(B.var("y")) == g
        f = B.var("y") * B.var("y") + top
        assert B.min_poly(f) == _solve_rule_min_poly(B, f), (p, m)
    assert slot_peaks.keys() >= set(SLOT_BOUND_PACKINGS)


def test_inverse_at_the_slot_bound(slot_peaks):
    # every slot at p - 1 in the element and the border column: the solve
    # eliminates on the columns of multiplication by it
    d = 6
    for p, m in SLOT_BOUND_PACKINGS:
        K = make_ext_field(p, m)
        top = K.element((p - 1,) * m)
        y = MPoly.variable(K, ("y",), "y")
        B = AlgebraPresentation(K, ("y",), [
            y ** d - MPoly(K, ("y",), {(i,): top for i in range(d)})])
        f = B.from_coords([top] * d)
        assert B.inverse(f) == _solve_rule_inverse(B, f), (p, m)
    assert slot_peaks.keys() >= set(SLOT_BOUND_PACKINGS)


def test_frobenius_matrix_at_the_slot_bound():
    # the same extreme border column, and a nilpotent y - top of order d
    # whose powers carry every slot high: x^q is squared some 93 times
    p, m, d = 2 ** 31 - 1, 3, 4
    K = make_ext_field(p, m)
    top = K.element((p - 1,) * m)
    y = MPoly.variable(K, ("y",), "y")
    g = y ** d - MPoly(K, ("y",), {(i,): top for i in range(d)})
    for B, nil in [(AlgebraPresentation(K, ("y",), [g]), None),
                   (AlgebraPresentation(K, ("y",), [(y - top) ** d]), d - 1)]:
        F = _power_rule_frobenius_matrix(B)
        assert B._unpacked(B._frobenius) == F
        assert B.nilradical_dimension() == _mat_mul_rule_nilradical_dimension(B, F)
        assert nil is None or B.nilradical_dimension() == nil


def test_coords_reduce_only_off_the_staircase(monkeypatch):
    A = alg(F7, ["t", "u"], lambda t, u: [t ** 3 - 2, u * u - t])
    t, u = A.var("t"), A.var("u")
    calls = []
    real_nf = finalg.normal_form
    monkeypatch.setattr(finalg, "normal_form",
                        lambda *args: calls.append(args) or real_nf(*args))
    assert A.coords(A.one()) == [F7.one] + [F7.zero] * 5
    assert A.coords(3 * t * u + 1) == A.coords(A.from_coords(A.coords(3 * t * u + 1)))
    assert calls == []
    assert A.coords(t ** 3) == A.coords(A.one() * 2)
    assert len(calls) == 1


def test_inverse_raises_when_the_solve_does_not_invert(monkeypatch):
    # the solve of f x = 1 returns its solution plus one
    dual = alg(F5, ["eps"], lambda e: [e * e])
    real = exactfield._Packed.solve
    monkeypatch.setattr(exactfield._Packed, "solve", lambda self, rows, width: [
        [self.reduce(x[0] + 1), *x[1:]] for x in real(self, rows, width)])
    with pytest.raises(CertificateFailure, match="does not invert"):
        dual.inverse(1 + dual.var("eps"))


def test_inverse_and_units():
    dual = alg(F5, ["eps"], lambda e: [e * e])
    e = dual.var("eps")
    inv = dual.inverse(1 + e)
    assert inv is not None and dual.nf((1 + e) * inv) == dual.one()
    assert str(inv) == "4*eps + 1"
    assert dual.inverse(e) is None
    assert not dual.is_unit(dual.zero())


def test_substitute_in_algebra():
    # y^2 + t at y = t, t = 1 in F_5[t]/(t^2 - 2), by the packed evaluation;
    # tests/test_weilres.py compares it with substitution and a normal form
    quad = alg(F5, ["t"], lambda t: [t * t - 2])
    ctx = ("t", "y")
    y = MPoly.variable(F5, ctx, "y")
    t = MPoly.variable(F5, ctx, "t")
    values = {"y": quad._packed_coords(quad.var("t")), "t": quad._packed_coords(quad.one())}
    img = quad._element(quad._evaluate(y * y + t, values))
    assert img == MPoly.constant(F5, ("t",), 3)
    # a variable of the algebra without a value stands for itself
    assert quad._element(quad._evaluate(y * y + t, {"y": values["y"]})) == quad.nf(
        quad.var("t") * quad.var("t") + quad.var("t"))
    with pytest.raises(MissingAssignment):
        quad._evaluate(y * y + t, {})


# -- local decomposition ----------------------------------------------

def test_decompose_dual_numbers():
    dual = alg(F5, ["eps"], lambda e: [e * e])
    (f,) = decompose_local(dual)
    assert f.residue_degree == 1
    assert f.idempotent == dual.one()
    assert f.presentation.dimension == 2
    assert dual.nilradical_dimension() == 1


def test_decompose_two_points():
    pts = alg(F5, ["t"], lambda t: [t * t - t])
    fs = decompose_local(pts)
    assert [f.residue_degree for f in fs] == [1, 1]
    assert sorted(str(f.idempotent) for f in fs) == ["4*t + 1", "t"]
    for f in fs:
        assert f.presentation.dimension == 1


def test_decompose_raises_when_a_fixed_element_loses_a_root(monkeypatch):
    real = finalg.roots_in
    monkeypatch.setattr(finalg, "roots_in", lambda f, field: real(f, field)[:-1])
    with pytest.raises(CertificateFailure):
        decompose_local(alg(F5, ["t"], lambda t: [t * t - t]))


@pytest.mark.parametrize("build", [
    lambda: alg(F5, ["t"], lambda t: [t * t - t]),
    lambda: alg(F5, ["x", "y"], lambda x, y: [x * x - x, y * y - y]),
], ids=["two-points", "four-points"])
def test_decompose_raises_when_a_fixed_element_gets_a_wrong_root(monkeypatch, build):
    # the root count stays right, so only the idempotent laws can notice
    real = finalg.roots_in

    def shifted(f, field):
        roots = real(f, field)
        return roots[:-1] + [roots[-1] + field.one]
    monkeypatch.setattr(finalg, "roots_in", shifted)
    with pytest.raises(CertificateFailure):
        decompose_local(build())


def test_decompose_field_stays_whole():
    quad = alg(F5, ["t"], lambda t: [t * t - 2])
    (f,) = decompose_local(quad)
    assert f.residue_degree == 2
    assert quad.nilradical_dimension() == 0


def test_decompose_mixed_multiplicity():
    A = alg(PrimeField(3), ["t"], lambda t: [t * t * (t - 1)])
    fs = decompose_local(A)
    assert sorted(f.presentation.dimension for f in fs) == [1, 2]
    assert [f.residue_degree for f in fs] == [1, 1]


def test_decompose_idempotent_laws():
    A = alg(F7, ["t"], lambda t: [(t * t - 3) * t * (t - 1) * (t - 1)])
    fs = decompose_local(A)
    assert A.dimension == 5
    assert sum(f.presentation.dimension for f in fs) == 5
    total = A.zero()
    for f in fs:
        assert A.nf(f.idempotent * f.idempotent) == f.idempotent
        total = total + f.idempotent
    assert A.nf(total) == A.one()
    for f, g in itertools.combinations(fs, 2):
        assert A.nf(f.idempotent * g.idempotent).is_zero()


def test_decompose_two_isomorphic_quadratic_factors():
    # (t^2 - 3)(t^2 - 3t + 1) over F_7: both factors irreducible, so the
    # fixed space must separate two copies of the same residue stage.
    A = alg(F7, ["t"], lambda t: [(t * t - 3) * (t * t - 3 * t + 1)])
    fs = decompose_local(A)
    assert [f.residue_degree for f in fs] == [2, 2]


def test_hom_counts_add_over_factors():
    cases = [
        alg(F5, ["t"], lambda t: [t * t - 2]),
        alg(F5, ["t"], lambda t: [t * t * (t - 1)]),
        alg(F7, ["t"], lambda t: [(t * t - 3) * t]),
    ]
    for A in cases:
        fs = decompose_local(A)
        for m in (1, 2):
            K = stage_field(A.field.p, m)
            whole = oracle_hom_count(A, K)
            assert whole == sum(oracle_hom_count(f.presentation, K) for f in fs)
            expected = sum(f.residue_degree for f in fs
                           if m % f.residue_degree == 0)
            assert whole == expected


def test_decompose_after_extension():
    quad = alg(F5, ["t"], lambda t: [t * t - 2])
    K = make_ext_field(5, 2)
    fs = decompose_local(tensor_extend(quad, K))
    assert [f.residue_degree for f in fs] == [1, 1]
    total = sum(f.presentation.dimension for f in fs)
    assert total == 2


def test_seeded_random_split_algebras():
    rng = random.Random(1105)
    for _ in range(25):
        p = rng.choice([3, 5, 7])
        F = PrimeField(p)
        roots = rng.sample(range(p), rng.randint(1, 3))
        mults = [rng.randint(1, 2) for _ in roots]
        names = ("t",)
        t = MPoly.variable(F, names, "t")
        rel = MPoly.constant(F, names, 1)
        for r, m in zip(roots, mults):
            rel = rel * (t - r) ** m
        A = AlgebraPresentation(F, names, [rel])
        fs = decompose_local(A)
        assert len(fs) == len(roots)
        assert sorted(f.presentation.dimension for f in fs) == sorted(mults)
        assert all(f.residue_degree == 1 for f in fs)


def _recursive_rule_decompose(A):
    """Local factors the old way: split by one fixed element, then recurse.

    Each piece gets its own presentation and Frobenius matrix, and a
    piece is certified local when its own fixed space is the scalars.
    Returns (idempotent, factor relations, residue degree) in label order.
    """
    field = A.field
    out = []
    stack = [(A, A.one())]
    while stack:
        B, idem = stack.pop()
        d = B.dimension
        F = B._unpacked(B._frobenius)
        M = [[F[i][j] - (field.one if i == j else field.zero) for j in range(d)]
             for i in range(d)]
        V = _linalg.kernel_basis(M, field)
        if len(V) == 1:
            out.append((idem, B.relations, d - B.nilradical_dimension()))
            continue
        split = next(B.from_coords(vec) for vec in V
                     if any(not c.is_zero() for c in vec[1:]))
        cs = roots_in(B.min_poly(split), field)
        for j, cj in enumerate(cs):
            num = B.one()
            den = field.one
            for l, cl in enumerate(cs):
                if l != j:
                    num = B.nf(num * (split - MPoly.constant(field, B.vars, cl)))
                    den = den * (cj - cl)
            new_idem = A.nf(idem * (num * den.inverse()))
            Bj = AlgebraPresentation(field, A.vars,
                                     list(A.relations) + [A.one() - new_idem])
            stack.append((Bj, new_idem))
    return sorted(out, key=lambda f: f[0].label())


def _factor_data(A):
    return [(f.idempotent, f.presentation.relations, f.residue_degree)
            for f in decompose_local(A)]


@pytest.mark.parametrize("name", sorted(p.stem for p in CASES.glob("*.case")))
def test_decompose_matches_the_recursive_rule_on_the_corpus(name):
    case = parse_case((CASES / (name + ".case")).read_text())
    presentations = [tensor_extend(case.algebra, stage_field(case.p, m))
                     for m in (1, 2, 3, 4)]
    presentations.append(case.scheme.coordinate_ring)
    checked = 0
    for B in presentations:
        if B.basis_monomials is INFINITE or B.dimension == 0:
            continue
        assert _factor_data(B) == _recursive_rule_decompose(B), (name, B)
        checked += 1
    assert checked >= 4


def _four_local_factors():
    # four rational points, each carrying a square-zero nilpotent
    return alg(F5, ["x", "y", "z"],
               lambda x, y, z: [x * x - x, y * y - y, z * z])


def test_decompose_matches_the_recursive_rule_when_one_vector_does_not_separate():
    A = _four_local_factors()
    d = A.dimension
    F = A._unpacked(A._frobenius)
    V = _linalg.kernel_basis(
        [[F[i][j] - (F5.one if i == j else F5.zero) for j in range(d)]
         for i in range(d)], F5)
    first = next(A.from_coords(v) for v in V if any(not c.is_zero() for c in v[1:]))
    assert len(roots_in(A.min_poly(first), F5)) < len(V) == 4
    assert _factor_data(A) == _recursive_rule_decompose(A)
    assert [f.presentation.dimension for f in decompose_local(A)] == [2, 2, 2, 2]


def _counting_builds(monkeypatch):
    """Record each presentation built and each packed Frobenius map computed,
    which `_unpacked(_frobenius)` and `nilradical_dimension` both read."""
    built = {"presentations": 0, "frobenius": []}
    real_init = AlgebraPresentation.__init__
    real_frob = AlgebraPresentation._frobenius.func

    def init(self, *args):
        built["presentations"] += 1
        real_init(self, *args)

    def frob(self):
        built["frobenius"].append(self)
        return real_frob(self)
    prop = cached_property(frob)
    prop.__set_name__(AlgebraPresentation, "_frobenius")
    monkeypatch.setattr(AlgebraPresentation, "__init__", init)
    monkeypatch.setattr(AlgebraPresentation, "_frobenius", prop)
    return built


def test_decompose_builds_one_frobenius_matrix_and_one_presentation_per_factor(
        monkeypatch):
    A = _four_local_factors()
    built = _counting_builds(monkeypatch)
    fs = decompose_local(A)
    assert built["presentations"] == len(fs) == 4
    # A's own map once: the residue degrees are ranks on its image too
    assert built["frobenius"] == [A]


@pytest.mark.parametrize("build", [
    _four_local_factors,
    lambda: alg(F7, ["t"], lambda t: [(t * t - 3) * t * (t - 1) * (t - 1)]),
    lambda: alg(F7, ["t"], lambda t: [t ** 3]),
])
def test_decompose_makes_a_normal_form_per_border_monomial_only(monkeypatch, build):
    # idempotents are refined and checked, and residue degrees read, on
    # A's packed tables: the only normal forms are the tables' own, and a
    # factor's presentation takes none
    A = build()
    calls = {}
    real_nf = AlgebraPresentation.nf

    def nf(self, f):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return real_nf(self, f)
    monkeypatch.setattr(AlgebraPresentation, "nf", nf)
    fs = decompose_local(A)
    monkeypatch.undo()
    assert calls == ({id(A): len(_border(A))} if _border(A) else {})


def test_decompose_of_a_local_algebra_builds_no_presentation(monkeypatch):
    A = alg(F7, ["t"], lambda t: [t ** 3])
    built = _counting_builds(monkeypatch)
    (f,) = decompose_local(A)
    assert f.presentation is A and f.residue_degree == 1
    assert A.nilradical_dimension() == 2
    assert built == {"presentations": 0, "frobenius": [A]}


def test_local_idempotents_refine_each_algebra_once(monkeypatch):
    # a verify pass refines the idempotents of each A tensor K and
    # C tensor K once: algebra_points keeps its points per stage on X, so
    # the theorem check and the adjunction route share one run; nothing
    # keeps the idempotents, so every request refines
    asked, walked = [], []
    real_walk = AlgebraPresentation._walk
    real = weilres._local_idempotents

    def walk(self, *args):
        walked.append(self)
        return real_walk(self, *args)

    def noting(A):
        before = len(walked)
        out = real(A)
        asked.append((A, any(B is A for B in walked[before:])))
        return out
    monkeypatch.setattr(AlgebraPresentation, "_walk", walk)
    monkeypatch.setattr(weilres, "_local_idempotents", noting)
    seen = []
    for name in CORPUS:
        case = parse_case((CASES / (name + ".case")).read_text())
        del asked[:]
        assert verify.verify_case(case).ok()
        assert all(fresh for _, fresh in asked), name
        keys = [(A.vars, A.field) for A, _ in asked]
        assert len(set(keys)) == len(keys), name
        assert set(keys) == {(v, K) for _, K in keys
                             for v in (case.algebra.vars, case.scheme.all_vars)}, name
        seen += asked
    A = seen[0][0]
    del asked[:]
    assert noting(A) == noting(A)
    assert [fresh for _, fresh in asked] == [True, True]


def _unipoly_rule_lagrange(mu, c):
    """L_c = (mu / (x - c)) / (mu / (x - c))(c) by UniPoly division and
    evaluation."""
    q = mu // UniPoly(mu.field, [-c, mu.field.one])
    return q * q.evaluate(c).inverse()


def _horner_rule(A, g, v, e):
    """g(v) e by Horner's rule on MPoly products and normal forms."""
    acc = A.zero()
    for c in reversed(g.coeffs):
        acc = A.nf(acc * v) + e * c
    return acc


def _unipoly_rule_local_idempotents(A):
    """The refinement of 1 along the field-element fixed space, with the
    Lagrange polynomials of `_unipoly_rule_lagrange`."""
    V = _fixed_vectors(A)
    idems = [A.one()]
    for v in V[1:]:
        if len(idems) == len(V):
            break
        mu = A.min_poly(v)
        lagrange = [_unipoly_rule_lagrange(mu, c) for c in roots_in(mu, A.field)]
        idems = [p for e in idems for L in lagrange
                 if not (p := _horner_rule(A, L, v, e)).is_zero()]
    return sorted(idems, key=lambda e: e.label())


def test_packed_lagrange_matches_the_unipoly_rule_on_the_corpus(monkeypatch):
    # every corpus algebra and coordinate ring C of X, over the stages 1 - 3
    # above their own, each refined afresh
    made = []
    real = finalg._lagrange

    def noting(S, mu, c):
        made.append((S, mu, c, real(S, mu, c)))
        return made[-1][-1]
    monkeypatch.setattr(finalg, "_lagrange", noting)
    checked = 0
    for name in CORPUS:
        case = parse_case((CASES / (name + ".case")).read_text())
        for B in [case.algebra, case.scheme.coordinate_ring]:
            if B.basis_monomials is INFINITE or B.dimension == 0:
                continue
            for n in (1, 2, 3):
                K = stage_field(case.p, n * B.field.degree)
                BK = AlgebraPresentation(
                    K, B.vars, [r.map_coefficients(K) for r in B.relations])
                del made[:]
                idems, _ = finalg._local_idempotents(BK)
                assert idems == _unipoly_rule_local_idempotents(BK)
                for S, mu, c, L in made:
                    mu = UniPoly(K, [exactfield.FieldElement(K, S.unpack(a)) for a in mu])
                    c = exactfield.FieldElement(K, S.unpack(c))
                    assert L == [BK._stage.pack(a.coeffs)
                                  for a in _unipoly_rule_lagrange(mu, c).coeffs], (name, BK)
                    checked += 1
    assert checked > 50


# -- base extension ----------------------------------------------------

def test_tensor_extend_identity_and_errors():
    dual = alg(F5, ["eps"], lambda e: [e * e])
    assert tensor_extend(dual, F5) is dual
    with pytest.raises(MixedFields):
        tensor_extend(dual, PrimeField(7))
    with pytest.raises(MixedFields):
        tensor_extend(tensor_extend(dual, make_ext_field(5, 2)), make_ext_field(5, 3))


def test_tensor_extend_preserves_dimension():
    A = alg(F5, ["t"], lambda t: [t * t * (t - 1)])
    K = make_ext_field(5, 4)
    assert tensor_extend(A, K).dimension == A.dimension


# -- products ----------------------------------------------------------

def test_product_of_prime_stages():
    P = AlgebraPresentation(F5, (), [])
    prod = product_algebra(P, P)
    assert prod.presentation.vars == ("w",)
    assert prod.presentation.dimension == 2
    w = prod.idempotent_left
    assert prod.presentation.nf(w * w) == w
    assert prod.idempotent_right == prod.presentation.one() - w


def test_product_disjoint_names_survive():
    quad = alg(F5, ["t"], lambda t: [t * t - 2])
    dual = alg(F5, ["eps"], lambda e: [e * e])
    prod = product_algebra(quad, dual)
    assert prod.presentation.vars == ("t", "eps", "w")
    assert prod.presentation.dimension == 4
    assert prod.left_vars == {"t": "t"}
    assert prod.right_vars == {"eps": "eps"}


def test_product_name_collision():
    A = alg(F5, ["t"], lambda t: [t * t - 2])
    B = alg(F5, ["t"], lambda t: [t * t - t])
    prod = product_algebra(A, B)
    assert prod.presentation.vars == ("t1", "t2", "w")
    assert prod.presentation.dimension == 4


def test_product_projections_and_homs():
    quad = alg(F5, ["t"], lambda t: [t * t - 2])
    dual = alg(F5, ["eps"], lambda e: [e * e])
    prod = product_algebra(quad, dual)
    P = prod.presentation
    assert prod.proj_left.check() and prod.proj_right.check()
    # the two idempotent slices have dimensions of the factors
    for e, expect in ((prod.idempotent_left, 2), (prod.idempotent_right, 2)):
        cut = AlgebraPresentation(P.field, P.vars,
                                  list(P.relations) + [P.one() - e])
        assert cut.dimension == expect


def test_product_hom_counts_multiply_points():
    A = alg(F5, ["t"], lambda t: [t * t - t])
    B = alg(F5, ["u"], lambda u: [u * u - 2])
    prod = product_algebra(A, B)
    for m in (1, 2):
        K = stage_field(5, m)
        assert oracle_hom_count(prod.presentation, K) == \
            oracle_hom_count(A, K) + oracle_hom_count(B, K)


def test_product_mixed_fields():
    with pytest.raises(MixedFields):
        product_algebra(AlgebraPresentation(F5, (), []),
                        AlgebraPresentation(F7, (), []))


# -- smoothness certificates ------------------------------------------

def test_etale_certificate_positive():
    quad = alg(F5, ["t"], lambda t: [t * t - 2])
    ctx = ("t", "y")
    y = MPoly.variable(F5, ctx, "y")
    t = MPoly.variable(F5, ctx, "t")
    X = SchemePresentation(quad, ("y",), [y * y - t])
    cert = etale_check(X)
    assert cert.ok and cert.obstruction is None
    B = X.coordinate_ring
    assert B.nf(cert.jacobian_det * cert.inverse) == B.one()


def test_etale_certificate_negative():
    dual = alg(F5, ["eps"], lambda e: [e * e])
    ctx = ("eps", "y")
    y = MPoly.variable(F5, ctx, "y")
    e = MPoly.variable(F5, ctx, "eps")
    X = SchemePresentation(dual, ("y",), [y * y - e])
    cert = etale_check(X)
    assert not cert.ok and cert.inverse is None
    B = X.coordinate_ring
    assert not cert.obstruction.is_zero()
    assert B.nf(cert.jacobian_det * cert.obstruction).is_zero()


def _etale_failing_obstruction(monkeypatch, kernel):
    """etale_check on y^2 = eps over the dual numbers, with the kernel of
    the determinant's multiplication columns, which the inverse's solve
    reads off [M | 1] (fewer columns than the rows have), replaced by the
    dense vectors kernel(d)."""
    dual = alg(F5, ["eps"], lambda e: [e * e])
    ctx = ("eps", "y")
    y = MPoly.variable(F5, ctx, "y")
    e = MPoly.variable(F5, ctx, "eps")
    X = SchemePresentation(dual, ("y",), [y * y - e])
    real = exactfield._Packed.null_vectors
    monkeypatch.setattr(exactfield._Packed, "null_vectors", lambda self, rows, width: (
        kernel(width) if width < len(rows[0]) else real(self, rows, width)))
    return X


@pytest.mark.parametrize("kernel", [
    lambda d: [],
    lambda d: [[1] + [0] * (d - 1)],
    lambda d: [[0] * d],
], ids=["no-kernel", "not-annihilating", "zero"])
def test_etale_check_certifies_its_obstruction(monkeypatch, kernel):
    X = _etale_failing_obstruction(monkeypatch, kernel)
    with pytest.raises(CertificateFailure,
                       match="not a nonzero annihilator of the determinant"):
        etale_check(X)


@pytest.mark.parametrize("smooth", [True, False], ids=["unit", "non-unit"])
def test_etale_check_reads_no_minimal_polynomial(monkeypatch, smooth):
    # the inverse is one solve on the determinant's columns, and the
    # annihilator of a determinant that is no unit is read off that
    # solve's echelon form, with no second elimination
    base = alg(F5, ["t"], lambda t: [t * t - 2] if smooth else [t * t])
    y, t = (MPoly.variable(F5, ("t", "y"), v) for v in ("y", "t"))
    X = SchemePresentation(base, ("y",), [y * y - t])
    B = X.coordinate_ring
    calls = []
    for name in ("solve", "kernel"):
        real = getattr(exactfield._Packed, name)
        monkeypatch.setattr(exactfield._Packed, name, lambda self, *args, name=name, real=real:
                            calls.append(name) or real(self, *args))
    real_min_poly = AlgebraPresentation._min_poly
    monkeypatch.setattr(AlgebraPresentation, "_min_poly",
                        lambda self, cols: calls.append("min_poly") or real_min_poly(self, cols))
    cert = etale_check(X)
    assert cert.ok is smooth
    if smooth:
        assert calls == ["solve"]
        assert B.nf(cert.jacobian_det * cert.inverse) == B.one()
    else:
        assert calls == ["solve"]
        assert not cert.obstruction.is_zero()
        assert B.nf(cert.jacobian_det * cert.obstruction).is_zero()
    calls.clear()
    assert B.is_unit(cert.jacobian_det) is smooth
    assert calls == ["solve"]


def test_product_raises_when_its_dimension_is_not_the_sum(monkeypatch):
    quad = alg(F5, ["t"], lambda t: [t * t - 2])
    dual = alg(F5, ["u"], lambda u: [u * u])

    class KillsTheLeftFactor(AlgebraPresentation):
        def __init__(self, field, variables, relations):
            w = MPoly.variable(field, variables, variables[-1])
            super().__init__(field, variables, list(relations) + [w])
    monkeypatch.setattr(finalg, "AlgebraPresentation", KillsTheLeftFactor)
    with pytest.raises(CertificateFailure, match="dimension"):
        product_algebra(quad, dual)


def test_product_raises_when_a_projection_is_not_a_map(monkeypatch):
    quad = alg(F5, ["t"], lambda t: [t * t - 2])
    dual = alg(F5, ["u"], lambda u: [u * u])

    class ShiftedHom(AlgebraHom):
        def __init__(self, source, target, images):
            images = dict(images)
            images["t"] = images["t"] + target.one()
            super().__init__(source, target, images)
    monkeypatch.setattr(finalg, "AlgebraHom", ShiftedHom)
    with pytest.raises(CertificateFailure, match="projection"):
        product_algebra(quad, dual)


def test_etale_not_square():
    dual = alg(F5, ["eps"], lambda e: [e * e])
    e = MPoly.variable(F5, ("eps",), "eps")
    X = SchemePresentation(dual, (), [e])
    with pytest.raises(NotSquareSystem):
        etale_check(X)


def test_etale_not_finite():
    base = AlgebraPresentation(F5, (), [])
    ctx = ("y", "z")
    y = MPoly.variable(F5, ctx, "y")
    z = MPoly.variable(F5, ctx, "z")
    X = SchemePresentation(base, ("y", "z"), [y * z - 1, MPoly.zero(F5, ctx)])
    with pytest.raises(NotFinite):
        etale_check(X)


def test_etale_multivariable():
    base = AlgebraPresentation(F7, (), [])
    ctx = ("y0", "y1")
    a = MPoly.variable(F7, ctx, "y0")
    b = MPoly.variable(F7, ctx, "y1")
    X = SchemePresentation(base, ctx, [a * a - 3, b * b * b - a])
    cert = etale_check(X)
    assert cert.ok
    B = X.coordinate_ring
    assert B.nf(cert.jacobian_det * cert.inverse) == B.one()


def test_coordinate_ring_merges_contexts():
    dual = alg(F5, ["eps"], lambda e: [e * e])
    ctx = ("eps", "y")
    y = MPoly.variable(F5, ctx, "y")
    e = MPoly.variable(F5, ctx, "eps")
    X = SchemePresentation(dual, ("y",), [y * y - y - e])
    B = X.coordinate_ring
    assert B.vars == ("eps", "y")
    assert B.dimension == 4


def test_algebra_hom_check_rejects_nonmap():
    quad = alg(F5, ["t"], lambda t: [t * t - 2])
    bad = AlgebraHom(quad, quad, {"t": quad.one()})
    assert not bad.check()


def test_relation_context_mismatch_survives_optimized_mode():
    script = (
        "from resweil import AlgebraPresentation, MPoly, PrimeField\n"
        "F = PrimeField(5)\n"
        "try:\n"
        "    AlgebraPresentation(F, ('t',), [MPoly.variable(F, ('s',), 's')])\n"
        "except Exception as e:\n"
        "    print(type(e).__name__)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(CASES.parent / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, env=env, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "MixedContexts\n"
