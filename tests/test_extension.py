"""Base change read off the base: `tensor_extend(A, K)` inherits A's
reduced Groebner basis and standard monomials, lifts A's multiplication
tables, and composes A's Frobenius map [K : k] times.  Everything it
inherits must equal what a presentation built over K by `__init__`
computes, and a corrupted inheritance must fail a check.
"""

import json
from functools import cached_property
from pathlib import Path

import pytest

from resweil import (
    AlgebraPresentation,
    MPoly,
    SchemePresentation,
    finalg,
    multipoly,
    stage_field,
    tensor_extend,
    weil_restrict,
)
from resweil.multipoly import INFINITE
from resweil.weilres import adjunction_check
from resweil.errors import (
    CertificateFailure,
    NotZeroDimensional,
    PositiveDimensionalFiber,
)
from resweil.finalg import _local_idempotents
from resweil.versuite import parse_case, verify, verify_case

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "cases"
GOLDEN = ROOT / "tests" / "data" / "corpus-report-seed42.json"
CORPUS = sorted(p.stem for p in CASES.glob("*.case"))

F49 = stage_field(7, 2)


def _direct(B, K):
    """B over K built from scratch by `__init__`: Buchberger over K, border
    normal forms over K and the Frobenius by square-and-multiply over K."""
    return AlgebraPresentation(K, B.vars, [r.map_coefficients(K) for r in B.relations])


def _sorted_columns(cols):
    return [sorted(col) for col in cols]


def _assert_inherits(B, K):
    BK, direct = tensor_extend(B, K), _direct(B, K)
    assert BK.groebner.polys == direct.groebner.polys
    assert BK.relations == direct.relations
    assert BK.basis_monomials == direct.basis_monomials
    if BK.basis_monomials is INFINITE or not BK.dimension:
        return
    assert ([_sorted_columns(t) for t in BK._tables]
            == [_sorted_columns(t) for t in direct._tables])
    assert _sorted_columns(BK._frobenius) == _sorted_columns(direct._frobenius)
    assert _local_idempotents(BK) == _local_idempotents(direct)


def _over_f49():
    """A = F_49[t, e]/(t^2 - c, e^2), c the first nonsquare of F_49, and
    X: y^2 - g - t e over it, g the generator of F_49, etale since g is a
    unit.  A is local, and A tensor F_{7^4} splits in two, with two
    points of X over each factor."""
    ctx = ("t", "e", "y")
    t, e, y = (MPoly.variable(F49, ctx, v) for v in ctx)
    c = next(c for c in F49 if not c.is_zero() and c ** 24 != F49.one)
    g, c = (MPoly.constant(F49, ctx, x) for x in (F49.gen, c))
    A = AlgebraPresentation(F49, ("t", "e"), [r.extend_context(("t", "e"))
                                              for r in (t * t - c, e * e)])
    X = SchemePresentation(A, ("y",), [y * y - g - t * e])
    return A, X


@pytest.mark.parametrize("name", CORPUS)
def test_an_extension_inherits_what_a_direct_build_computes(name, slot_peaks):
    # every corpus A and X's coordinate ring C at stages 2, 3 and N
    case = parse_case((CASES / (name + ".case")).read_text())
    A, X = case.algebra, case.scheme
    try:
        N = verify.ambient_degree(A, X, weil_restrict(A, X))
    except (NotZeroDimensional, PositiveDimensionalFiber):
        N = None
    stages = sorted({2, 3} | ({N} if N and N > 1 else set()))
    for B in (A, X.coordinate_ring):
        for m in stages:
            _assert_inherits(B, stage_field(case.p, m))
    assert slot_peaks


@pytest.mark.parametrize("m", [4, 6])
def test_an_extension_of_a_base_over_f49_inherits_what_a_direct_build_computes(
        m, slot_peaks):
    # a non-prime base: every lifted entry goes through embed's image of
    # the generator of F_49
    A, X = _over_f49()
    dual = parse_case((CASES / "dual-numbers-etale.case").read_text()).algebra
    K = stage_field(7, m)
    for B in (A, X.coordinate_ring, tensor_extend(dual, F49)):
        _assert_inherits(B, K)
    assert (7, m) in slot_peaks


def test_extending_runs_no_buchberger_no_normal_form_and_no_square_and_multiply(
        monkeypatch):
    case = parse_case((CASES / "tensor-mixed-base.case").read_text())
    bases = [case.algebra, case.scheme.coordinate_ring]
    for B in bases:  # the base's own data is computed before counting
        _local_idempotents(B)
    calls = []

    def counting(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    for module in (finalg, multipoly):
        for name in ("buchberger", "normal_form"):
            monkeypatch.setattr(module, name, counting(name, getattr(multipoly, name)))
    walked = []
    walk = AlgebraPresentation._walk

    def noting_walk(self, first, tables):
        walked.append(self)
        return walk(self, first, tables)
    monkeypatch.setattr(AlgebraPresentation, "_walk", noting_walk)
    for B in bases:
        for m in (2, 3, 4):
            BK = tensor_extend(B, stage_field(7, m))
            assert BK.basis_monomials == B.basis_monomials
            assert len(BK._tables) == len(B.vars)
            assert len(BK._frobenius) == B.dimension
            assert not walked  # the q-power map is not walked over K
            _local_idempotents(BK)
            walked.clear()
    assert calls == []


# -- a corrupted inheritance must not pass unnoticed ----------------------

def _frobenius_composed_once_less(self):
    """An extension's Frobenius from A's composed b - 1 times, not b."""
    A = self._base
    if A is None or not self.dimension:
        return _REAL_FROBENIUS(self)
    F = power = A._frobenius
    for _ in range(self.field.degree // A.field.degree - 2):
        power = [A._stage.mat_vec(F, col) for col in power]
    return self._lifted(power)


_REAL_FROBENIUS = AlgebraPresentation._frobenius.func


def _lifted_without_embed(self, cols):
    """Entries repacked coefficient by coefficient, as if the generator of
    the base went to the generator of the extension."""
    S, T = self._base._stage, self._stage
    return [[(i, T.pack(S.unpack(a))) for i, a in col] for col in cols]


def _evaluate_dropping_the_last_term(self, f, values):
    last = list(f.terms)[-1]
    g = MPoly(f.field, f.vars, {m: c for m, c in f.terms.items() if m != last})
    return _REAL_EVALUATE(self, g, values)


_REAL_EVALUATE = AlgebraPresentation._evaluate


def _install(monkeypatch, mutant):
    if mutant is _frobenius_composed_once_less:
        prop = cached_property(mutant)
        prop.__set_name__(AlgebraPresentation, "_frobenius")
        monkeypatch.setattr(AlgebraPresentation, "_frobenius", prop)
    elif mutant is _lifted_without_embed:
        monkeypatch.setattr(AlgebraPresentation, "_lifted", mutant)
    else:
        monkeypatch.setattr(AlgebraPresentation, "_evaluate", mutant)


@pytest.mark.parametrize("mutant", [_frobenius_composed_once_less,
                                    _evaluate_dropping_the_last_term],
                         ids=["frobenius-composed-once-less", "evaluate-drops-last-term"])
def test_a_corrupted_extension_fails_a_check_and_changes_no_passing_report(
        monkeypatch, mutant):
    golden = {r["case"]: r for r in json.loads(GOLDEN.read_text())}
    _install(monkeypatch, mutant)
    failed = []
    for path in sorted(CASES.glob("*.case")):
        try:  # a product's projections are checked on `_evaluate` as it is parsed
            case = parse_case(path.read_text())
            rep = verify_case(case, 42)
        except CertificateFailure:
            failed.append(path.stem)
            continue
        if rep.ok():
            assert json.loads(json.dumps(rep.to_obj())) == golden[case.name], case.name
        else:
            failed.append(case.name)
    assert failed


@pytest.mark.parametrize("mutant", [_frobenius_composed_once_less,
                                    _lifted_without_embed,
                                    _evaluate_dropping_the_last_term],
                         ids=["frobenius-composed-once-less", "lifted-without-embed",
                              "evaluate-drops-last-term"])
def test_a_corrupted_extension_fails_the_adjunction_check_over_f49(monkeypatch, mutant):
    A, X = _over_f49()
    R = weil_restrict(A, X)
    K = stage_field(7, 4)
    assert adjunction_check(R, K).ok
    A, X = _over_f49()
    R = weil_restrict(A, X)
    _install(monkeypatch, mutant)
    try:
        ok = adjunction_check(R, K).ok
    except CertificateFailure:
        ok = False
    assert not ok
