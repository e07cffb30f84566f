"""The coordinate expansion of `weil_restrict` on A's multiplication
tables, against the symbolic rule it replaced.

The rule substitutes y = sum_b y_b e_b for each unknown by `MPoly`
products over the combined context (A's variables and the coordinates),
reduces each relation by A's Groebner basis extended to that context, and
reads the coordinates off the reduced terms.  Every restriction the
verifier makes, the benchmark's generated cases and seeded random schemes
over a random basis must come out with the same variables, dictionary
and relations.
"""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from resweil import (
    MPoly,
    SchemePresentation,
    finalg,
    multipoly,
    weil_restrict,
    weilres,
)
from resweil.multipoly import normal_form
from resweil.versuite import parse_case, verify, verify_case
from shared import _random_basis, _workloads

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "cases"
GOLDEN = ROOT / "tests" / "data" / "corpus-report-seed42.json"
CORPUS = sorted(p.stem for p in CASES.glob("*.case"))


def _case(name):
    return parse_case((CASES / (name + ".case")).read_text())


def _substitute(f, images):
    """f with each variable v replaced by images[v], all in one context,
    expanded by plain `MPoly` products; each power of an image is built
    once, from the one below it."""
    field, ctx = next(iter(images.values())).field, next(iter(images.values())).vars
    one = MPoly.constant(field, ctx, 1)
    powers = {v: [one] for v in f.vars}
    acc = MPoly.zero(field, ctx)
    for m, c in f.terms.items():
        term = one * c
        for v, e in zip(f.vars, m):
            while len(powers[v]) <= e:
                powers[v].append(powers[v][-1] * images[v])
            term = term * powers[v][e]
        acc = acc + term
    return acc


def _names(scheme_vars, d, forbidden):
    for k in itertools.count():
        table = {(sv, b): "%s%s%d" % (sv, "_" * k, b)
                 for sv in scheme_vars for b in range(d)}
        names = list(table.values())
        if len(set(names)) == len(names) and not (set(names) & set(forbidden)):
            return tuple(names), table


def _substitute_rule_weil_restrict(A, X, basis=None):
    """(vars, var_table, relations) of the restriction by substitution:
    the expansion reduced modulo A over the combined context, its
    coordinates read off A's standard monomials, and through the inverse
    change of basis for a given basis."""
    field, d, S = A.field, A.dimension, A._stage
    if basis is None:
        basis, inv_change = A.basis_elements(), None
    else:
        basis = [A.nf(b) for b in basis]
        units = [[(i, 1)] for i in range(d)]
        cols = S.solve(S.rows([A._packed_coords(b) for b in basis] + units, d), d)
        inv_change = [[(i, a) for i, a in enumerate(x) if a] for x in cols]
    yvars, table = _names(X.vars, d, A.vars)
    ctx = tuple(A.vars) + yvars
    nt = len(A.vars)
    images = {tv: MPoly.variable(field, ctx, tv) for tv in A.vars}
    for sv in X.vars:
        images[sv] = sum((MPoly.variable(field, ctx, table[(sv, b)])
                          * basis[b].extend_context(ctx) for b in range(d)),
                         MPoly.zero(field, ctx))
    ext_gb = [g.extend_context(ctx) for g in A.groebner.polys]
    idx = {m: i for i, m in enumerate(A.basis_monomials)}
    relations = []
    for g in X.relations:
        reduced = _substitute(g, images)
        if ext_gb:
            reduced = normal_form(reduced, ext_gb)
        vecs = {}
        for mono, c in reduced.terms.items():
            v = vecs.setdefault(mono[nt:], [field.zero] * d)
            v[idx[mono[:nt]]] += c
        comps = [{} for _ in range(d)]
        for ypart, v in vecs.items():
            u = v if inv_change is None else A._vector(S.mat_vec(inv_change, [
                (i, S.pack(c.coeffs)) for i, c in enumerate(v) if not c.is_zero()]))
            for b in range(d):
                comps[b][ypart] = u[b]
        relations += [MPoly(field, yvars, comp) for comp in comps]
    return yvars, table, relations


def _reduced_over_the_extended_basis(X, relations):
    """Each relation's normal form by the base's Groebner basis extended
    to the combined context, as `SchemePresentation` took it before it
    reduced coefficient by coefficient."""
    ctx = X.all_vars
    ext_gb = [g.extend_context(ctx) for g in X.base.groebner.polys]
    return [normal_form(r.extend_context(ctx), ext_gb) if ext_gb else r.extend_context(ctx)
            for r in relations]


def _assert_matches_the_rule(A, X, basis=None):
    assert list(X.relations) == _reduced_over_the_extended_basis(X, X.relations)
    R = weil_restrict(A, X, basis)
    yvars, table, relations = _substitute_rule_weil_restrict(A, X, basis)
    assert R.vars == yvars
    assert R.var_table == table
    assert list(R.relations) == relations


def test_every_restriction_the_verifier_makes_matches_the_substitution_rule(monkeypatch):
    # X itself, the product's restrictions (along the lifted basis and over
    # each factor) and each open-cover chart, on every corpus case; the
    # theorem's per-factor count restricts nothing
    callers = set()

    def checked(A, X, basis=None):
        callers.add(sys._getframe(1).f_code.co_name)
        _assert_matches_the_rule(A, X, basis)
        return weil_restrict(A, X, basis)

    monkeypatch.setattr(verify, "weil_restrict", checked)
    monkeypatch.setattr(weilres, "weil_restrict", checked)
    for name in CORPUS:
        verify_case(_case(name), 42)
    assert callers == {"verify_case", "product_formula_check", "open_cover_check"}


@pytest.mark.parametrize("workload", ["groebner-scale", "points-stage"])
def test_the_benchmark_cases_match_the_substitution_rule(monkeypatch, workload):
    workloads = _workloads(monkeypatch)
    for seed in (1, 2, 3):
        for op in workloads.WORKLOADS[workload](seed, str(ROOT)):
            case = parse_case(op["text"])
            _assert_matches_the_rule(case.algebra, case.scheme)


def _random_scheme(A, rng):
    """Two unknowns and two relations of degree at most 3 in them, with
    random coefficients of low degree in A's variables, and the relations
    as given."""
    names = tuple(v for v in ("y", "z", "y9", "z9") if v not in A.vars)[:2]
    ctx = tuple(A.vars) + names
    field = A.field
    rels = []
    for _ in range(2):
        terms = {}
        for _ in range(rng.randrange(2, 6)):
            ys = rng.choice([(a, b) for a in range(4) for b in range(4) if a + b <= 3])
            ts = tuple(rng.randrange(3) for _ in A.vars)
            terms[ts + ys] = field.from_int(rng.randrange(1, field.p))
        rels.append(MPoly(field, ctx, terms))
    return SchemePresentation(A, names, rels), rels


@pytest.mark.parametrize("name", CORPUS)
def test_random_schemes_over_a_random_basis_match_the_substitution_rule(name, slot_peaks):
    A = _case(name).algebra
    rng = random.Random(name)
    for _ in range(3):
        X, given = _random_scheme(A, rng)
        assert list(X.relations) == _reduced_over_the_extended_basis(X, given)
        _assert_matches_the_rule(A, X)
        _assert_matches_the_rule(A, X, _random_basis(A, rng))
    assert slot_peaks


# -- what the expansion costs -------------------------------------------

def test_a_relation_of_degree_64_builds_each_power_once(monkeypatch):
    A = _case("dual-numbers-etale").algebra
    ctx = tuple(A.vars) + ("y",)
    y = MPoly.variable(A.field, ctx, "y")
    X = SchemePresentation(A, ("y",), [sum((y ** e for e in range(65)), y * 0)])
    built = []
    real = weilres._times_unknown

    def counted(*args):
        built.append(1)
        return real(*args)
    monkeypatch.setattr(weilres, "_times_unknown", counted)
    weil_restrict(A, X)
    assert len(built) <= 64
    monkeypatch.undo()
    _assert_matches_the_rule(A, X)


def test_the_expansion_takes_no_normal_form(monkeypatch):
    # every corpus case along the standard basis, and each product along
    # its lifted basis; A's tables, and their normal forms at the border
    # monomials, are built before counting
    restrictions = []
    for name in CORPUS:
        case = _case(name)
        restrictions.append((case.algebra, case.scheme, None))
        if case.product is not None:
            restrictions.append((case.product.presentation, case.scheme,
                                 _lifted_basis(case.product)))
    for A, _, _ in restrictions:
        A._tables
    calls = []
    real = multipoly.normal_form

    def counted(*args):
        calls.append(1)
        return real(*args)
    for module in (multipoly, finalg, weilres):
        monkeypatch.setattr(module, "normal_form", counted)
    for A, X, basis in restrictions:
        weil_restrict(A, X, basis)
    assert calls == []


def _lifted_basis(prod):
    """The basis `product_formula_check` restricts the product along: each
    factor's standard basis times its idempotent."""
    P = prod.presentation
    w = P.var(prod.idempotent_var)
    lifted = [P.nf(w * multipoly.rename_context(m, prod.left_vars, P.vars))
              for m in prod.proj_left.target.basis_elements()]
    lifted += [P.nf((P.one() - w) * multipoly.rename_context(m, prod.right_vars, P.vars))
               for m in prod.proj_right.target.basis_elements()]
    return lifted


# -- a corrupted expansion must not pass unnoticed ------------------------

def test_multiplying_by_the_next_basis_element_changes_a_restriction(monkeypatch):
    real = weilres._times_unknown

    def shifted(S, times, power, offset):  # e_(b+1) for e_b
        return real(S, times[1:] + times[:1], power, offset)
    monkeypatch.setattr(weilres, "_times_unknown", shifted)
    golden = {r["case"]: r for r in json.loads(GOLDEN.read_text())}
    changed = []
    for name in CORPUS:
        case = _case(name)
        R = weil_restrict(case.algebra, case.scheme)
        if list(R.relations) != _substitute_rule_weil_restrict(case.algebra, case.scheme)[2]:
            changed.append(name)
            rep = verify_case(case, 42)
            assert json.loads(json.dumps(rep.to_obj())) != golden[name], name
    # every case with an unknown: nilpotent-collapse has none
    assert sorted(set(CORPUS) - set(changed)) == ["nilpotent-collapse"]


def test_an_altered_inverse_change_of_basis_fails_the_recombination(monkeypatch):
    real = weilres._inverse_change

    def altered(A, basis):  # 1 added to the first entry of column 0
        cols = real(A, basis)
        col = dict(cols[0])
        col[0] = A._stage.reduce(col.get(0, 0) + 1)
        cols[0] = sorted((i, a) for i, a in col.items() if a)
        return cols
    monkeypatch.setattr(weilres, "_inverse_change", altered)
    rep = verify_case(_case("split-pair-cubic"), 42)
    product = [c for c in rep.checks if c.name == "product"]
    assert [(c.ok, c.detail) for c in product] == [
        (False, "certificate failure: basis recombination failed")]
