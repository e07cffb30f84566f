"""Case format, verifier wiring, suite exit codes, and the CLI."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from resweil import AlgebraPresentation, MPoly, PrimeField, weil_restrict
from resweil import exactfield, finalg, gammaset, multipoly, weilres
from resweil.errors import (
    CaseSyntaxError,
    CertificateFailure,
    NonPrime,
    UndeclaredVariable,
)
from resweil.exactfield import stage_field
from resweil.finalg import _local_idempotents, decompose_local, tensor_extend
from resweil.gammaset import GammaSet, GeometricPoint, pi0_points
from shared import _fiber_rule_presentation
from resweil.versuite import (
    ambient_degree,
    parse_case,
    parse_poly,
    render_case,
    run_suite,
    verify_case,
)
from resweil.versuite import dsl, verify
from resweil.versuite.cli import main

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "cases"

DUAL = """\
case "dual-numbers-etale"
field p = 7
algebra A : vars eps ; rels eps^2
scheme X : vars y ; rels y^2 - y - eps
expect S = 1
expect pi0_res = 2
checks theorem, lemma-local, adjunction(1,2,3), cover(y, y-1)
"""


def corpus(name):
    return str(CASES / (name + ".case"))


# ---------------------------------------------------------------- parsing

def test_parse_example_case():
    case = parse_case(DUAL)
    assert case.name == "dual-numbers-etale"
    assert case.p == 7
    assert case.algebra.dimension == 2
    assert case.algebra_blocks[0][0] == "A"
    assert case.scheme_vars == ("y",)
    assert case.product is None
    assert [k for k, _ in case.expects] == ["S", "pi0_res"]
    assert case.checks[0] == ("theorem",)
    assert case.checks[1] == ("lemma-local",)
    assert case.checks[2] == ("adjunction", (1, 2, 3))
    assert case.checks[3][0] == "cover" and len(case.checks[3][1]) == 2


def test_comments_and_blank_lines_ignored():
    text = DUAL.replace('field p = 7', '# leading remark\n\nfield p = 7  # inline')
    assert parse_case(text) == parse_case(DUAL)


def test_round_trip_every_corpus_file():
    files = sorted(CASES.glob("*.case"))
    assert len(files) == 15
    for path in files:
        case = parse_case(path.read_text())
        again = parse_case(render_case(case))
        assert again == case, path.name


def test_render_normalizes_coefficients():
    rendered = render_case(parse_case(DUAL))
    assert "rels y^2 + 6*eps + 6*y" in rendered
    assert "cover(y, y + 6)" in rendered


def test_undeclared_variable_carries_position():
    text = DUAL.replace("y^2 - y - eps", "y^2 - u")
    with pytest.raises(UndeclaredVariable) as ei:
        parse_case(text)
    line = text.splitlines()[3]
    assert "line 4, col %d" % (line.index("u") + 1) in str(ei.value)
    assert "'u'" in str(ei.value)


def test_nonprime_characteristic_rejected():
    with pytest.raises(NonPrime):
        parse_case(DUAL.replace("p = 7", "p = 9"))
    with pytest.raises(NonPrime):
        parse_case(DUAL.replace("p = 7", "p = 2"))


def test_syntax_error_positions():
    text = 'case "x"\nfield p = 7\nalgebra A :\nscheme X : vars y ; rels y^'
    with pytest.raises(CaseSyntaxError) as ei:
        parse_case(text)
    assert (ei.value.line, ei.value.col) == (4, len(text.splitlines()[3]) + 1)

    with pytest.raises(CaseSyntaxError) as ei:
        parse_case('case "oops')
    assert (ei.value.line, ei.value.col) == (1, 6)

    with pytest.raises(CaseSyntaxError) as ei:
        parse_case('case "x"\nfrobble 3\n')
    assert (ei.value.line, ei.value.col) == (2, 1)


def _reject(text, fragment):
    with pytest.raises(CaseSyntaxError) as ei:
        parse_case(text)
    assert fragment in str(ei.value), str(ei.value)


def test_structural_rules():
    _reject("field p = 7\n", "field before case")
    _reject('case "a"\ncase "b"\n', "duplicate case")
    _reject('case "a"\nalgebra A :\n', "algebra before field")
    _reject('case "a"\nfield p = 7\nscheme X : vars y\n',
            "scheme before any algebra")
    _reject('case "a"\nfield p = 7\nalgebra A :\nalgebra B :\n'
            'algebra C :\nscheme X :\n', "at most two")
    _reject('case "a"\nfield p = 7\nexpect S = 1\n', "expect before scheme")
    _reject('case "a"\nfield p = 7\n', "missing")
    _reject('case "a"\nfield p = 7\nalgebra A : vars t t\nscheme X :\n',
            "declared twice")
    _reject('case "a"\nfield p = 7\nalgebra A : vars t\n'
            'scheme X : vars t\n', "already in use")
    _reject('case "a"\nfield p = 7\nalgebra A : vars t\n'
            'scheme X : vars y, y\n', "declared twice")
    _reject('case "a"\nfield p = 7\nalgebra A :\nscheme X :\n'
            'expect bogus = 1\n', "unknown expectation")
    _reject('case "a"\nfield p = 7\nalgebra A :\nscheme X :\n'
            'expect S = 1\nexpect S = 1\n', "duplicate expectation")
    _reject('case "a"\nfield p = 7\nalgebra A :\nscheme X :\n'
            'checks wiggle\n', "unknown check")
    _reject('case "a"\nfield p = 7\nalgebra A :\nscheme X :\n'
            'checks theorem(1)\n', "takes no arguments")
    _reject('case "a"\nfield p = 7\nalgebra A :\nscheme X :\n'
            'checks product\n', "needs two algebra blocks")
    _reject('case "a"\nfield p = 7\nalgebra A :\nscheme X :\n'
            'checks adjunction(0)\n', "must be positive")


def test_parse_poly_matches_constructed():
    F = PrimeField(7)
    ctx = ("t", "y")
    t = MPoly.variable(F, ctx, "t")
    y = MPoly.variable(F, ctx, "y")
    one = MPoly.constant(F, ctx, 1)
    got = parse_poly("(y - 1)^2 + 2*t*y", F, ctx)
    assert got == (y - one) ** 2 + t * y * 2
    assert parse_poly("3", F, ctx) == MPoly.constant(F, ctx, 3)
    with pytest.raises(CaseSyntaxError):
        parse_poly("y + ;", F, ctx)
    with pytest.raises(CaseSyntaxError):
        parse_poly("y y", F, ctx)


def _term_by_term_rule_parse_expr(cur, field, ctx):
    """The old sum rule: one new MPoly per `+` or `-`, quadratic in the
    number of terms."""
    negate = cur.match_op("-")
    poly = dsl._parse_term(cur, field, ctx)
    if negate:
        poly = -poly
    while True:
        if cur.match_op("+"):
            poly = poly + dsl._parse_term(cur, field, ctx)
        elif cur.match_op("-"):
            poly = poly - dsl._parse_term(cur, field, ctx)
        else:
            return poly


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _parsed_polys(case):
    polys = [r for _, _, rels in case.algebra_blocks for r in rels]
    polys += list(case.scheme_rels) + list(case.algebra.relations)
    polys += list(case.scheme.relations)
    polys += [h for chk in case.checks if chk[0] == "cover" for h in chk[1]]
    return [(p.vars, list(p.terms.items())) for p in polys]


SUM_EXPRS = (
    "-y^2 + 3*y + y^2 + 2*y^2",     # a monomial cancels, then comes back
    "-(y + 1) - (y - 1) + y*(1 - y)",
    "-(-y + 2) - (-3) + (t - t)",
    "(y - y) + t*y - (t*y - 2) + y",
    "-(t + y)^2 + (t - y)*(t + y) - (-(2*t*y))",
    "y - y", "-0", "0 - 0", "-(y)", "t + (y + (t + (y + 1)))",
)


def test_sums_match_the_term_by_term_rule(monkeypatch):
    monkeypatch.setitem(sys.modules, "oracles", _load_bench("oracles"))
    workloads = _load_bench("workloads")
    texts = [p.read_text() for p in sorted(CASES.glob("*.case"))]
    for seed in (1, 2):
        texts += [op["text"] for op in workloads.points_stage(seed)]
        texts += [op["text"] for op in workloads.groebner_scale(seed)]
    F, ctx = PrimeField(7), ("t", "y")
    got = ([_parsed_polys(parse_case(t)) for t in texts],
           [parse_poly(e, F, ctx) for e in SUM_EXPRS])
    monkeypatch.setattr(dsl, "_parse_expr", _term_by_term_rule_parse_expr)
    want = ([_parsed_polys(parse_case(t)) for t in texts],
            [parse_poly(e, F, ctx) for e in SUM_EXPRS])
    assert len(texts) == 15 + 2 * (10 + 3)
    assert got[0] == want[0]  # equal terms, in the same dict order
    for g, w, e in zip(got[1], want[1], SUM_EXPRS):
        assert (g.vars, list(g.terms.items())) == (w.vars, list(w.terms.items())), e
    assert [str(g) for g in got[1]] == [str(w) for w in want[1]]


def test_product_case_parses_to_product_base():
    case = parse_case(Path(corpus("split-pair-quadratic")).read_text())
    assert case.product is not None
    assert case.algebra.dimension == 2
    assert case.algebra.vars == ("w",)
    assert len(case.algebra_blocks) == 2


def test_hyphenated_check_names():
    text = ('case "a"\nfield p = 7\nalgebra A : vars eps ; rels eps^2\n'
            'scheme X : rels eps\nchecks lemma-local, non-smooth\n')
    case = parse_case(text)
    assert case.checks == (("lemma-local",), ("non-smooth",))


# ------------------------------------------------------------ verification

def test_verify_quadratic_case():
    case = parse_case(Path(corpus("quadratic-field-cover")).read_text())
    rep = verify_case(case)
    assert rep.ok()
    assert rep.S["count"] == 2
    assert rep.pi0_left["count"] == 4
    assert rep.pi0_right["count"] == 4
    assert rep.cycle_types == {"left": [4], "right": [4], "equal": True}
    assert rep.psi_witness["bijective"] and rep.psi_witness["equivariant"]
    assert len(rep.psi_witness["pairs"]) == 4
    assert [c.name for c in rep.checks] == [
        "expect S", "expect pi0_res", "expect fibers",
        "expect cycle_type", "theorem", "adjunction"]


def test_verify_negative_control():
    rep = verify_case(parse_case(Path(corpus("nilpotent-collapse")).read_text()))
    assert rep.ok()
    assert rep.restriction["groebner"] == ["1"]
    assert rep.restriction["empty"] is True
    assert rep.pi0_left["count"] == 0
    assert rep.pi0_right["count"] == 1
    assert rep.cycle_types["equal"] is False
    assert rep.psi_witness["bijective"] is False


def test_verify_theorem_forced_on_negative_case():
    case = parse_case(Path(corpus("nilpotent-collapse")).read_text())
    case.checks += (("theorem",),)
    rep = verify_case(case)
    thm = [c for c in rep.checks if c.name == "theorem"]
    assert len(thm) == 1 and not thm[0].ok
    assert "precheck" in thm[0].detail
    assert not rep.ok()


def test_verify_lemma_local_needs_rational_residue():
    # the whole-field base is local with residue degree 2, so the direct
    # reduction must refuse rather than produce a junk comparison
    case = parse_case(Path(corpus("tensor-mixed-base")).read_text())
    case.checks += (("lemma-local",),)
    rep = verify_case(case)
    lem = [c for c in rep.checks if c.name == "lemma-local"]
    assert len(lem) == 1 and not lem[0].ok
    assert "local base" in lem[0].detail


def _staged_degree(A, X, R):
    """The stage the long way: residue degrees of local factors, fiber by fiber.

    M splits the base, each fiber's residue degrees over F_{p^M} scale
    by M, and the restriction's residue degrees join at the end.
    """
    M = 1
    for fac in decompose_local(A):
        M = math.lcm(M, fac.residue_degree)
    KM = stage_field(A.field.p, M)
    N = M
    for s in pi0_points(A, M).elements:
        B = _fiber_rule_presentation(X, s.coords, KM)
        if B.dimension:
            for fac in decompose_local(B):
                N = math.lcm(N, M * fac.residue_degree)
    if R.quotient.dimension:
        for fac in decompose_local(R.quotient):
            N = math.lcm(N, fac.residue_degree)
    return N


# F_p[t]/(t^3) with two unknowns, one constant a nonsquare: the
# groebner-scale shapes, each at stage 2
T3_SHAPES = {
    "t3-p3": (3, "y^2 - 2 - t, z^2 - 1 - 2*t*y"),
    "t3-p5-square-first": (5, "y^2 - 4 - 2*t, z^2 - 2 - 3*t*y"),
    "t3-p5-nonsquare-first": (5, "y^2 - 3 - t, z^2 - 1 - 4*t*y"),
}


def _ambient_cases():
    for path in sorted(CASES.glob("*.case")):
        yield path.stem, path.read_text()
    for name, (p, rels) in T3_SHAPES.items():
        yield name, ('case "%s"\nfield p = %d\nalgebra A : vars t ; rels t^3\n'
                     "scheme X : vars y, z ; rels %s\n" % (name, p, rels))


def test_ambient_degree_values():
    expected = {"dual-numbers-etale": 1, "quadratic-field-cover": 4,
                "cubic-field-pair": 2, "split-pair-cubic": 3,
                "quartic-tower": 4, "t3-p3": 2, "t3-p5-square-first": 2,
                "t3-p5-nonsquare-first": 2}
    seen = []
    for name, text in _ambient_cases():
        case = parse_case(text)
        R = weil_restrict(case.algebra, case.scheme)
        deg = ambient_degree(case.algebra, case.scheme, R)
        # the reference runs on fresh presentations, so no cache is shared
        ref = parse_case(text)
        want = _staged_degree(ref.algebra, ref.scheme,
                              weil_restrict(ref.algebra, ref.scheme))
        assert deg == want, name
        assert deg == expected.get(name, deg), name
        seen.append(name)
    assert len(seen) == 18 and set(expected) <= set(seen)


def test_ambient_degree_splits_no_factor(monkeypatch):
    # the stage reads only factor degrees: squarefree parts and the
    # distinct-degree pass give them, so no equal-degree split runs
    calls = []
    split = exactfield._Packed.split

    def counted(self, *args, **kwargs):
        calls.append(args)
        return split(self, *args, **kwargs)
    for name, text in _ambient_cases():
        case = parse_case(text)
        R = weil_restrict(case.algebra, case.scheme)
        for B in (case.algebra, case.scheme.coordinate_ring, R.quotient):
            B.min_polys  # computed before the count starts
        monkeypatch.setattr(exactfield._Packed, "split", counted)
        ambient_degree(case.algebra, case.scheme, R)
        monkeypatch.setattr(exactfield._Packed, "split", split)
        assert calls == [], name


def test_report_object_shape():
    rep = verify_case(parse_case(DUAL))
    obj = rep.to_obj()
    assert list(obj.keys()) == [
        "case", "inputs", "dims", "S", "fibers", "restriction",
        "pi0_left", "pi0_right", "cycle_types", "psi_witness",
        "checks", "timings_ms", "seed"]
    assert obj["timings_ms"] is None
    assert rep.timings_ms["total"] > 0
    json.dumps(obj)  # everything must be serializable as-is


def test_report_objects_deterministic():
    a = verify_case(parse_case(DUAL), seed=42).to_obj()
    b = verify_case(parse_case(DUAL), seed=42).to_obj()
    assert json.dumps(a) == json.dumps(b)


def test_verify_case_builds_the_restricted_quotient_once(monkeypatch):
    # one constant is a nonsquare, so the stage is 2 and the per-factor
    # cross-check restricts over F_9, outside the count below
    case = parse_case(
        'case "groebner-shaped"\nfield p = 3\n'
        "algebra A : vars t ; rels t^3\n"
        "scheme X : vars y, z ; rels y^2 - 1 - t, z^2 - 2 - 2*t*y\n"
        "checks theorem\n")
    R = weil_restrict(case.algebra, case.scheme)
    wanted = (R.base_field, R.vars,
              tuple(r for r in R.relations if not r.is_zero()))
    built = []
    init = AlgebraPresentation.__init__

    def counting_init(self, field, variables, relations, *args, **kwargs):
        relations = tuple(relations)
        built.append((field, tuple(variables), relations))
        init(self, field, variables, relations, *args, **kwargs)

    monkeypatch.setattr(AlgebraPresentation, "__init__", counting_init)
    rep = verify_case(case)
    assert rep.ok() and rep.S["ambient_degree"] == 2
    assert built.count(wanted) == 1


def test_verify_case_solves_the_quotient_once_per_stage(monkeypatch):
    # cubic-dual-lift reads the points of R.quotient at stage 1 (components,
    # lemma-local, adjunction, cover), 2 (adjunction, cover), 3 (adjunction)
    case = parse_case(Path(corpus("cubic-dual-lift")).read_text())
    held = []
    restrict = verify.weil_restrict

    def holding_restrict(A, X):
        held.append(restrict(A, X))
        return held[-1]

    quotient_min_polys = []
    min_poly = AlgebraPresentation._min_poly

    def noting_min_poly(self, cols):
        mu = min_poly(self, cols)
        if held and self is vars(held[0]).get("quotient"):
            quotient_min_polys.append(mu)
        return mu

    solved = []
    roots = weilres.roots_in

    def noting_roots(mu, K):
        if any(mu is m for m in quotient_min_polys):
            solved.append(K.degree)
        return roots(mu, K)

    monkeypatch.setattr(verify, "weil_restrict", holding_restrict)
    monkeypatch.setattr(AlgebraPresentation, "_min_poly", noting_min_poly)
    monkeypatch.setattr(weilres, "roots_in", noting_roots)
    rep = verify_case(case)
    # held[0] is the case's restriction, the cross-check restricts again
    assert rep.ok()
    # one minimal polynomial per coordinate, shared by every stage
    assert len(quotient_min_polys) == len(held[0].vars)
    # one root search per coordinate and stage
    assert sorted(solved) == sorted([1, 2, 3] * len(held[0].vars))


@pytest.mark.parametrize("name", [
    "quadratic-field-cover", "dual-numbers-etale", "split-pair-cubic",
    "tensor-mixed-base"])
def test_compute_components_reads_the_fibers_off_the_coordinate_ring(monkeypatch, name):
    # no presentation over X's unknowns alone is built: every fiber is
    # read off X's total coordinate ring, solved once, at the comparison
    # stage only
    case = parse_case(Path(corpus(name)).read_text())
    A, X = case.algebra, case.scheme
    R = weil_restrict(A, X)
    built = []
    init = AlgebraPresentation.__init__

    def noting_init(self, field, variables, relations, *args, **kwargs):
        variables = tuple(variables)
        if variables == X.vars:
            built.append(field.degree)
        init(self, field, variables, relations, *args, **kwargs)

    monkeypatch.setattr(AlgebraPresentation, "__init__", noting_init)
    comp = verify.compute_components(A, X, R)
    assert built == []
    assert list(X.coordinate_ring.points_by_stage) == [stage_field(case.p, comp.N)]


def _noting_builds(monkeypatch, wanted):
    """Record (constructor, stage degree, relation count) for each
    presentation over the variables `wanted` that `__init__` or the
    extension constructor builds."""
    built = []
    init = AlgebraPresentation.__init__
    extension = AlgebraPresentation._extension.__func__

    def noting_init(self, field, variables, relations, *args, **kwargs):
        relations = tuple(relations)
        if tuple(variables) == wanted:
            built.append(("init", field.degree, len(relations)))
        init(self, field, variables, relations, *args, **kwargs)

    def noting_extension(cls, A, K):
        if A.vars == wanted:
            built.append(("extension", K.degree, len(A.relations)))
        return extension(cls, A, K)

    monkeypatch.setattr(AlgebraPresentation, "__init__", noting_init)
    monkeypatch.setattr(AlgebraPresentation, "_extension", classmethod(noting_extension))
    return built


def test_verify_case_builds_the_total_coordinate_ring_once(monkeypatch):
    # the presentations over A.vars + X.vars: X's total coordinate ring C
    # once at stage 1, C tensor K once per further adjunction stage by
    # the extension constructor, kept on C.extensions, and the cover
    # probe; a second algebra_points call builds none of them again
    case = parse_case(Path(corpus("dual-numbers-etale")).read_text())
    ctx = tuple(case.algebra.vars) + tuple(case.scheme.vars)
    built = _noting_builds(monkeypatch, ctx)
    rep = verify_case(case)
    assert rep.ok()
    assert ("adjunction", (1, 2, 3)) in case.checks
    stages = [(how, m) for how, m, _ in built]
    assert stages == [("init", 1), ("extension", 2), ("extension", 3), ("init", 1)]
    C = case.scheme.coordinate_ring
    assert sorted(K.degree for K in C.extensions) == [2, 3]
    for m in (1, 2, 3):
        weilres.algebra_points(case.scheme, stage_field(7, m))
    assert len(built) == 4


def test_base_extension_and_its_local_factors_are_built_once(monkeypatch):
    # over F_49, A = F_7[t, e]/(t^2 - 3, e^2) splits into two local
    # factors; the adjunction route and the theorem's per-factor count
    # share A tensor K and its idempotents, and neither presents a factor
    case = parse_case(Path(corpus("tensor-mixed-base")).read_text())
    A, X = case.algebra, case.scheme
    K = stage_field(7, 2)
    built = _noting_builds(monkeypatch, A.vars)
    first = weilres.algebra_points(X, K)
    assert weilres.algebra_points(X, K) == first
    assert len(first) == 4
    # A tensor K once, by the extension constructor
    assert built == [("extension", 2, 2)]
    # decompose_local presents each local factor, once
    factors = decompose_local(tensor_extend(A, K))
    assert built == [("extension", 2, 2), ("init", 2, 3), ("init", 2, 3)]
    assert factors is not decompose_local(tensor_extend(A, K))
    factors.clear()
    assert len(decompose_local(tensor_extend(A, K))) == 2
    assert len(built) == 3


def test_the_theorem_and_the_adjunction_check_share_one_points_run(monkeypatch):
    # dual-numbers-etale is rational at N = 1, one of its adjunction
    # stages: X keeps its points per stage, so the theorem's per-factor
    # count and the adjunction check read one run at stage 1
    runs = []
    real = weilres._algebra_points
    monkeypatch.setattr(weilres, "_algebra_points",
                        lambda X, AK: runs.append((X, AK.field.degree)) or real(X, AK))
    case = parse_case(Path(corpus("dual-numbers-etale")).read_text())
    rep = verify_case(case)
    assert rep.ok() and rep.S["ambient_degree"] == 1
    assert ("adjunction", (1, 2, 3)) in case.checks
    assert runs == [(case.scheme, 1), (case.scheme, 2), (case.scheme, 3)]


def _noting_calls(monkeypatch, real, note):
    """Wrap real wherever a loaded resweil module holds it, noting the
    arguments of every call."""
    def noting(*args, **kwargs):
        note(*args, **kwargs)
        return real(*args, **kwargs)
    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "resweil"]:
        if getattr(mod, real.__name__, None) is real:
            monkeypatch.setattr(mod, real.__name__, noting)


def test_the_verifier_builds_bases_over_the_prime_stage_only(monkeypatch):
    # the theorem's per-factor count reads algebra_points at stage N, so
    # no local factor of A tensor K is presented, and no restriction or
    # quotient over an extension stage is built
    degrees, decomposed = set(), []

    def note_stage(generators, field=None, variables=None):
        gens = [g for g in generators if not g.is_zero()]
        degrees.add((field or gens[0].field).degree if gens else 1)
    _noting_calls(monkeypatch, multipoly.buchberger, note_stage)
    _noting_calls(monkeypatch, finalg.decompose_local, lambda A: decomposed.append(A))
    for path in sorted(CASES.glob("*.case")):
        assert verify_case(parse_case(path.read_text()), 42).ok(), path.name
    assert degrees == {1}
    assert decomposed == []


A3 = """\
case "a3-local-extension"
field p = 7
algebra A : vars t ; rels t^4
scheme X : vars y, z, w ; rels y^2 - 3 - t, z^2 - 2 - t*y, w^2 - 1 - t*z
checks theorem
"""


def test_a_local_base_extension_passes_the_theorem():
    # A = F_7[t]/(t^4) stays local over every stage; y^2 = 3 on the
    # special fiber needs F_49, where A tensor K is local and the
    # per-factor count is the count of its one factor
    case = parse_case(A3)
    rep = verify_case(case)
    assert [(c.name, c.ok) for c in rep.checks] == [("theorem", True)]
    assert rep.S["ambient_degree"] == 2
    assert len(_local_idempotents(tensor_extend(case.algebra, stage_field(7, 2)))) == 1
    assert rep.checks[0].detail.endswith("per-factor cross-check %d" % rep.pi0_left["count"])


# ------------------------------------------------------------- the suite

def test_suite_runs_in_name_order():
    paths = [corpus("triple-split-line"), corpus("dual-numbers-etale"),
             corpus("cubic-dual-lift")]
    result = run_suite(paths)
    assert result.exit_code == 0
    assert [r.case for r in result.reports] == [
        "cubic-dual-lift", "dual-numbers-etale", "triple-split-line"]


def test_wrong_expectation_exits_1(tmp_path):
    bad = tmp_path / "wrong.case"
    bad.write_text(DUAL.replace("expect pi0_res = 2", "expect pi0_res = 5"))
    result = run_suite([str(bad)])
    assert result.exit_code == 1
    mism = [c for c in result.reports[0].checks if c.name == "expect pi0_res"]
    assert not mism[0].ok and "expected 5" in mism[0].detail


INFINITE_SQUARE = """\
case "infinite-square"
field p = 5
algebra A : vars eps ; rels eps^2
scheme X : vars y, z ; rels y - z, 2*y - 2*z
checks %s
"""


@pytest.mark.parametrize("check", ["theorem", "lemma-local"])
def test_infinite_coordinate_ring_fails_the_theorem_check(tmp_path, check):
    # a square system whose coordinate ring is infinite has no Jacobian
    # verdict and no component data; the check fails with the reason,
    # the run goes on
    fault = tmp_path / "infinite-square.case"
    fault.write_text(INFINITE_SQUARE % check)
    result = run_suite([corpus("dual-numbers-etale"), str(fault)])
    assert result.exit_code == 1
    assert [r.case for r in result.reports] == [
        "dual-numbers-etale", "infinite-square"]
    assert result.reports[0].ok()
    out = [c for c in result.reports[1].checks if c.name == check]
    assert len(out) == 1 and not out[0].ok and out[0].detail
    if check == "lemma-local":
        assert out[0].detail == (
            "no component data: a fiber of X is not a finite point set")


NAME_CLASH = """\
case "name-clash"
field p = 5
algebra A : vars y0, y_0 ; rels y0, y_0
scheme X : vars y ; rels y - 1
checks theorem, adjunction(1, 2), lemma-local
"""


def test_restricted_names_avoid_every_base_variable(tmp_path):
    # y0 and y_0 are both base variables, so the coordinate of y needs a
    # longer separator; the case verifies like any other
    clash = tmp_path / "name-clash.case"
    clash.write_text(NAME_CLASH)
    result = run_suite([corpus("dual-numbers-etale"), str(clash)])
    assert result.exit_code == 0 and not result.problems
    assert [r.case for r in result.reports] == [
        "dual-numbers-etale", "name-clash"]
    assert result.reports[1].restriction["vars"] == ["y__0"]
    assert [c.name for c in result.reports[1].checks] == [
        "theorem", "adjunction", "lemma-local"]


def _shifted_section(real):
    """A section solve that adds 1 to every value it solves."""
    def shifted(CK, times_eps, images, ys):
        sol = real(CK, times_eps, images, ys)
        return sol and [[x + 1 for x in a] for a in sol]
    return shifted


def test_certificate_failure_in_a_check_fails_that_check(monkeypatch):
    # a wrong section solve gives the points of algebra_points wrong
    # values, and both of its readers fail.  Every component of
    # quadratic-field-cover at stages 1-3 has rank 2, so no section is
    # solved for its adjunction check, which still passes; at its stage
    # N = 4 the components have rank one, so its theorem fails
    monkeypatch.setattr(weilres, "_section", _shifted_section(weilres._section))
    result = run_suite([corpus("dual-numbers-etale"),
                        corpus("quadratic-field-cover")])
    assert result.exit_code == 1 and not result.problems
    dual, quad = result.reports
    why = "certificate failure: a lifted point does not solve X"
    assert [(c.name, c.detail) for c in dual.checks if not c.ok] == [
        ("theorem", why), ("adjunction", why)]
    assert len(dual.checks) == 8
    assert [(c.name, c.detail) for c in quad.checks if not c.ok] == [
        ("theorem", why)]
    assert [c.name for c in quad.checks if c.ok] == [
        "expect S", "expect pi0_res", "expect fibers", "expect cycle_type",
        "adjunction"]


def test_certificate_failure_in_the_components_fails_their_readers(monkeypatch):
    def failing_evaluation_map(*args):
        raise CertificateFailure("the evaluation map is not equivariant")

    monkeypatch.setattr(verify, "evaluation_map", failing_evaluation_map)
    result = run_suite([corpus("dual-numbers-etale")])
    assert result.exit_code == 1 and not result.problems
    (rep,) = result.reports
    assert rep.S is None
    why = "no component data: the evaluation map is not equivariant"
    by_name = {c.name: c for c in rep.checks}
    for name in ("expect S", "theorem", "lemma-local"):
        assert not by_name[name].ok and by_name[name].detail == why
    assert by_name["adjunction"].ok and by_name["cover"].ok


def test_a_non_equivariant_witness_fails_its_readers(monkeypatch):
    # over F_5 the fiber of (y - 1)(y^2 - 2) is a fixed point and a
    # 2-cycle; swapping two images across the orbits keeps a bijection
    text = ('case "swap"\nfield p = 5\nalgebra A : vars eps ; rels eps^2\n'
            'scheme X : vars y ; rels (y - 1)*(y^2 - 2)\n'
            'checks theorem, lemma-local\n')
    real = verify.evaluation_map

    def swapped(R, left, S, prod, N):
        em = real(R, left, S, prod, N)
        small, large = sorted(left.orbits(), key=len)
        assert (len(small), len(large)) == (1, 2)
        a, b = small[0], large[0]
        em.mapping[a], em.mapping[b] = em.mapping[b], em.mapping[a]
        return em

    assert verify_case(parse_case(text)).ok()
    monkeypatch.setattr(verify, "evaluation_map", swapped)
    rep = verify_case(parse_case(text))
    assert rep.psi_witness["equivariant"] is False
    assert rep.psi_witness["bijective"] is True
    assert [(c.name, c.ok, c.detail) for c in rep.checks] == [
        ("theorem", False, "the evaluation witness is not equivariant"),
        ("lemma-local", False, "the evaluation witness is not equivariant")]


def test_misaligned_canonical_orbits_fail_the_theorem(monkeypatch):
    # the same fixed point and 2-cycle: pairing the right side's orbits in
    # the reverse order pairs orbits of different sizes
    text = ('case "swap"\nfield p = 5\nalgebra A : vars eps ; rels eps^2\n'
            'scheme X : vars y ; rels (y - 1)*(y^2 - 2)\n'
            'checks theorem, lemma-local\n')
    real = GammaSet.canonical_orbits

    def misaligned(G):
        # the right side's elements are points whose coordinates are points
        out = real(G)
        return out[::-1] if isinstance(G.elements[0].coords[0], GeometricPoint) else out
    monkeypatch.setattr(GammaSet, "canonical_orbits", misaligned)
    rep = verify_case(parse_case(text))
    assert [(c.name, c.ok, c.detail) for c in rep.checks] == [
        ("theorem", False,
         "certificate failure: paired canonical orbits differ in size"),
        ("lemma-local", True, rep.checks[1].detail)]


def test_a_non_annihilating_obstruction_fails_its_readers(monkeypatch):
    # y^2 = eps over the dual numbers is not etale; a kernel vector that
    # does not annihilate the determinant must not pass as its obstruction
    text = ('case "root-of-eps"\nfield p = 5\nalgebra A : vars eps ; rels eps^2\n'
            'scheme X : vars y ; rels y^2 - eps\nchecks theorem, non-smooth\n')
    case = parse_case(text)
    # the solve of the inverse reads the kernel off [M | 1], the one call
    # with fewer columns than the rows have
    real = exactfield._Packed.null_vectors
    monkeypatch.setattr(exactfield._Packed, "null_vectors", lambda self, rows, width: (
        [[1] + [0] * (width - 1)] if width < len(rows[0]) else real(self, rows, width)))
    why = ("certificate failure: the obstruction is not a nonzero annihilator "
           "of the determinant")
    assert [(c.name, c.ok, c.detail) for c in verify_case(case).checks] == [
        ("theorem", False, why), ("non-smooth", False, why)]


def _dropped_first_section(real):
    """A section solve that drops one rank-one component, the first it
    sees over each C tensor K, at every call."""
    first = {}

    def dropping(CK, times_eps, images, ys):
        sol = real(CK, times_eps, images, ys)
        if sol is not None and first.setdefault(CK.field, times_eps) == times_eps:
            return None
        return sol
    return dropping


def _merged_components(real):
    """Local idempotents with the first two merged into one; A tensor K is
    local in the case below, so only C tensor K has two to merge."""
    def merging(A):
        out = real(A)
        return [out[0] + out[1]] + out[2:] if len(out) > 1 else out
    return merging


@pytest.mark.parametrize("corrupt, theorem, adjunction", [
    (("_section", _shifted_section),
     "certificate failure: a lifted point does not solve X",
     "certificate failure: a lifted point does not solve X"),
    (("_section", _dropped_first_section),
     "per-factor count 1 disagrees with the direct count 2",
     "stage 1: 2 = 1; stage 2: 2 = 1; stage 3: 2 = 1"),
    (("_local_idempotents", _merged_components),
     "per-factor count 0 disagrees with the direct count 2",
     "stage 1: 2 = 0; stage 2: 2 = 0; stage 3: 2 = 0"),
], ids=["wrong-section", "dropped-component", "merged-idempotents"])
def test_corrupted_adjunction_route_fails_the_check(monkeypatch, corrupt, theorem,
                                                    adjunction):
    # a wrong section value, a rank-one component left out, or two
    # components read as one must fail both readers of the route, the
    # adjunction check and the theorem's per-factor count: the first by
    # the certificate, the others by unequal counts
    name, mutant = corrupt
    monkeypatch.setattr(weilres, name, mutant(getattr(weilres, name)))
    rep = verify_case(parse_case(DUAL))
    failed = [(c.name, c.detail) for c in rep.checks if not c.ok]
    assert failed == [("theorem", theorem), ("adjunction", adjunction)]
    assert len(rep.checks) == 6


SOLVER_FAULTS = {
    "duplicates": ("real(B, K) + real(B, K)[:1]",
                   "3 point(s) solved, but the reduced algebra has dimension 2"),
    "drops": ("real(B, K)[1:]",
              "1 point(s) solved, but the reduced algebra has dimension 2"),
    "stage-below": ("real(B, stage_field(K.p, K.degree - 1))",
                    "0 point(s) solved, but the reduced algebra has dimension 2"),
}


@pytest.mark.parametrize("fault", sorted(SOLVER_FAULTS))
def test_a_solver_that_miscounts_points_fails_the_component_checks(fault):
    # the base of quadratic-field-cover is one 2-cycle, rational at stage
    # N = 4: a repeated point, a dropped one, or the points of stage
    # N - 1 miscount the reduced algebra, and every reader of the
    # component data fails, also under `python -O`
    corrupt, reason = SOLVER_FAULTS[fault]
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from resweil import gammaset, stage_field\n"
        "from resweil.versuite import parse_case, verify_case\n"
        "real = gammaset.zero_dim_solve\n"
        "gammaset.zero_dim_solve = lambda B, K: %s\n"
        "rep = verify_case(parse_case(Path(sys.argv[1]).read_text()))\n"
        "for c in rep.checks:\n"
        "    print(c.name, c.ok, c.detail, sep='|')\n" % corrupt)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-O", "-c", script, corpus("quadratic-field-cover")],
        capture_output=True, env=env, text=True)
    assert done.returncode == 0, done.stderr
    rows = [line.split("|") for line in done.stdout.splitlines()]
    assert [(name, why) for name, ok, why in rows if ok == "False"] == [
        (name, "no component data: " + reason) for name in (
            "expect S", "expect pi0_res", "expect fibers", "expect cycle_type",
            "theorem")]
    assert [name for name, ok, _ in rows if ok == "True"] == ["adjunction"]


def test_an_unknown_check_is_an_input_error_under_optimized_mode():
    # the case language rejects unknown check names, so a Case built in
    # Python carries one here; the CLI must still report it and exit 2
    script = (
        "import sys\n"
        "from resweil.versuite import cli, suite\n"
        "real = suite.parse_case\n"
        "def with_unknown_check(text):\n"
        "    case = real(text)\n"
        "    case.checks = case.checks + (('bogus',),)\n"
        "    return case\n"
        "suite.parse_case = with_unknown_check\n"
        "print('exit', cli.main(['verify', sys.argv[1]]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-O", "-c", script, corpus("quadratic-field-cover")],
        capture_output=True, env=env, text=True)
    assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
    assert done.stdout.splitlines()[-1] == "exit 2"
    assert "unknown check ('bogus',)" in done.stdout + done.stderr


def test_a_failed_basis_recombination_is_reported_and_the_run_goes_on():
    # the first basis weil_restrict reads comes back reversed, so the
    # coordinate relations of dual-numbers-etale do not recombine into its
    # expansion; under `python -O` that must still fail, for that case only
    script = (
        "import sys\n"
        "from resweil import AlgebraPresentation\n"
        "from resweil.versuite import run_suite\n"
        "real = AlgebraPresentation.basis_elements\n"
        "calls = []\n"
        "def reversed_once(self):\n"
        "    calls.append(self)\n"
        "    out = real(self)\n"
        "    return out[::-1] if len(calls) == 1 else out\n"
        "AlgebraPresentation.basis_elements = reversed_once\n"
        "result = run_suite(sys.argv[1:])\n"
        "for path, kind, message in result.problems:\n"
        "    print('problem', path, kind, message, sep='|')\n"
        "for rep in result.reports:\n"
        "    print('report', rep.case, rep.ok(), sep='|')\n"
        "print('exit', result.exit_code, sep='|')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    dual, quad = corpus("dual-numbers-etale"), corpus("quadratic-field-cover")
    done = subprocess.run([sys.executable, "-O", "-c", script, quad, dual],
                          capture_output=True, env=env, text=True)
    assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
    assert [line.split("|") for line in done.stdout.splitlines()] == [
        ["problem", dual, "input", "basis recombination failed"],
        ["report", "quadratic-field-cover", "True"],
        ["exit", "2"]]


ZERO_RING = """\
case "zero-ring"
field p = 5
algebra A : vars t ; rels t, t - 1
scheme X : vars y ; rels y
checks theorem
"""


def test_zero_ring_base_is_reported_and_the_run_goes_on(tmp_path):
    fault = tmp_path / "zero-ring.case"
    fault.write_text(ZERO_RING)
    result = run_suite([str(fault), corpus("dual-numbers-etale")])
    assert result.exit_code == 2
    assert [r.case for r in result.reports] == ["dual-numbers-etale"]
    ((path, kind, message),) = result.problems
    assert path == str(fault) and kind == "input" and "zero ring" in message


def test_corrupted_file_exits_2(tmp_path):
    broken = tmp_path / "broken.case"
    broken.write_text('case "broken"\nfield p = \n')
    result = run_suite([str(broken), corpus("dual-numbers-etale")])
    assert result.exit_code == 2
    assert [r.case for r in result.reports] == ["dual-numbers-etale"]
    (path, kind, message) = result.problems[0]
    assert kind == "input" and "line 2" in message


def test_missing_file_exits_2(tmp_path):
    result = run_suite([str(tmp_path / "nope.case")])
    assert result.exit_code == 2
    assert result.problems[0][1] == "input"


def test_guard_stop_exits_3(monkeypatch):
    monkeypatch.setattr(weilres, "SEARCH_GUARD", 3)
    result = run_suite([corpus("quadratic-field-cover")])
    assert result.exit_code == 3
    assert result.problems[0][1] == "guard"
    assert result.problems[0][2] == (
        "zero_dim_solve: 8 root combinations exceed the budget 3")
    assert not result.reports


def test_input_error_outranks_guard(tmp_path, monkeypatch):
    monkeypatch.setattr(weilres, "SEARCH_GUARD", 3)
    broken = tmp_path / "broken.case"
    broken.write_text("????")
    result = run_suite([str(broken), corpus("quadratic-field-cover")])
    assert result.exit_code == 2


# ------------------------------------------------------------------- CLI

def test_cli_restrict(capsys):
    assert main(["restrict", corpus("dual-numbers-etale")]) == 0
    out = capsys.readouterr().out
    assert "variables: y0 y1" in out
    assert "groebner:" in out
    assert "empty: no" in out


def test_cli_pi0(capsys):
    assert main(["pi0", corpus("dual-numbers-etale")]) == 0
    out = capsys.readouterr().out
    assert "components: 2" in out
    assert "cycle type: (1, 1)" in out


def test_cli_pi0_computes_only_what_it_prints(monkeypatch, capsys):
    # the stage and the left component set: no fiber, product set or
    # evaluation witness
    calls = []
    for real in (gammaset.fiber, gammaset.product_gamma_set, gammaset.evaluation_map):
        _noting_calls(monkeypatch, real, lambda *args, name=real.__name__: calls.append(name))
    for path in sorted(CASES.glob("*.case")):
        assert main(["pi0", str(path)]) == 0
    assert "components:" in capsys.readouterr().out
    assert calls == []


def test_cli_points_at_stages(capsys):
    assert main(["points", corpus("quadratic-field-cover"), "--ext", "4"]) == 0
    assert "points: 4" in capsys.readouterr().out
    assert main(["points", corpus("quadratic-field-cover")]) == 0
    assert "points: 0" in capsys.readouterr().out


@pytest.mark.parametrize("ext", [0, 25])
def test_cli_points_out_of_range_stage_is_an_input_error(ext, capsys):
    # a stage is user input: outside 1..24 it exits 2, not with a guard stop
    assert main(["points", corpus("quadratic-field-cover"), "--ext", str(ext)]) == 2
    assert capsys.readouterr().err == "resweil: --ext must be in 1..24\n"


def test_a_stage_past_the_degree_limit_names_its_layer(tmp_path, capsys):
    # the least stage of this case is lcm(5, 7) = 35, past the 24 any
    # stage may reach: a guard stop that names the layer that ran out
    path = tmp_path / "stage-35.case"
    path.write_text('case "stage-35"\nfield p = 3\n'
                    'algebra A : vars t ; rels (t^5 + 2*t + 1)*(t^7 + 2*t^2 + 1)\n'
                    'scheme X : vars y ; rels y - t\nchecks theorem\n')
    assert main(["verify", str(path)]) == 3
    assert capsys.readouterr().err == (
        "resweil: %s: guard error: make_ext_field: extension degree m = 35 "
        "outside 1..24\n" % path)


@pytest.mark.parametrize("tier, code", [("probes", 0), ("routes", 1)])
def test_probe_and_route_reports_match_their_goldens(tier, code, capsys):
    # the probes pass; the infinite route case fails its theorem check
    data = Path(__file__).resolve().parent / "data" / tier
    files = sorted(str(p) for p in data.glob("*.case"))
    assert main(["verify", "--json", "--seed", "42"] + files) == code
    assert capsys.readouterr().out == (data / "report-seed42.json").read_text()
    if tier == "routes":
        assert main(["points", str(data / "route-infinite.case"), "--ext", "1"]) == 0
        assert capsys.readouterr().out == (data / "route-infinite-ext1.txt").read_text()


def test_cli_verify_human(capsys):
    rc = main(["verify", corpus("dual-numbers-etale"),
               corpus("nilpotent-collapse")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "case dual-numbers-etale: pass" in out
    assert "case nilpotent-collapse: pass" in out
    assert "[ok ] theorem:" in out


def test_cli_verify_json_is_deterministic(capsys):
    files = [corpus("dual-numbers-etale"), corpus("nilpotent-collapse"),
             corpus("norm-one-pair")]
    assert main(["verify", "--json", "--seed", "42"] + files) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--json", "--seed", "42"] + files) == 0
    second = capsys.readouterr().out
    assert first == second
    reports = json.loads(first)
    assert [r["case"] for r in reports] == [
        "dual-numbers-etale", "nilpotent-collapse", "norm-one-pair"]
    assert all(r["seed"] == 42 for r in reports)
    assert all(r["timings_ms"] is None for r in reports)


def test_cli_exit_codes(tmp_path, capsys):
    broken = tmp_path / "broken.case"
    broken.write_text('case "broken"\n?')
    assert main(["verify", str(broken)]) == 2
    assert "input error" in capsys.readouterr().err

    wrong = tmp_path / "wrong.case"
    wrong.write_text(DUAL.replace("expect S = 1", "expect S = 3"))
    assert main(["verify", str(wrong)]) == 1
    capsys.readouterr()

    assert main(["restrict", str(tmp_path / "absent.case")]) == 2
    assert main(["pi0", str(broken)]) == 2
    capsys.readouterr()


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2


def test_cli_report_is_the_same_on_a_second_run_in_one_process():
    # the second run reads root sets and certificates the first one kept
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    files = sorted(str(p) for p in CASES.glob("*.case"))
    script = ("import sys\n"
              "from resweil.versuite.cli import main\n"
              "for _ in range(2):\n"
              "    if main(['verify', '--json', '--seed', '42'] + sys.argv[1:]):\n"
              "        sys.exit(1)\n")
    done = subprocess.run([sys.executable, "-c", script] + files,
                          capture_output=True, env=env)
    assert done.returncode == 0, done.stderr
    golden = (ROOT / "tests" / "data" / "corpus-report-seed42.json").read_bytes()
    assert done.stdout == golden + golden


def test_cli_report_survives_optimized_mode():
    # `python -O` strips every assert, so the verdicts must rest on raises
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    files = sorted(str(p) for p in CASES.glob("*.case"))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "resweil.versuite.cli", "verify", "--json",
         "--seed", "42"] + files, capture_output=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (ROOT / "tests" / "data"
                           / "corpus-report-seed42.json").read_bytes()
