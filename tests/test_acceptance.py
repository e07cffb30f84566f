"""End-to-end guarantees of the package, one test per shipped promise.

Each test prints a single criterion line that bypasses pytest capture,
so a plain run shows exactly which promises held.
"""

import contextlib
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from resweil import (
    MPoly,
    SchemePresentation,
    UniPoly,
    decompose_local,
    enumerate_points,
    factor_univariate,
    pi0_points,
    reduction_map,
    stage_field,
    tensor_extend,
    weil_restrict,
)
from resweil.exactfield import frobenius
from resweil.multipoly import normal_form
from resweil.weilres import adjunction_check, product_formula_check
from resweil.versuite import ambient_degree, parse_case, verify_case
from shared import _is_irreducible

CASES = Path(__file__).resolve().parent.parent / "cases"
GOLDEN_REPORT = (Path(__file__).resolve().parent / "data"
                 / "corpus-report-seed42.json")
ALL_NAMES = sorted(p.stem for p in CASES.glob("*.case"))

_parsed = {}
_restricted = {}


def load(name):
    if name not in _parsed:
        _parsed[name] = parse_case((CASES / (name + ".case")).read_text())
    return _parsed[name]


def restriction(name):
    if name not in _restricted:
        case = load(name)
        _restricted[name] = weil_restrict(case.algebra, case.scheme)
    return _restricted[name]


@pytest.fixture
def criterion(capsys):
    @contextlib.contextmanager
    def run(num, desc):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print("\ncriterion %d (%s): %s"
                      % (num, desc, "PASS" if ok else "FAIL"))
    return run


def test_01_corpus_breadth(criterion):
    """Twelve or more verified cases across the six base families."""
    with criterion(1, "verified corpus spans the base families"):
        families = set()
        chars = set()
        theorem_cases = []
        for name in ALL_NAMES:
            case = load(name)
            if ("theorem",) not in case.checks:
                continue
            started = time.perf_counter()
            rep = verify_case(case)
            elapsed = time.perf_counter() - started
            assert rep.ok(), "%s: %s" % (
                name, [(c.name, c.detail) for c in rep.checks if not c.ok])
            assert elapsed < 10.0, "%s took %.1fs" % (name, elapsed)
            theorem_cases.append(name)
            chars.add(case.p)
            A = case.algebra
            degrees = tuple(sorted(
                f.residue_degree for f in decompose_local(A)))
            families.add((A.dimension, degrees, A.nilradical_dimension()))
        assert len(theorem_cases) >= 12
        assert chars == {3, 5, 7}
        assert families == {
            (2, (2,), 0),      # quadratic field stage
            (2, (1,), 1),      # square-zero thickening of the base point
            (2, (1, 1), 0),    # split pair of points
            (3, (1, 1, 1), 0), # three split points
            (3, (1, 1), 1),    # thickened point next to a reduced one
            (4, (2,), 2),      # thickened quadratic stage
        }


def test_02_collapsed_restriction_is_unit_ideal(criterion):
    with criterion(2, "collapsed case reduces to the unit ideal"):
        R = restriction("nilpotent-collapse")
        assert [str(g) for g in R.groebner.polys] == ["1"]
        assert R.is_empty()


def test_03_negative_control_fails_for_the_right_reason(criterion):
    with criterion(3, "negative control fails as recorded"):
        # a fresh parse: the shared one must keep its recorded checks
        case = parse_case((CASES / "nilpotent-collapse.case").read_text())
        case.checks += (("theorem",),)
        rep = verify_case(case)
        thm = [c for c in rep.checks if c.name == "theorem"]
        assert len(thm) == 1 and not thm[0].ok
        assert "precheck" in thm[0].detail
        assert rep.pi0_left["count"] == 0
        assert rep.pi0_right["count"] == 1
        smooth = [c for c in rep.checks if c.name == "non-smooth"]
        assert smooth and smooth[0].ok


def test_04_points_match_over_every_extension(criterion):
    """Restriction points over a stage match points over the extended base."""
    with criterion(4, "restriction points match extended-base points"):
        for name in ALL_NAMES:
            case = load(name)
            R = restriction(name)
            for m in (1, 2, 3):
                cert = adjunction_check(R, stage_field(case.p, m))
                assert cert.ok, (name, m)
                assert len(cert.pairs) == len(cert.left_points)
                assert len(cert.pairs) == len(cert.right_points)
                assert [p[0] for p in cert.pairs] == cert.left_points
                rights = sorted(map(str, (p[1] for p in cert.pairs)))
                assert rights == sorted(map(str, cert.right_points)), (name, m)


def test_05_product_bases_restrict_factorwise(criterion):
    with criterion(5, "product bases restrict factorwise"):
        checked = 0
        for name in ALL_NAMES:
            case = load(name)
            if case.product is None:
                continue
            cert = product_formula_check(case.product, case.scheme)
            assert cert.ok and cert.ideal_match, name
            assert [c[0] for c in cert.counts] == [1, 2, 3]
            for stage, total, first, second in cert.counts:
                assert total == first * second, (name, stage)
            checked += 1
        assert checked == 2


def test_06_local_bases_reduce_to_the_special_fiber(criterion):
    with criterion(6, "local bases reduce to their special fiber"):
        # rational residue: evaluate straight at the closed point
        for name in ("cubic-dual-lift", "dual-numbers-etale",
                     "dual-shift-pair"):
            case = load(name)
            R = restriction(name)
            N = ambient_degree(case.algebra, case.scheme, R)
            em = reduction_map(R, N)
            assert em.is_bijective(), name

        # larger residue: split the base first, then reduce each piece
        for name in ("cubic-field-pair", "norm-one-pair",
                     "quadratic-field-cover", "quartic-tower",
                     "tensor-mixed-base"):
            case = load(name)
            A, X = case.algebra, case.scheme
            (factor,) = decompose_local(A)
            assert factor.residue_degree > 1, name
            Kf = stage_field(case.p, factor.residue_degree)
            parts = decompose_local(tensor_extend(A, Kf))
            assert len(parts) == factor.residue_degree
            assert all(p.residue_degree == 1 for p in parts)
            N = ambient_degree(A, X, restriction(name))
            for part in parts:
                Bf = part.presentation
                rels = [r.map_coefficients(Kf) for r in X.relations]
                Rf = weil_restrict(Bf, SchemePresentation(Bf, X.vars, rels))
                em = reduction_map(Rf, N)
                assert em.is_bijective(), name

        # the collapsed case reduces too, but onto a larger target
        R = restriction("nilpotent-collapse")
        em = reduction_map(R, 1)
        assert not em.is_bijective()
        assert len(em.source.elements) == 0
        assert len(em.target.elements) == 1


def test_07_symbolic_components_match_exhaustion(criterion):
    with criterion(7, "symbolic solutions match exhaustive search"):
        checked = 0
        for name in ALL_NAMES:
            case = load(name)
            R = restriction(name)
            N = ambient_degree(case.algebra, case.scheme, R)
            space = (case.p ** N) ** len(R.vars)
            if space > 10 ** 6:
                continue
            K = stage_field(case.p, N)
            left = pi0_points(R.quotient, N)
            assert left.period == N
            symbolic = {el.label(): left.perm[el].label()
                        for el in left.elements}
            brute = {}
            for pt in enumerate_points(R.base_field, R.vars, R.relations, K):
                image = tuple(c ** case.p for c in pt)
                brute[tuple(c.label() for c in pt)] = tuple(
                    c.label() for c in image)
            assert brute == symbolic, name
            checked += 1
        assert checked >= 12


def test_08_serialized_reports_are_byte_stable(criterion):
    with criterion(8, "serialized verification output is byte-stable"):
        exe = shutil.which("resweil")
        if exe:
            base = [exe]
        else:
            base = [sys.executable, "-m", "resweil.versuite.cli"]
        files = sorted(str(p) for p in CASES.glob("*.case"))
        cmd = base + ["verify", "--json", "--seed", "42"] + files
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        # the committed report pins the serialized contract across changes
        assert first.stdout == GOLDEN_REPORT.read_bytes()
        reports = json.loads(first.stdout)
        assert len(reports) == 15
        assert all(r["seed"] == 42 for r in reports)


def _random_poly(rng, field, ctx, gens):
    f = MPoly.zero(field, ctx)
    for _ in range(rng.randrange(1, 5)):
        term = MPoly.constant(field, ctx, rng.randrange(1, field.p))
        for g in gens:
            term = term * g ** rng.randrange(0, 4)
        f = f + term
    return f


def test_09_randomized_algebra_laws(criterion):
    with criterion(9, "randomized algebra laws hold"):
        rng = random.Random(1139)

        # reduction is a projection and linear over the base
        bases = [restriction("quadratic-field-cover").groebner,
                 restriction("dual-numbers-etale").groebner]
        contexts = []
        for gb in bases:
            gens = [MPoly.variable(gb.field, gb.vars, v) for v in gb.vars]
            contexts.append((gb, gens))
        for trial in range(1000):
            gb, gens = contexts[trial % 2]
            f = _random_poly(rng, gb.field, gb.vars, gens)
            g = _random_poly(rng, gb.field, gb.vars, gens)
            c = rng.randrange(1, gb.field.p)
            nf = normal_form(f, gb)
            assert normal_form(nf, gb) == nf
            assert normal_form(f + g, gb) == nf + normal_form(g, gb)
            assert normal_form(f * c, gb) == nf * c

        # factoring rebuilds the input from monic irreducible parts
        stages = [stage_field(p, n) for p in (3, 5, 7) for n in (1, 2)]
        elements = {i: list(K) for i, K in enumerate(stages)}
        for trial in range(1000):
            K = stages[trial % 6]
            els = elements[trial % 6]
            degree = rng.randrange(1, 7)
            coeffs = [els[rng.randrange(len(els))] for _ in range(degree)]
            coeffs.append(els[rng.randrange(1, len(els))])
            f = UniPoly(K, coeffs)
            unit, parts = factor_univariate(f, random.Random(trial))
            rebuilt = UniPoly(K, [unit])
            for g, mult in parts:
                assert g.coeffs[-1] == K.one
                assert _is_irreducible(g)
                for _ in range(mult):
                    rebuilt = rebuilt * g
            assert rebuilt == f

        # the power map respects sums, products, and closes up
        towers = [stage_field(p, n) for p in (3, 5, 7) for n in (1, 2, 3, 4)]
        tower_els = {i: list(K) for i, K in enumerate(towers)}
        for trial in range(1000):
            K = towers[trial % 12]
            els = tower_els[trial % 12]
            a = els[rng.randrange(len(els))]
            b = els[rng.randrange(len(els))]
            assert frobenius(a + b) == frobenius(a) + frobenius(b)
            assert frobenius(a * b) == frobenius(a) * frobenius(b)
            y = a
            for _ in range(K.degree):
                y = frobenius(y)
            assert y == a
