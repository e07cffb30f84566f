import heapq
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from resweil import finalg, multipoly, weil_restrict, weilres
from resweil.finalg import decompose_local, tensor_extend
from resweil.errors import MixedContexts, StepGuardExceeded
from resweil.exactfield import FieldElement, PrimeField, make_ext_field, stage_field
from resweil.multipoly import (
    INFINITE,
    GroebnerBasis,
    MPoly,
    buchberger,
    drl_key,
    mono_divides,
    mono_lcm,
    mono_mul,
    normal_form,
    standard_monomials,
)
from resweil.versuite import parse_case, verify_case
from resweil.weilres import zero_dim_solve
from shared import _fiber_rule_presentation

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "cases"
CORPUS = sorted(p.stem for p in CASES.glob("*.case"))


def P(field, variables, termdict):
    return MPoly(field, variables, termdict)


F5 = PrimeField(5)
F7 = PrimeField(7)


def test_drl_order_basics():
    # x > y > z in degrevlex for equal names order (x, y, z)
    x = (1, 0, 0)
    y = (0, 1, 0)
    z = (0, 0, 1)
    assert drl_key(x) > drl_key(y) > drl_key(z)
    # x*z vs y^2: same degree, last nonzero of difference (1,-2,1) is positive -> x*z smaller
    assert drl_key((0, 2, 0)) > drl_key((1, 0, 1))


def test_arithmetic_round_trip():
    vars_ = ("x", "y")
    f = P(F5, vars_, {(2, 0): 1, (0, 1): 3})
    g = P(F5, vars_, {(1, 1): 2, (0, 0): 4})
    assert (f + g) - g == f
    assert f * g == g * f
    assert (f - f).is_zero()
    assert f * P(F5, vars_, {(0, 0): 1}) == f
    h = f ** 3
    assert h == f * f * f


def test_mixed_contexts_rejected():
    f = P(F5, ("x",), {(1,): 1})
    g = P(F5, ("y",), {(1,): 1})
    with pytest.raises(MixedContexts):
        f + g
    h = P(F7, ("x",), {(1,): 1})
    with pytest.raises(MixedContexts):
        f * h


def test_normal_form_examples():
    # y^3 against {y^2 - 2} reduces to 2*y
    f = P(F5, ("y",), {(3,): 1})
    g = P(F5, ("y",), {(2,): 1, (0,): -2})
    assert normal_form(f, [g]) == P(F5, ("y",), {(1,): 2})
    # members reduce to zero
    assert normal_form(g * P(F5, ("y",), {(5,): 3}), [g]).is_zero()


def test_normal_form_idempotent_and_linear():
    rng = random.Random(2)
    vars_ = ("x", "y")
    g1 = P(F5, vars_, {(2, 0): 1, (0, 0): -2})
    g2 = P(F5, vars_, {(0, 2): 1, (1, 0): -1})
    gb = buchberger([g1, g2])
    for _ in range(60):
        f = P(F5, vars_, {(rng.randrange(4), rng.randrange(4)): rng.randrange(5)
                          for _ in range(4)})
        h = P(F5, vars_, {(rng.randrange(4), rng.randrange(4)): rng.randrange(5)
                          for _ in range(4)})
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf
        assert normal_form(f + h, gb) == normal_form(nf + normal_form(h, gb), gb)


def test_buchberger_unit_ideal():
    x = P(F5, ("x",), {(1,): 1})
    gb = buchberger([x, x - 1])
    assert gb.is_unit_ideal()
    assert standard_monomials(gb) == []


def test_buchberger_single_generator():
    g = P(F5, ("y",), {(2,): 1, (0,): -2})
    gb = buchberger([g])
    assert list(gb) == [g]
    assert standard_monomials(gb) == [(0,), (1,)]


def test_buchberger_worked_example():
    # the restriction system of a split double cover over the dual numbers
    vars_ = ("y0", "y1")
    g1 = P(F7, vars_, {(2, 0): 1, (1, 0): -1})            # y0^2 - y0
    g2 = P(F7, vars_, {(1, 1): 2, (0, 1): -1, (0, 0): -1})  # 2 y0 y1 - y1 - 1
    gb = buchberger([g1, g2])
    sm = standard_monomials(gb)
    assert len(sm) == 2
    # frozen reduced basis, computed by hand: { y0 + 3 y1 + 3, y1^2 - 1 }
    expect = [
        P(F7, vars_, {(1, 0): 1, (0, 1): 3, (0, 0): 3}),
        P(F7, vars_, {(0, 2): 1, (0, 0): -1}),
    ]
    assert sorted(gb.polys, key=lambda g: drl_key(g.leading_monomial())) == \
        sorted(expect, key=lambda g: drl_key(g.leading_monomial()))
    # oracle: the two common zeros over F_7 survive reduction
    for y0, y1 in ((0, 6), (1, 1)):
        vals = {"y0": F7.from_int(y0), "y1": F7.from_int(y1)}
        for g in gb:
            assert g.evaluate(vals).is_zero()


def _order_independent_gens():
    vars_ = ("x", "y", "z")
    return [
        P(F5, vars_, {(2, 0, 0): 1, (0, 1, 0): -1}),
        P(F5, vars_, {(0, 2, 0): 1, (0, 0, 1): -1}),
        P(F5, vars_, {(0, 0, 2): 1, (1, 0, 0): -1}),
        P(F5, vars_, {(1, 1, 1): 1, (0, 0, 0): -1}),
    ]


def test_buchberger_order_independent():
    gens = _order_independent_gens()
    reference = buchberger(gens)
    rng = random.Random(9)
    for _ in range(20):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        scaled = [g * F5.from_int(rng.randrange(1, 5)) for g in shuffled]
        assert buchberger(scaled) == reference


def test_step_guard(monkeypatch):
    gens = _order_independent_gens()
    monkeypatch.setattr(multipoly, "DEFAULT_STEP_BUDGET", 1)
    with pytest.raises(StepGuardExceeded, match="^buchberger: "):
        buchberger(gens)


# The shape of the benchmark's `groebner-scale` cases over F_3[t]/(t^3):
# its restriction has six coordinates and a reduced basis of nine members.
T3_CASE = """\
case "t3-scale"
field p = 3
algebra A : vars t ; rels t^3
scheme X : vars y, z ; rels y^2 - 2 - 1*t, z^2 - 1 - 2*t*y
checks theorem
"""

# Its reduced basis, printed by the resorting pair loop that the pair heap
# and the chain criterion replaced.
T3_BASIS = [
    "z0 + 2*z1 + z2", "y1 + 2*y2", "y0 + 2*y2", "z2^2 + 2*y2",
    "z1*z2 + y2 + 1", "y2*z2 + 2*z1 + 2*z2", "z1^2 + 1",
    "y2*z1 + z1 + 2*z2", "y2^2 + 1",
]


def _restricted_relations(text):
    case = parse_case(text)
    return weil_restrict(case.algebra, case.scheme).relations


def test_pair_loop_is_cheap_on_a_scale_restriction(monkeypatch):
    relations = _restricted_relations(T3_CASE)
    calls = {"leading_monomial": 0, "s_polynomial": 0}
    leading_monomial = MPoly.leading_monomial
    s_polynomial = multipoly.s_polynomial

    def counting_leading_monomial(self):
        calls["leading_monomial"] += 1
        return leading_monomial(self)

    def counting_s_polynomial(f, g):
        calls["s_polynomial"] += 1
        return s_polynomial(f, g)

    monkeypatch.setattr(MPoly, "leading_monomial", counting_leading_monomial)
    monkeypatch.setattr(multipoly, "s_polynomial", counting_s_polynomial)
    buchberger(relations)
    # the resorting loop made 47,190 and 86 of these calls; the chain
    # criterion alone left 52 S-polynomials to reduce
    assert calls["leading_monomial"] < 5000
    assert calls["s_polynomial"] <= 40


def _assert_reduced_groebner_basis(gens, gb):
    members = list(gb)
    assert members
    for g in gens:
        assert normal_form(g, gb).is_zero()
    # Buchberger's criterion, by brute force over every pair
    for f, g in itertools.combinations(members, 2):
        assert normal_form(multipoly.s_polynomial(f, g), members).is_zero()
    lms = gb.leading_monomials()
    for k, g in enumerate(members):
        assert g.terms[g.leading_monomial()] == g.field.one
        others = lms[:k] + lms[k + 1:]
        assert not any(multipoly.mono_divides(lm, mono)
                       for mono in g.terms for lm in others)


@pytest.mark.parametrize("source", [
    "t3-scale", "order-independent", "tensor-mixed-base", "mixed-local-artin"])
def test_pair_criteria_keep_a_reduced_groebner_basis(source):
    if source == "t3-scale":
        gens = _restricted_relations(T3_CASE)
    elif source == "order-independent":
        gens = _order_independent_gens()
    else:
        gens = _restricted_relations((CASES / (source + ".case")).read_text())
    gb = buchberger(gens)
    _assert_reduced_groebner_basis(gens, gb)
    if source == "t3-scale":
        assert [str(g) for g in gb] == T3_BASIS


def test_pair_criteria_on_seeded_random_ideals():
    # small dense systems in three variables meet many more chains of
    # pairs with a shared divisor than the restrictions above
    vars_ = ("x", "y", "z")
    for seed in range(30):
        rng = random.Random(seed)
        gens = [P(F5, vars_, {tuple(rng.randrange(3) for _ in vars_): rng.randrange(1, 5)
                              for _ in range(rng.randrange(2, 4))})
                for _ in range(rng.randrange(2, 5))]
        _assert_reduced_groebner_basis(gens, buchberger(gens))


@pytest.mark.parametrize("p, m", [(7, 1), (5, 2)])
def test_pair_criteria_on_denser_seeded_random_ideals(p, m):
    # 3-5 generators of 2-4 terms in four variables; bases reach 23
    # members.  Exponents stay below 3 and terms of degree at most 4,
    # which keeps the reference rule's run short.
    field = make_ext_field(p, m) if m > 1 else PrimeField(p)
    vars_ = ("w", "x", "y", "z")
    monos = [e for e in itertools.product(range(3), repeat=4) if sum(e) <= 4]
    for seed in range(30):
        rng = random.Random(seed)
        gens = [P(field, vars_, {rng.choice(monos): field.element(
                    tuple(rng.randrange(p) for _ in range(m)))
                    for _ in range(rng.randrange(2, 5))})
                for _ in range(rng.randrange(3, 6))]
        gens = [g for g in gens if not g.is_zero()]
        gb = buchberger(gens)
        _assert_reduced_groebner_basis(gens, gb)
        assert list(gb) == _field_element_rule_buchberger(gens)


def test_step_budget_counts_reduced_s_polynomials(monkeypatch):
    gens = _restricted_relations(T3_CASE)
    reduced = []
    s_polynomial = multipoly.s_polynomial

    def counting_s_polynomial(f, g):
        reduced.append((f, g))
        return s_polynomial(f, g)

    monkeypatch.setattr(multipoly, "s_polynomial", counting_s_polynomial)
    reference = buchberger(gens)
    steps = len(reduced)
    # a budget of exactly the reductions made is enough, one less is not
    monkeypatch.setattr(multipoly, "DEFAULT_STEP_BUDGET", steps)
    assert buchberger(gens) == reference
    monkeypatch.setattr(multipoly, "DEFAULT_STEP_BUDGET", steps - 1)
    with pytest.raises(StepGuardExceeded, match="budget %d exhausted" % (steps - 1)):
        buchberger(gens)


def test_standard_monomials_infinite():
    gb = buchberger([P(F5, ("x", "y"), {(1, 1): 1})])
    assert standard_monomials(gb) is INFINITE


def test_standard_monomials_zero_variables():
    gb = buchberger([], field=F5, variables=())
    assert standard_monomials(gb) == [()]
    one = MPoly.constant(F5, (), 1)
    assert standard_monomials(buchberger([one])) == []


def test_evaluate_matches_terms():
    f = P(F7, ("x", "y"), {(2, 1): 3, (0, 0): 6})
    vals = {"x": F7.from_int(2), "y": F7.from_int(5)}
    assert f.evaluate(vals) == F7.from_int((3 * 4 * 5 + 6) % 7)


def test_str_is_deterministic():
    f = P(F7, ("y0", "y1"), {(1, 1): 2, (0, 1): 6, (0, 0): 6})
    assert str(f) == "2*y0*y1 + 6*y1 + 6"


def _counting_products(monkeypatch):
    """Record each product of two nonconstant polynomials."""
    products = []
    mul = MPoly.__mul__

    def counted(self, other):
        if isinstance(other, MPoly) and not other.is_constant() \
                and not self.is_constant():
            products.append(1)
        return mul(self, other)

    monkeypatch.setattr(MPoly, "__mul__", counted)
    return products


def test_substitute_expand_builds_consecutive_powers_one_product_each(monkeypatch):
    # the power cache `MPoly.evaluate` reads, `_powers`, on a dense
    # relation of degree 12 in y, y mapped to a two-term image
    vars_ = ("u", "v")
    img = P(F7, vars_, {(1, 0): 1, (0, 1): 3})
    f = P(F7, ("y",), {(e,): 1 for e in range(13)})
    products = _counting_products(monkeypatch)
    cache, = multipoly._powers(f, {"y": img})
    assert len(products) == 11
    monkeypatch.undo()
    power = img
    for e in range(1, 13):
        assert cache[e] == power
        power = power * img


@pytest.mark.parametrize("exponents", [(64,), (63,), (5, 40), (3, 17, 18, 100)])
def test_substitute_expand_sparse_powers_cost_no_more_than_squaring(monkeypatch, exponents):
    # `_powers` for all the exponents at once, and `MPoly.__pow__` for
    # each on its own
    vars_ = ("u", "v")
    img = P(F7, vars_, {(1, 0): 1, (0, 1): 3})
    f = P(F7, ("y",), {(e,): 1 for e in exponents})
    # square-and-multiply from 1: a squaring per bit below the top one and
    # a product per further set bit, for each exponent on its own
    bound = sum(e.bit_length() - 1 + bin(e).count("1") - 1 for e in exponents)
    products = _counting_products(monkeypatch)
    multipoly._powers(f, {"y": img})
    assert len(products) <= bound
    for e in exponents:
        products.clear()
        img ** e
        assert len(products) <= e.bit_length() - 1 + bin(e).count("1") - 1


@pytest.mark.parametrize("p, m", [(5, 1), (7, 3)])
def test_power_of_a_single_term_matches_square_and_multiply(p, m, monkeypatch):
    field = make_ext_field(p, m) if m > 1 else PrimeField(p)
    vars_ = ("x", "y", "z")
    rng = random.Random(p)
    terms = []
    for mono in [(0, 0, 0), (1, 0, 0), (0, 2, 1), (3, 1, 2)]:
        c = field.zero
        while c.is_zero():
            c = field.element(tuple(rng.randrange(p) for _ in range(m)))
        terms.append(P(field, vars_, {mono: c}))
    expected = {(t, e): multipoly._cached_power({1: t}, e)
                for t in terms for e in (1, 2, 7, 64)}
    # a single term never goes through square-and-multiply
    monkeypatch.setattr(multipoly, "_cached_power", None)
    for (t, e), power in expected.items():
        assert t ** e == power


# -- typed errors that survive `python -O` ------------------------------

@pytest.mark.parametrize("statement, error", [
    ("MPoly.zero(F, ('x',)).leading_monomial()", "ZeroPolynomial"),
    ("MPoly.zero(F, ('x',)).monic()", "ZeroPolynomial"),
    ("MPoly.variable(F, ('x',), 'x') ** -1", "ValueError"),
    ("buchberger([])", "MixedContexts"),
], ids=["leading_monomial", "monic", "pow", "buchberger"])
def test_typed_errors_survive_optimized_mode(statement, error):
    script = (
        "from resweil.exactfield import PrimeField\n"
        "from resweil.multipoly import MPoly, buchberger\n"
        "F = PrimeField(5)\n"
        "try:\n"
        "    %s\n"
        "except Exception as e:\n"
        "    print(type(e).__name__)\n" % statement)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, env=env, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == error + "\n"


# -- the FieldElement rule the packed kernel replaced ---------------------

def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _field_element_rule_normal_form(f, basis):
    """Division on FieldElement coefficients, the largest pending
    monomial found by a scan of the work dict."""
    gens = [g for g in basis if not g.is_zero()]
    lms = [g.leading_monomial() for g in gens]
    rem, work = {}, dict(f.terms)
    while work:
        mono = max(work, key=drl_key)
        c = work.pop(mono)
        if c.is_zero():
            continue
        hit = next((i for i, lm in enumerate(lms) if mono_divides(lm, mono)), None)
        if hit is None:
            rem[mono] = c
            continue
        g, lm = gens[hit], lms[hit]
        shift = mono_div(mono, lm)
        scale = c * g.terms[lm].inverse()
        for m2, c2 in g.terms.items():
            if m2 != lm:
                m = mono_mul(shift, m2)
                work[m] = work.get(m, f.field.zero) - scale * c2
    return MPoly(f.field, f.vars, rem)


def _field_element_rule_s_polynomial(f, g):
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = mono_lcm(lf, lg)
    tf = MPoly(f.field, f.vars, {mono_div(lcm, lf): f.terms[lf].inverse()})
    tg = MPoly(g.field, g.vars, {mono_div(lcm, lg): g.terms[lg].inverse()})
    return tf * f - tg * g


def _field_element_rule_buchberger(gens):
    """The reduced basis by the rules above: a pair heap that drops pairs
    by the coprime test and the chain criterion, as `buchberger` did before
    it took Gebauer and Moller's pair update, then the same interreduction."""
    nf = _field_element_rule_normal_form

    def monic(r):
        return r * r.terms[r.leading_monomial()].inverse()

    basis = []
    for g in gens:
        r = nf(g, basis)
        if not r.is_zero():
            basis.append(monic(r))
    lms = [g.leading_monomial() for g in basis]
    heap, pending = [], set()

    def add_pairs(k):
        for t in range(k):
            heapq.heappush(heap, (drl_key(mono_lcm(lms[k], lms[t])), k, t))
            pending.add((k, t))

    for k in range(len(basis)):
        add_pairs(k)
    while heap:
        _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lcm = mono_lcm(lms[i], lms[j])
        if lcm == mono_mul(lms[i], lms[j]) or any(
                k not in (i, j) and mono_divides(lm, lcm)
                and (max(i, k), min(i, k)) not in pending
                and (max(j, k), min(j, k)) not in pending
                for k, lm in enumerate(lms)):
            continue
        r = nf(_field_element_rule_s_polynomial(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(monic(r))
            lms.append(r.leading_monomial())
            add_pairs(len(basis) - 1)
    keep = [i for i, lm in enumerate(lms)
            if not any(j != i and mono_divides(lms[j], lm)
                       and (lms[j] != lm or j < i) for j in range(len(lms)))]
    return [monic(nf(basis[i], [basis[j] for j in keep if j != i]))
            for i in sorted(keep, key=lambda i: drl_key(lms[i]))]


def _probes(gens, gb, rng):
    """Polynomials to take normal forms of: each generator times each
    variable and times another generator, and a few random ones."""
    field, vars_ = gens[0].field, gens[0].vars
    xs = [MPoly.variable(field, vars_, v) for v in vars_]
    out = [g * x for g in gens for x in xs] + [g * h for g, h in zip(gens, gens[1:])]
    top = max(sum(m) for g in gb for m in g.terms) + 1
    for _ in range(3):
        out.append(MPoly(field, vars_, {
            tuple(rng.randrange(top) for _ in vars_):
                field.element(tuple(rng.randrange(field.p) for _ in range(field.degree)))
            for _ in range(6)}))
    return out


def _assert_matches_the_field_element_rule(gens, rng):
    gb = buchberger(gens)
    assert list(gb) == _field_element_rule_buchberger(gens)
    for f in _probes(gens, gb, rng):
        assert normal_form(f, gb) == _field_element_rule_normal_form(f, list(gb))
        assert normal_form(f, gens) == _field_element_rule_normal_form(f, gens)


def _built_generator_lists(name, monkeypatch):
    """The generators of every Groebner basis verify_case builds on a case."""
    seen = {}

    def recording(home):
        inner = home.buchberger

        def record(generators, field=None, variables=None):
            gens = [g for g in generators if not g.is_zero()]
            if gens:
                seen.setdefault((gens[0].field, gens[0].vars, tuple(gens)), gens)
            return inner(generators, field, variables)
        return record

    for home in (finalg, weilres):
        monkeypatch.setattr(home, "buchberger", recording(home))
    verify_case(parse_case((CASES / (name + ".case")).read_text()))
    monkeypatch.undo()
    return list(seen.values())


@pytest.mark.parametrize("name", CORPUS)
def test_groebner_matches_the_field_element_rule_on_the_corpus(name, monkeypatch):
    rng = random.Random(name)
    built = _built_generator_lists(name, monkeypatch)
    assert built
    for gens in built:
        _assert_matches_the_field_element_rule(gens, rng)


SIXTH_STAGE_CASES = ("cubic-field-pair", "quadratic-field-cover", "tensor-mixed-base")


def test_the_corpus_builds_bases_up_to_the_sixth_stage(monkeypatch):
    # verify_case builds bases over the prime stage only; stages 2 and 3
    # are fed in explicitly as the local factors of A tensor K, and the
    # sixth, stage 3 over a residue field of degree 2, as X at a base
    # point over F_{p^6} and X's coordinate ring over F_{p^6}
    degrees = {gens[0].field.degree for name in CORPUS
               for gens in _built_generator_lists(name, monkeypatch)}
    assert degrees == {1}
    rng = random.Random(6)
    factors = {}
    for name in CORPUS:
        A = parse_case((CASES / (name + ".case")).read_text()).algebra
        for m in (2, 3):
            for fac in decompose_local(tensor_extend(A, stage_field(A.field.p, m))):
                gens = fac.presentation.relations
                factors.setdefault((gens[0].field, gens[0].vars, gens), list(gens))
    assert {field.degree for field, _, _ in factors} == {2, 3}
    for gens in factors.values():
        _assert_matches_the_field_element_rule(gens, rng)
    for name in SIXTH_STAGE_CASES:
        X = parse_case((CASES / (name + ".case")).read_text()).scheme
        K = stage_field(X.field.p, 6)
        point = zero_dim_solve(X.base, K)[0]
        fiber = _fiber_rule_presentation(X, point, K).relations
        ring = [r.map_coefficients(K) for r in X.coordinate_ring.relations]
        for gens in (fiber, ring):
            assert gens[0].field.degree == 6
            _assert_matches_the_field_element_rule(list(gens), rng)


def test_groebner_matches_the_field_element_rule_on_the_scale_restriction():
    _assert_matches_the_field_element_rule(_restricted_relations(T3_CASE), random.Random(3))


@pytest.mark.parametrize("p, m", [(5, 1), (5, 2), (7, 3)])
def test_groebner_matches_the_field_element_rule_on_random_ideals(p, m):
    field = make_ext_field(p, m) if m > 1 else PrimeField(p)
    vars_ = ("x", "y", "z")
    for seed in range(30):
        rng = random.Random(seed)

        def coeff():
            return field.element(tuple(rng.randrange(p) for _ in range(m)))
        gens = [P(field, vars_, {tuple(rng.randrange(3) for _ in vars_): coeff()
                                 for _ in range(rng.randrange(2, 4))})
                for _ in range(rng.randrange(2, 5))]
        gens = [g for g in gens if not g.is_zero()] or [P(field, vars_, {(1, 0, 0): 1})]
        _assert_matches_the_field_element_rule(gens, rng)


def test_normal_form_at_the_slot_bound(slot_peaks):
    # 100 members x^i y^(99 - i) - c z^99 all reduce onto z^99, and every
    # slot of c and of f's coefficients is p - 1: the sum on z^99 far
    # exceeds a slot unless it is reduced on the way
    p, n = 2 ** 31 - 1, 99
    K = make_ext_field(p, 3)
    c = K.element((p - 1,) * 3)
    vars_ = ("x", "y", "z")
    members = [P(K, vars_, {(i, n - i, 0): K.one, (0, 0, n): -c}) for i in range(n + 1)]
    f = P(K, vars_, {(i, n - i, 0): c for i in range(n + 1)})
    got = normal_form(f, GroebnerBasis(K, vars_, members))
    assert got == _field_element_rule_normal_form(f, members)
    assert got == P(K, vars_, {(0, 0, n): c * c * K.from_int(n + 1)})
    assert (p, 3) in slot_peaks


def test_normal_form_does_no_field_element_arithmetic(monkeypatch):
    gb = buchberger(_restricted_relations(T3_CASE))
    members = list(gb)
    f = MPoly(gb.field, gb.vars, dict((members[0] * members[-1] * members[3]).terms))
    calls = {"mul": 0, "drl_key": 0}
    mul, key = FieldElement.__mul__, multipoly.drl_key

    def counted_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counted_key(mono):
        calls["drl_key"] += 1
        return key(mono)

    monkeypatch.setattr(FieldElement, "__mul__", counted_mul)
    monkeypatch.setattr(multipoly, "drl_key", counted_key)
    assert normal_form(f, gb).is_zero()
    assert calls == {"mul": 0, "drl_key": 0}
