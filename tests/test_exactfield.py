import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from resweil import exactfield
from resweil.errors import (
    CertificateFailure,
    DegreeGuardExceeded,
    IncompatibleDegrees,
    NonPrime,
    ZeroPolynomial,
)
from resweil.exactfield import (
    ExtField,
    FieldElement,
    PrimeField,
    UniPoly,
    embed,
    factor_univariate,
    frobenius,
    is_irreducible,
    make_ext_field,
    roots_in,
    stage_field,
)

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
ORACLES = BENCH / "oracles.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------- oracles

def oracle_smallest_irreducible_quadratic(p):
    """Enumerate monic quadratics by (c0, c1) lex order, test by root search."""
    for c0 in range(p):
        for c1 in range(p):
            if all((x * x + c1 * x + c0) % p != 0 for x in range(p)):
                return (c0, c1, 1)
    raise AssertionError


def oracle_roots(f, field):
    return [x for x in field if f.evaluate(x).is_zero()]


# ------------------------------------------------------------ construction

def test_prime_field_guards():
    PrimeField(5)
    with pytest.raises(NonPrime):
        PrimeField(4)
    with pytest.raises(NonPrime):
        PrimeField(2)  # characteristic two is outside the supported range
    with pytest.raises(NonPrime):
        PrimeField(2 ** 31 + 11)


def test_make_ext_field_guards():
    with pytest.raises(NonPrime):
        make_ext_field(4, 2)
    with pytest.raises(DegreeGuardExceeded):
        make_ext_field(5, 25)
    with pytest.raises(DegreeGuardExceeded):
        make_ext_field(5, 0)


def test_trivial_stage_modulus_is_x():
    F = make_ext_field(5, 1)
    assert F.degree == 1
    assert F.modulus == (0, 1)


def test_f25_modulus_matches_oracle():
    F = make_ext_field(5, 2)
    assert F.modulus == oracle_smallest_irreducible_quadratic(5)
    # frozen value derived from the oracle
    assert F.modulus == (1, 1, 1)


def test_more_moduli_match_oracle():
    for p in (3, 7, 11):
        F = make_ext_field(p, 2)
        assert F.modulus == oracle_smallest_irreducible_quadratic(p)


def test_field_memoized():
    assert make_ext_field(5, 2) is make_ext_field(5, 2)


@pytest.mark.parametrize("p, degrees", [
    (3, range(2, 7)), (5, range(2, 5)), (7, range(2, 4)), (65521, (2,)),
])
def test_moduli_match_the_plain_int_oracle(p, degrees):
    oracles = _load("bench_oracles", ORACLES)
    for m in degrees:
        assert list(make_ext_field(p, m).modulus) == oracles.ext_modulus(p, m)


def test_search_modulus_raises_without_an_irreducible(monkeypatch):
    monkeypatch.setattr(exactfield, "_zp_is_irreducible", lambda f, p: False)
    with pytest.raises(CertificateFailure):
        exactfield._search_modulus(5, 2)


def test_element_rejects_too_many_coefficients():
    with pytest.raises(IncompatibleDegrees):
        PrimeField(5).element((1, 2))
    with pytest.raises(IncompatibleDegrees):
        make_ext_field(5, 2).element((1, 2, 3))


def test_plain_division_by_zero_raises():
    with pytest.raises(ZeroPolynomial):
        exactfield._pdivmod((1, 2), (), 5)


# -------------------------------------------------------------- arithmetic

def test_prime_field_arithmetic():
    F = PrimeField(7)
    a = F.from_int(3)
    b = F.from_int(5)
    assert (a + b).coeffs == (1,)
    assert (a * b).coeffs == (1,)
    assert (a - b).coeffs == (5,)
    assert (a / b).coeffs == (2,)  # 3 * 5^{-1} = 3 * 3 = 2
    assert (a ** 6).coeffs == (1,)


def test_ext_field_arithmetic_against_modulus():
    F = make_ext_field(5, 2)
    g = F.gen
    # modulus is x^2 + x + 1, so g^2 = -g - 1 = (4, 4)
    assert (g * g).coeffs == (4, 4)
    assert (g ** 3).coeffs == (1, 0)  # cube roots of unity
    rng = random.Random(7)
    for _ in range(200):
        a = F.element((rng.randrange(5), rng.randrange(5)))
        if a.is_zero():
            continue
        assert (a * a.inverse()).coeffs == F.one.coeffs
        assert (a ** F.order) == a


def test_element_label_order_is_lex_on_coeff_vectors():
    F = make_ext_field(3, 2)
    labels = [x.label() for x in F]
    assert labels == sorted(labels)
    assert len(labels) == 9


# ---------------------------------------------------------------- frobenius

def test_frobenius_fixes_prime_field():
    F = PrimeField(11)
    for x in F:
        assert frobenius(x) == x


def test_frobenius_sends_generator_to_other_root():
    F = make_ext_field(5, 2)
    g = F.gen
    fg = frobenius(g)
    assert fg != g
    # still a root of the modulus
    mod = UniPoly.from_ints(F, F.modulus)
    assert mod.evaluate(fg).is_zero()
    assert frobenius(fg) == g
    assert fg.coeffs == (4, 4)


def test_frobenius_is_pth_power():
    for p, m in ((3, 3), (5, 2), (7, 2)):
        F = make_ext_field(p, m)
        rng = random.Random(p * 100 + m)
        for _ in range(100):
            x = F.element(tuple(rng.randrange(p) for _ in range(m)))
            assert frobenius(x) == x ** p


def test_frobenius_order_divides_degree():
    F = make_ext_field(3, 4)
    rng = random.Random(1)
    for _ in range(50):
        x = F.element(tuple(rng.randrange(3) for _ in range(4)))
        y = x
        for _ in range(4):
            y = frobenius(y)
        assert y == x


# ------------------------------------------------------------ factorization

def test_factor_split_quadratic():
    F = PrimeField(5)
    f = UniPoly.from_ints(F, [0, 4, 1])  # x^2 - x = x(x - 1)
    unit, factors = factor_univariate(f)
    assert unit == F.one
    assert [(g.coeffs, m) for g, m in factors] == [
        ((F.zero, F.one), 1),
        ((F.from_int(-1), F.one), 1),
    ]


def test_factor_irreducible_quadratic():
    F = PrimeField(5)
    f = UniPoly.from_ints(F, [-2, 0, 1])  # x^2 - 2
    assert all((x * x).coeffs != (2,) for x in F)  # oracle: 2 is a non-square
    unit, factors = factor_univariate(f)
    assert len(factors) == 1 and factors[0][1] == 1
    assert factors[0][0].degree == 2
    assert is_irreducible(f)


def test_factor_with_multiplicity():
    F = PrimeField(7)
    lin = UniPoly.from_ints(F, [-1, 1])
    f = lin * lin * lin
    _, factors = factor_univariate(f)
    assert [(g.coeffs, m) for g, m in factors] == [(lin.coeffs, 3)]


def test_factor_pth_power_parts():
    # x^3 - 1 = (x - 1)^3 in characteristic 3: derivative vanishes
    F = PrimeField(3)
    f = UniPoly.from_ints(F, [-1, 0, 0, 1])
    _, factors = factor_univariate(f)
    assert [(g.coeffs, m) for g, m in factors] == [((F.from_int(-1), F.one), 3)]


def test_factor_random_round_trip():
    rng = random.Random(11)
    F = make_ext_field(5, 2)
    for _ in range(40):
        deg = rng.randrange(1, 7)
        coeffs = [F.element((rng.randrange(5), rng.randrange(5))) for _ in range(deg)]
        coeffs.append(F.one)
        f = UniPoly(F, coeffs)
        unit, factors = factor_univariate(f, rng=random.Random(rng.randrange(10 ** 6)))
        prod = UniPoly(F, [unit])
        total = 0
        for g, m in factors:
            assert is_irreducible(g)
            assert g.coeffs[-1] == F.one
            total += g.degree * m
            for _ in range(m):
                prod = prod * g
        assert total == f.degree
        assert prod == f


def test_factor_result_independent_of_stream():
    F = make_ext_field(7, 2)
    f = UniPoly.from_ints(F, [3, 0, 1]) * UniPoly.from_ints(F, [5, 0, 1]) * UniPoly.from_ints(F, [1, 1])
    a = factor_univariate(f, rng=random.Random(1))
    b = factor_univariate(f, rng=random.Random(99))
    assert a == b


def test_factor_zero_raises():
    F = PrimeField(5)
    with pytest.raises(ZeroPolynomial):
        factor_univariate(UniPoly(F, []))


# ------------------------------------------------------------------- roots

def test_roots_in_prime_field():
    F = PrimeField(7)
    f = UniPoly.from_ints(F, [0, -1, 1])  # y^2 - y
    rs = roots_in(f, F)
    assert [r.coeffs for r in rs] == [(0,), (1,)]
    assert rs == oracle_roots(f, F)


def test_roots_of_x2_minus_2_in_f25():
    F5 = PrimeField(5)
    F25 = make_ext_field(5, 2)
    f = UniPoly.from_ints(F5, [-2, 0, 1])
    assert roots_in(f, F5) == []
    rs = roots_in(f, F25)
    assert [r.coeffs for r in rs] == [(1, 2), (4, 3)]
    assert rs == sorted(oracle_roots(f.map_coefficients(F25), F25), key=lambda r: r.label())
    assert frobenius(rs[0]) == rs[1]
    assert frobenius(rs[1]) == rs[0]


def test_roots_count_matches_linear_factor_count():
    rng = random.Random(3)
    F = make_ext_field(3, 2)
    for _ in range(30):
        coeffs = [F.element((rng.randrange(3), rng.randrange(3))) for _ in range(rng.randrange(1, 6))]
        coeffs.append(F.one)
        f = UniPoly(F, coeffs)
        _, factors = factor_univariate(f)
        nlin = sum(m for g, m in factors if g.degree == 1)
        ndist = sum(1 for g, m in factors if g.degree == 1)
        rs = roots_in(f, F)
        assert len(rs) == ndist
        assert len(set(r.coeffs for r in rs)) == len(rs)
        assert nlin >= ndist


def _factor_roots(f, K):
    """The reference: roots read off the linear factors of f over K."""
    _, factors = factor_univariate(f.map_coefficients(K))
    return sorted((-g.coeffs[0] for g, _ in factors if g.degree == 1),
                  key=lambda r: r.label())


def _random_poly(rng, F, deg):
    coeffs = [F.element(tuple(rng.randrange(F.p) for _ in range(F.degree)))
              for _ in range(deg)]
    return UniPoly(F, coeffs + [F.one])


def _repeated_factors(rng, F):
    f = UniPoly(F, [F.one])
    for _ in range(rng.randrange(1, 4)):
        g = _random_poly(rng, F, rng.randrange(1, 3))
        for _ in range(rng.randrange(1, 4)):
            f = f * g
    return f


def _pth_power_shape(rng, F):
    # a polynomial in y^p, so f' = 0: y^p - a and its relatives
    h = _random_poly(rng, F, rng.randrange(1, 3))
    coeffs = [F.zero] * (F.p * h.degree + 1)
    for i, c in enumerate(h.coeffs):
        coeffs[F.p * i] = c
    return UniPoly(F, coeffs)


def _vanishing_at_zero(rng, F):
    power_of_y = UniPoly(F, [F.zero] * rng.randrange(1, 3) + [F.one])
    return power_of_y * _random_poly(rng, F, rng.randrange(0, 5))


SHAPES = {
    "repeated-factors": _repeated_factors,
    "derivative-zero": _pth_power_shape,
    "zero-constant-term": _vanishing_at_zero,
    "random": lambda rng, F: _random_poly(rng, F, rng.randrange(1, 9)),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("p, base, stages", [
    (3, 1, (1, 2, 3, 4, 5, 6)),
    (5, 1, (1, 2, 3)),
    (3, 2, (2, 4, 6)),
    (5, 2, (2, 4)),
    (5, 1, (6,)),
], ids=["F3", "F5", "F9", "F25", "F5-in-F5^6"])
def test_roots_in_matches_factoring(shape, p, base, stages):
    rng = random.Random("%s-%d-%d" % (shape, p, base))
    F = stage_field(p, base)
    for _ in range(6):
        f = SHAPES[shape](rng, F)
        for m in stages:
            K = stage_field(p, m)
            assert roots_in(f, K) == _factor_roots(f, K), (f, m)


def test_roots_in_counts_match_the_plain_int_oracle():
    oracles = _load("bench_oracles", ORACLES)
    rng = random.Random(8)
    for p in (3, 5, 7):
        F = PrimeField(p)
        for shape in sorted(SHAPES):
            for _ in range(3):
                f = SHAPES[shape](rng, F)
                ints = [c.coeffs[0] for c in f.coeffs]
                for m in (1, 2, 3, 4):
                    assert len(roots_in(f, stage_field(p, m))) == \
                        oracles.roots_count(ints, m, p), (ints, m)


BIG_PRIMES = [2 ** 31 - 1, 1000003, 65521]


def _with_repeated_roots(rng, F):
    # a cubed linear factor, a squared quadratic and a cubic: the
    # linear factor keeps a root in every stage over F
    f = _random_poly(rng, F, 1)
    f = f * f * f
    quad = _random_poly(rng, F, 2)
    return f * quad * quad * _random_poly(rng, F, 3)


@pytest.mark.parametrize("p", BIG_PRIMES)
@pytest.mark.parametrize("base, stages", [(1, (1, 2, 3)), (2, (4,))],
                         ids=["F_p", "F_p2"])
def test_roots_in_at_large_characteristic(p, base, stages):
    # p^2 sits just below the slot width, so a slot that is one bit too
    # narrow carries into its neighbour and loses or invents roots
    rng = random.Random(p + base)
    F = stage_field(p, base)
    for _ in range(2):
        f = _with_repeated_roots(rng, F)
        for m in stages:
            K = stage_field(p, m)
            rs = roots_in(f, K)
            assert rs == _factor_roots(f, K), (f, m)
            fK = f.map_coefficients(K)
            assert rs and all(fK.evaluate(r).is_zero() for r in rs)


def test_roots_in_counts_match_the_plain_int_oracle_at_65521():
    oracles = _load("bench_oracles", ORACLES)
    rng = random.Random(65521)
    F = PrimeField(65521)
    shapes = [_repeated_factors, _vanishing_at_zero, _with_repeated_roots,
              lambda rng, F: _random_poly(rng, F, rng.randrange(1, 9))]
    for shape in shapes:
        for _ in range(2):
            f = shape(rng, F)
            ints = [c.coeffs[0] for c in f.coeffs]
            for m in (1, 2, 3, 4):
                assert len(roots_in(f, stage_field(65521, m))) == \
                    oracles.roots_count(ints, m, 65521), (ints, m)


def test_roots_in_does_no_field_element_arithmetic(monkeypatch):
    # the degree-64 polynomial of the first points-stage shape, over
    # F_3, with its roots in F_81
    monkeypatch.setitem(sys.modules, "oracles", _load("oracles", ORACLES))
    workloads = _load("bench_workloads", BENCH / "workloads.py")
    op = workloads.points_stage(3)[0]
    assert (op["p"], op["stage"]) == (3, 4)
    f = UniPoly.from_ints(PrimeField(3), op["oracle"]["f"])
    K = make_ext_field(3, 4)
    assert f.degree == 64
    calls = []
    mul = FieldElement.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    rs = roots_in(f, K)
    assert len(rs) == op["oracle"]["count"]
    assert len(calls) < 50


def test_packed_products_at_the_slot_bound():
    # every slot of every coefficient at p - 1 makes the largest sums the
    # slot width has to hold; the kernel must agree with UniPoly
    p, m, d = 2 ** 31 - 1, 3, 8
    K = make_ext_field(p, m)
    S = exactfield._Packed(p, K.modulus, d)
    top = K.element((p - 1,) * m)
    a = UniPoly(K, [top] * d)
    f = UniPoly(K, [top] * d + [K.one])
    packed = [tuple(S.pack(c.coeffs) for c in g.coeffs) for g in (a, f)]
    got = S.divmod(S.mul(packed[0], packed[0]), packed[1])[1]
    assert [S.unpack(c) for c in got] == [c.coeffs for c in ((a * a) % f).coeffs]
    assert [S.unpack(c) for c in S.gcd(*packed)] == \
        [c.coeffs for c in a.gcd(f).coeffs]


def test_packed_mat_vec_at_the_slot_bound():
    # the Krylov step of a linear model: a dense table and a vector with
    # every slot at p - 1 make the largest sums d products can reach
    p, m, d = 2 ** 31 - 1, 3, 8
    K = make_ext_field(p, m)
    S = exactfield._Packed(p, K.modulus, d)
    top = K.element((p - 1,) * m)
    cols = [[(i, S.pack(top.coeffs)) for i in range(d)] for _ in range(d)]
    vec = [(j, S.pack(top.coeffs)) for j in range(d)]
    entry = sum([top * top] * d, K.zero)
    assert [(i, S.unpack(a)) for i, a in S.mat_vec(cols, vec)] == \
        [(i, entry.coeffs) for i in range(d)]


def _irreducibles(rng, K, d, count):
    """count distinct monic irreducibles of degree d over K."""
    found = set()
    while len(found) < count:
        h = _random_poly(rng, K, d)
        if is_irreducible(h):
            found.add(h)
    return sorted(found, key=lambda h: [c.label() for c in h.coeffs])


@pytest.mark.parametrize("p, m, d, count", [
    (3, 4, 1, 8), (7, 1, 1, 6), (5, 3, 1, 8),
    (3, 1, 2, 3), (5, 1, 3, 3), (3, 2, 2, 4), (7, 1, 6, 2),
], ids=["3-4", "7-1", "5-3", "3-1-d2", "5-1-d3", "3-2-d2", "7-1-d6"])
def test_packed_split_draws_like_the_equal_degree_split(p, m, d, count):
    # the packed split consumes the random stream exactly as
    # `_equal_degree_split(g, d, rng)` does and finds the same factors
    K = stage_field(p, m)
    g = UniPoly(K, [K.one])
    for h in _irreducibles(random.Random(p * m + d), K, d, count):
        g = g * h
    S = exactfield._Packed(p, K.modulus, g.degree)
    ours, theirs = random.Random(1), random.Random(1)
    split = S.split(tuple(S.pack(c.coeffs) for c in g.coeffs), d, ours)
    reference = exactfield._equal_degree_split(g, d, theirs)
    assert [[S.unpack(c) for c in h] for h in split] == \
        [[c.coeffs for c in h.coeffs] for h in reference]
    assert ours.random() == theirs.random()


def test_packed_split_first_follows_one_branch():
    # with first, one factor comes back, and it is one of the full split's
    K = make_ext_field(5, 2)
    g = UniPoly(K, [K.one])
    for h in _irreducibles(random.Random(9), K, 1, 9):
        g = g * h
    S = exactfield._Packed(5, K.modulus, g.degree)
    gp = tuple(S.pack(c.coeffs) for c in g.coeffs)
    whole = S.split(gp, 1, random.Random(2))
    (one,) = S.split(gp, 1, random.Random(3), first=True)
    assert len(whole) == 9 and one in whole


def _orbit_polynomial():
    # over F_5, irreducible factors of degrees 1, 2, 3 and 6: one Frobenius
    # orbit of each size in F_{5^6}, twelve roots in all
    F5 = PrimeField(5)
    f = UniPoly(F5, [F5.one])
    for d in (1, 2, 3, 6):
        f = f * _irreducibles(random.Random(d), F5, d, 1)[0]
    return f


def test_roots_in_reads_every_orbit_size():
    f = _orbit_polynomial()
    K = make_ext_field(5, 6)
    rs = roots_in(f, K)
    assert len(rs) == 12 and rs == _factor_roots(f, K)
    assert [len(roots_in(f, make_ext_field(5, m))) for m in (2, 3)] == [3, 4]


def _identity_frobenius(self, x, e):
    return x


def _shifted_frobenius(self, x, e):
    return self.reduce(x + 1)


def _split_losing_cubics(split):
    def wrapped(self, g, d, rng, first=False):
        return [] if d == 3 else split(self, g, d, rng, first)
    return wrapped


ORBIT_FAULTS = {
    "identity": (lambda: _identity_frobenius, "a Frobenius orbit repeats a root"),
    "shifted": (lambda: _shifted_frobenius,
                "a Frobenius orbit does not close after 2 steps"),
}


@pytest.mark.parametrize("fault", sorted(ORBIT_FAULTS))
def test_roots_in_raises_when_an_orbit_fails(monkeypatch, fault):
    corrupt, reason = ORBIT_FAULTS[fault]
    monkeypatch.setattr(exactfield._Packed, "power", corrupt())
    f = _irreducibles(random.Random(4), PrimeField(5), 2, 1)[0]
    with pytest.raises(CertificateFailure, match=reason):
        roots_in(f, make_ext_field(5, 2))


def test_roots_in_raises_when_roots_go_missing(monkeypatch):
    # a split that loses the cubic factor leaves fewer roots than the
    # gcd's degree
    monkeypatch.setattr(exactfield._Packed, "split",
                        _split_losing_cubics(exactfield._Packed.split))
    with pytest.raises(CertificateFailure,
                       match="^9 distinct roots for a gcd of degree 12$"):
        roots_in(_orbit_polynomial(), make_ext_field(5, 6))


def test_orbit_certificate_survives_optimized_mode():
    # `python -O` strips every assert: the identity Frobenius must still
    # be caught by a raise
    script = (
        "from resweil import exactfield\n"
        "from resweil.errors import CertificateFailure\n"
        "from resweil.exactfield import PrimeField, UniPoly, make_ext_field\n"
        "exactfield._Packed.power = lambda self, x, e: x\n"
        "f = UniPoly.from_ints(PrimeField(5), [2, 0, 1])\n"
        "try:\n"
        "    exactfield.roots_in(f, make_ext_field(5, 2))\n"
        "except CertificateFailure as e:\n"
        "    print(e)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, env=env, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "a Frobenius orbit repeats a root\n"


def test_roots_in_degenerate_inputs():
    F9 = make_ext_field(3, 2)
    F81 = make_ext_field(3, 4)
    with pytest.raises(ZeroPolynomial):
        roots_in(UniPoly(F9, []), F81)
    assert roots_in(UniPoly(F9, [F9.gen]), F81) == []
    assert roots_in(UniPoly.from_ints(PrimeField(3), [2]), F9) == []
    with pytest.raises(IncompatibleDegrees):
        roots_in(UniPoly(F9, [F9.gen]), make_ext_field(3, 3))
    with pytest.raises(IncompatibleDegrees):
        roots_in(UniPoly(F9, [F9.gen, F9.one]), make_ext_field(3, 3))
    with pytest.raises(IncompatibleDegrees):
        roots_in(UniPoly.from_ints(PrimeField(3), [1, 1]), PrimeField(5))


# --------------------------------------------------------------- embeddings

def test_embed_constants():
    F5 = PrimeField(5)
    F25 = make_ext_field(5, 2)
    x = F5.from_int(3)
    assert embed(x, F25).coeffs == (3, 0)


def test_embed_commutes_with_frobenius():
    F25 = make_ext_field(5, 2)
    F625 = make_ext_field(5, 4)
    g = F25.gen
    assert embed(frobenius(g), F625) == frobenius(embed(g, F625))
    # and the image really is a root of the F_25 modulus
    mod = UniPoly.from_ints(F625, F25.modulus)
    assert mod.evaluate(embed(g, F625)).is_zero()


def test_embed_is_a_ring_map():
    F9 = make_ext_field(3, 2)
    F81 = make_ext_field(3, 4)
    rng = random.Random(5)
    for _ in range(50):
        a = F9.element((rng.randrange(3), rng.randrange(3)))
        b = F9.element((rng.randrange(3), rng.randrange(3)))
        assert embed(a + b, F81) == embed(a, F81) + embed(b, F81)
        assert embed(a * b, F81) == embed(a, F81) * embed(b, F81)


def test_embed_incompatible_degrees():
    F25 = make_ext_field(5, 2)
    F125 = make_ext_field(5, 3)
    with pytest.raises(IncompatibleDegrees):
        embed(F25.gen, F125)


def test_mixed_field_arithmetic_rejected():
    F25 = make_ext_field(5, 2)
    F9 = make_ext_field(3, 2)
    with pytest.raises(IncompatibleDegrees):
        F25.gen + F9.gen


def test_embed_raises_when_the_modulus_has_no_root(monkeypatch):
    # the F_9 modulus loses its roots in F_81
    monkeypatch.setattr(exactfield, "_EMBED_CACHE", {})
    monkeypatch.setattr(exactfield, "roots_in", lambda f, field: [])
    with pytest.raises(CertificateFailure):
        embed(make_ext_field(3, 2).gen, make_ext_field(3, 4))
