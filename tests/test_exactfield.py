import importlib.util
import os
import random
import subprocess
import sys
import time
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
    make_ext_field,
    roots_in,
    stage_field,
)
from shared import _is_irreducible

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


def test_one_object_per_stage():
    # F_p is the stage of degree 1: each name for it gives the one object,
    # so elements built from any of them mix
    F = PrimeField(5)
    assert F is make_ext_field(5, 1) is stage_field(5, 1)
    assert F.base is F and make_ext_field(5, 2).base is F
    x = make_ext_field(5, 1).from_int(3)
    assert F.from_int(2) * x == stage_field(5, 1).from_int(1)
    assert (x + F.one).coeffs == (4,) and F.element(()) == F.zero
    # a stage built apart from the memo equals the memoized one, and hashes
    # equal to it
    for p, m in ((5, 1), (5, 2), (3, 4)):
        K = make_ext_field(p, m)
        twin = ExtField(p, m, K.modulus)
        assert twin is not K and twin == K and hash(twin) == hash(K)
        assert len({K, twin}) == 1
    assert [x.coeffs for x in stage_field(3, 2)] == [
        (a, b) for a in range(3) for b in range(3)]
    # a guard raises on every call and builds nothing
    before = dict(exactfield._FIELD_CACHE)
    for _ in range(2):
        for build, error in ((lambda: PrimeField(4), NonPrime),
                             (lambda: PrimeField(2), NonPrime),
                             (lambda: PrimeField(5.0), NonPrime),
                             (lambda: make_ext_field(5, 2.0), DegreeGuardExceeded),
                             (lambda: make_ext_field(5, 25), DegreeGuardExceeded)):
            with pytest.raises(error):
                build()
    assert exactfield._FIELD_CACHE == before


@pytest.mark.parametrize("p, degrees", [
    (3, range(2, 7)), (5, range(2, 5)), (7, range(2, 4)), (65521, (2,)),
])
def test_moduli_match_the_plain_int_oracle(p, degrees):
    oracles = _load("bench_oracles", ORACLES)
    for m in degrees:
        assert list(make_ext_field(p, m).modulus) == oracles.ext_modulus(p, m)


def test_search_modulus_raises_without_an_irreducible(monkeypatch):
    # a pass that never returns f as its one block finds no irreducible
    monkeypatch.setattr(exactfield._Packed, "degree_blocks", lambda self, g, n=None: [])
    with pytest.raises(CertificateFailure):
        exactfield._search_modulus(5, 2)


def test_element_rejects_too_many_coefficients():
    with pytest.raises(IncompatibleDegrees):
        PrimeField(5).element((1, 2))
    with pytest.raises(IncompatibleDegrees):
        make_ext_field(5, 2).element((1, 2, 3))


def test_plain_division_by_zero_raises():
    F = PrimeField(5)
    with pytest.raises(ZeroPolynomial):
        UniPoly.from_ints(F, (1, 2)).divmod(UniPoly(F, []))


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


# ---------------------------------------------------------- the list rule
# Element arithmetic on plain residue lists, low degree first, sharing
# no code with `_Packed`: the reference `FieldElement` multiplication,
# inverse, powers, `frobenius` and `embed` are compared with.  The
# `_field_element_rule_*` factoring references below multiply through
# `FieldElement`, hence through `_Packed.reduce`; this comparison and
# `_slotwise_rule_reduce`, the slot loop `reduce` is checked against,
# are what keep them independent of the kernel they check.

def _list_rule_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _list_rule_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return _list_rule_trim(out)


def _list_rule_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _list_rule_trim(out)


def _list_rule_divmod(a, b, p):
    if not b:
        raise ZeroPolynomial("division by the zero polynomial")
    lead = b[-1]
    inv = pow(lead, p - 2, p)
    rem = list(a)
    db = len(b) - 1
    if len(a) < len(b):
        return (), _list_rule_trim(rem)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i] % p
        if c == 0:
            continue
        q = c * inv % p
        quo[i - db] = q
        for j in range(len(b)):
            rem[i - db + j] = (rem[i - db + j] - q * b[j]) % p
    return _list_rule_trim(quo), _list_rule_trim(rem)


def _list_rule_gcdext(a, b, p):
    # returns (g, u) with u*a = g mod b, g the monic gcd
    r0, r1 = a, b
    u0, u1 = (1,), ()
    while r1:
        q, r = _list_rule_divmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, _list_rule_sub(u0, _list_rule_mul(q, u1, p), p)
    if r0:
        inv = pow(r0[-1], p - 2, p)
        r0 = tuple(c * inv % p for c in r0)
        u0 = tuple(c * inv % p for c in u0)
    return r0, u0


def _pad(F, c):
    return tuple(c) + (0,) * (F.degree - len(c))


def _list_rule_times(F, a, b):
    """The product of two coefficient vectors of F."""
    return _pad(F, _list_rule_divmod(_list_rule_mul(a, b, F.p), F.modulus, F.p)[1])


def _list_rule_inverse(F, a):
    return _pad(F, _list_rule_gcdext(_list_rule_trim(a), F.modulus, F.p)[1])


def _list_rule_power(F, a, e):
    if e < 0:
        a, e = _list_rule_inverse(F, a), -e
    result = _pad(F, (1,))
    while e:
        if e & 1:
            result = _list_rule_times(F, result, a)
        a = _list_rule_times(F, a, a)
        e >>= 1
    return result


def _list_rule_at(K, cs, image):
    """c_0 + c_1 a + ... in K at a = image, by Horner's rule."""
    acc = _pad(K, ())
    for c in reversed(cs):
        acc = _list_rule_times(K, acc, image)
        acc = (acc[0] + c) % K.p, *acc[1:]
    return acc


def _check_elements(F, pairs, exponents):
    """`FieldElement` *, inverse, ** and frobenius against the list rule."""
    for a, b in pairs:
        x, y = F.element(a), F.element(b)
        assert (x * y).coeffs == _list_rule_times(F, a, b)
    for a in {a for pair in pairs for a in pair}:
        x = F.element(a)
        assert frobenius(x).coeffs == _list_rule_power(F, a, F.p)
        if not any(a):
            continue
        assert x.inverse().coeffs == _list_rule_inverse(F, a)
        for e in exponents:
            assert (x ** e).coeffs == _list_rule_power(F, a, e)


def _check_embedding(F, K, elements):
    """`embed` against Horner's rule at the image of F's generator, a root
    of F's modulus in K, and a ring map on the elements."""
    image = embed(F.gen, K).coeffs
    assert _list_rule_at(K, F.modulus, image) == _pad(K, ())
    for a in elements:
        assert embed(F.element(a), K).coeffs == _list_rule_at(K, a, image)
    return image


@pytest.mark.parametrize("p, m, n", [(7, 1, 2), (7, 2, 4), (3, 4, 8), (5, 3, 6)])
def test_element_arithmetic_matches_the_list_rule(p, m, n):
    # every pair in F_7, F_49, F_81 and F_125; every element embedded
    # into the stage of degree n, at the label-smallest root of the modulus
    F, K = stage_field(p, m), make_ext_field(p, n)
    q = F.order
    elements = [x.coeffs for x in F]
    _check_elements(F, [(a, b) for a in elements for b in elements],
                    (-3, -1, 0, 1, 2, p, q - 2, q - 1, q, 2 * q + 5))
    if m == 1:
        assert [embed(F.element(a), K).coeffs for a in elements] == \
            [_pad(K, a) for a in elements]
        return
    image = _check_embedding(F, K, elements)
    smallest = next(x.coeffs for x in K
                    if _list_rule_at(K, F.modulus, x.coeffs) == _pad(K, ()))
    assert image == smallest


# The degree-24 modulus over F_101 is searched for in seconds; its
# irreducibility is checked here instead.
F101_24 = (1,) + (0,) * 21 + (2, 6, 1)


@pytest.mark.parametrize("p, m", [(2 ** 31 - 1, 2), (2 ** 31 - 1, 3),
                                  (2 ** 31 - 1, 24), (101, 24)])
def test_element_arithmetic_matches_the_list_rule_at_large_stages(p, m, slot_peaks):
    # seeded pairs, every coefficient at p - 1 among them, where the
    # packed products are widest; the extended Euclid of an inverse runs
    # on plain residue lists, with no slot to check
    if (p, m) == (101, 24):
        assert PrimeField(p).packing.degree_blocks(F101_24) == [(F101_24, 24)]
        F = ExtField(p, m, F101_24)
    else:
        F = make_ext_field(p, m)
    rng = random.Random(p + m)
    vectors = [(p - 1,) * m, (1,) + (0,) * (m - 1), (0,) * (m - 1) + (1,)]
    vectors += [tuple(rng.randrange(p) for _ in range(m)) for _ in range(8)]
    pairs = [(a, b) for a in vectors for b in vectors[:4]]
    _check_elements(F, pairs, (-1, 0, 2, 3, rng.randrange(1 << 20)))
    if m < 24:
        _check_embedding(F, make_ext_field(p, 24), vectors)
    assert (p, m) in slot_peaks


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


# ------------------------------------------------- the field-element rule
# Factoring on `UniPoly` and `FieldElement` arithmetic, sharing none of
# the packed kernel's polynomial routines: the reference
# `factor_univariate`, the one-block irreducibility test, `roots_in` and
# `_Packed.split` are compared with.  Its element products do run on the
# stage packing; the list rule above checks those.

def _field_element_rule_gcd(a, b):
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def _field_element_rule_pow_mod(a, e, mod):
    f = a.field
    result = UniPoly(f, [f.one])
    base = a % mod
    while e > 0:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def _field_element_rule_derivative(a):
    f = a.field
    out = []
    for i, c in enumerate(a.coeffs[1:], start=1):
        out.append(c * f.from_int(i))
    return UniPoly(f, out)


def _prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _field_element_rule_is_irreducible(f):
    """Rabin's deterministic criterion over the coefficient stage."""
    if f.is_zero():
        raise ZeroPolynomial("irreducibility of zero")
    m = f.degree
    if m == 0:
        return False
    field = f.field
    q = field.order
    g = f.monic()
    x = UniPoly(field, [field.zero, field.one])
    power = x
    for _ in range(m):
        power = _field_element_rule_pow_mod(power, q, g)
    if (power - x) % g != UniPoly(field, []):
        return False
    for ell in _prime_divisors(m):
        power = x
        for _ in range(m // ell):
            power = _field_element_rule_pow_mod(power, q, g)
        if _field_element_rule_gcd(power - x, g).degree != 0:
            return False
    return True


def _field_element_rule_pth_root(f):
    """Inverse of c -> c^p on coefficients, for polynomials in x^p."""
    field = f.field
    p = field.p
    m = field.degree
    out = []
    for i in range(0, len(f.coeffs), p):
        c = f.coeffs[i]
        # c^(p^(m-1)) is the p-th root in F_{p^m}
        r = c
        for _ in range(m - 1):
            r = r ** p
        out.append(r)
    return UniPoly(field, out)


def _field_element_rule_squarefree_parts(f):
    """Yield (squarefree factor, multiplicity) pairs for monic f, char p aware."""
    field = f.field
    p = field.p
    gcd, root = _field_element_rule_gcd, _field_element_rule_pth_root

    def rec(g, mult):
        if g.degree < 1:
            return
        d = _field_element_rule_derivative(g)
        if d.is_zero():
            yield from rec(root(g), mult * p)
            return
        w = gcd(g, d)
        v = (g // w).monic()
        i = 1
        while v.degree > 0:
            y = gcd(v, w)
            z = (v // y).monic()
            if z.degree > 0:
                yield z, i * mult
            v = y
            w = (w // y).monic()
            i += 1
        if w.degree > 0:
            yield from rec(root(w), mult * p)

    yield from rec(f.monic(), 1)


def _field_element_rule_distinct_degree(f):
    """Split squarefree monic f into products of factors of equal degree."""
    field = f.field
    q = field.order
    x = UniPoly(field, [field.zero, field.one])
    out = []
    h = x
    rest = f
    d = 0
    while rest.degree > 2 * (d + 1) - 1 and rest.degree > 0:
        d += 1
        h = _field_element_rule_pow_mod(h, q, rest)
        g = _field_element_rule_gcd(h - x, rest)
        if g.degree > 0:
            out.append((g, d))
            rest = (rest // g).monic()
            h = h % rest
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _field_element_rule_equal_degree_split(f, d, rng):
    """Cantor-Zassenhaus splitting; the characteristic is odd by
    construction.  A try is gcd(r^((q^d - 1) / 2) - 1, f) alone: an r that
    shares a factor with f is one more failed try, not a split."""
    field = f.field
    q = field.order
    if f.degree == d:
        return [f]
    exponent = (q ** d - 1) // 2
    one = UniPoly(field, [field.one])
    gcd, split = _field_element_rule_gcd, _field_element_rule_equal_degree_split
    while True:
        r = UniPoly(field, [field.element(tuple(rng.randrange(field.p)
                                                for _ in range(field.degree)))
                            for _ in range(f.degree)])
        if r.degree < 1:
            continue
        g = gcd(_field_element_rule_pow_mod(r, exponent, f) - one, f)
        if not (0 < g.degree < f.degree):
            continue
        return split(g, d, rng) + split((f // g).monic(), d, rng)


def _field_element_rule_factor(f, rng=None):
    """Full factorization into monic irreducibles with multiplicities,
    sorted by degree then coefficient labels."""
    if f.is_zero():
        raise ZeroPolynomial("factor of zero")
    if rng is None:
        rng = random.Random(0)
    unit = f.coeffs[-1]
    work = f.monic()
    found = []
    if work.degree == 0:
        return unit, []
    for sqf, mult in _field_element_rule_squarefree_parts(work):
        for block, d in _field_element_rule_distinct_degree(sqf):
            for irr in _field_element_rule_equal_degree_split(block, d, rng):
                found.append((irr, mult))
    found.sort(key=lambda fm: (fm[0].degree, tuple(c.label() for c in fm[0].coeffs)))
    return unit, found


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
    assert _is_irreducible(f)


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
            assert _is_irreducible(g)
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
    _, factors = _field_element_rule_factor(f.map_coefficients(K))
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
    # coefficients in the stage itself: every factor over it is linear
    (3, 3, (3,)),
    (3, 4, (4,)),
    (3, 5, (5,)),
    (3, 6, (6,)),
], ids=["F3", "F5", "F9", "F25", "F5-in-F5^6", "F27", "F81", "F243", "F729"])
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


def test_packed_products_at_the_slot_bound(slot_peaks):
    # every slot of every coefficient at p - 1 makes the largest sums the
    # value bound has to hold; the kernel must agree with UniPoly
    p, m, d = 2 ** 31 - 1, 3, 8
    K = make_ext_field(p, m)
    S = exactfield._Packed(p, K.modulus, d)
    top = K.element((p - 1,) * m)
    a = UniPoly(K, [top] * d)
    f = UniPoly(K, [top] * d + [K.one])
    packed = [tuple(S.pack(c.coeffs) for c in g.coeffs) for g in (a, f)]
    got = S.divmod(_entry_rule_mul(packed[0], packed[0]), packed[1])[1]
    assert [S.unpack(c) for c in got] == [c.coeffs for c in ((a * a) % f).coeffs]
    assert [S.unpack(c) for c in S.gcd(*packed)] == \
        [c.coeffs for c in _field_element_rule_gcd(a, f).coeffs]
    assert (p, m) in slot_peaks


def test_packed_mat_vec_at_the_slot_bound(slot_peaks):
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
    assert (p, m) in slot_peaks


def _slotwise_rule_reduce(S, x):
    """The per-slot reduction the multiply-and-shift one replaced: each of
    the 2m - 1 slots mod p, the high ones folded back through a^(m + t)
    mod the modulus, and the m low slots packed again."""
    p, mask = S.p, S.mask
    low = [(x >> t & mask) % p for t in S.narrow]
    high = [(x >> t & mask) % p for t in S.high]
    if any(high):
        x = sum(c * a for c, a in zip(high, S.fold))
        low = [(c + (x >> t & mask)) % p for c, t in zip(low, S.narrow)]
    return S.pack(low)


def _slot_values(S, rng):
    """Slot vectors for a reduction: random below 2^b, every slot at
    2^b - 1, at the largest multiple of p below 2^b and at p, only the
    low slots at 2^b - 1, and zero."""
    n, top = 2 * S.m - 1, (1 << S.b) - 1
    yield from ([rng.randrange(top + 1) for _ in range(n)] for _ in range(20))
    yield [top] * n
    yield [top - top % S.p] * n
    yield [S.p] * n
    yield [top] * S.m + [0] * (S.m - 1)
    yield [0] * n


@pytest.mark.parametrize("p, m", [
    (p, m) for p in (3, 5, 7, 11, 2 ** 31 - 1)
    for m in (2, 3, 4, 5, 6) + ((12, exactfield.MAX_DEGREE) if p < 12 else ())])
def test_packed_reduce_matches_the_slotwise_rule(p, m):
    # every slot value below the bound 2^b, for a product-sized packing
    # (degree 0), the stage's own (`MAX_DEGREE`) and a wide one (degree 64)
    K = make_ext_field(p, m)
    rng = random.Random(p * 100 + m)
    for degree in (0, 7, exactfield.MAX_DEGREE, 64):
        S = exactfield._Packed(p, K.modulus, degree)
        for slots in _slot_values(S, rng):
            x = S.pack(slots)
            got = S.reduce(x)
            assert got == _slotwise_rule_reduce(S, x), (degree, slots)
            assert all(c < p for c in S.unpack(got)) and got >> S.high[0] == 0


def _entry_rule_mul(a, b):
    """The product of packed polynomials a and b, coefficient by
    coefficient, with unreduced coefficients."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _entry_rule_powmod(S, a, e, f):
    """a^e mod f by square-and-multiply, one `_entry_rule_mul` and one
    `_Packed.divmod` a step, coefficient by coefficient: the route
    `_Ring.powmod` replaced."""
    result = S.divmod((1,), f)[1]
    base = S.divmod(a, f)[1]
    while e:
        if e & 1:
            result = S.divmod(_entry_rule_mul(result, base), f)[1]
        e >>= 1
        if e:
            base = S.divmod(_entry_rule_mul(base, base), f)[1]
    return result


@pytest.mark.parametrize("p, m", [(p, m) for p in (3, 11, 2 ** 31 - 1)
                                  for m in range(1, 7)])
def test_ring_powmod_at_the_slot_bound(p, m, slot_peaks):
    # every slot of every coefficient at p - 1, of the base and of the
    # modulus below its leading 1, makes the largest sums a product, a
    # Barrett quotient and a remainder reach; each modulus degree n runs
    # on the packing of degree n, the tightest bound the ring may use
    K = make_ext_field(p, m)
    for n in range(1, 65):
        S = exactfield._Packed(p, K.modulus, n)
        top = S.pack([p - 1] * m)
        f, a = (top,) * n + (1,), (top,) * n
        assert exactfield._Ring(S, f).powmod(a, 2) == _entry_rule_powmod(S, a, 2, f), n
    assert (p, m) in slot_peaks


@pytest.mark.parametrize("p, m", [(3, 1), (3, 4), (11, 2), (11, 6),
                                  (2 ** 31 - 1, 1), (2 ** 31 - 1, 3)])
def test_ring_powmod_matches_the_entry_rule(p, m, slot_peaks):
    # random monic moduli of degree 1..24, bases up to twice their degree
    # and exponents from 0 to the order of a degree-3 extension
    K = make_ext_field(p, m)
    rng = random.Random(p * 10 + m)
    for _ in range(24):
        n = rng.randrange(1, 25)
        S = exactfield._Packed(p, K.modulus, n)

        def draw(count):
            return tuple(S.pack([rng.randrange(p) for _ in range(m)])
                         for _ in range(count))
        f = draw(n) + (1,)
        a = exactfield._trim(draw(rng.randrange(0, 2 * n + 2)))
        e = rng.choice([0, 1, 2, p, rng.randrange(K.order ** 3)])
        assert exactfield._Ring(S, f).powmod(a, e) == _entry_rule_powmod(S, a, e, f)
    assert (p, m) in slot_peaks


def _entry_rule_gcd(S, a, b):
    """The monic gcd of a and b by Euclid, one `_Packed.divmod` a step,
    coefficient by coefficient and each by the inverse of a leading
    coefficient: the route `_Packed.gcd` replaced."""
    while b:
        a, b = b, S.divmod(a, b)[1]
    return S.monic(a)


@pytest.mark.parametrize("p, m", [(p, m) for p in (3, 11, 2 ** 31 - 1)
                                  for m in range(1, 7)])
def test_packed_gcd_matches_the_entry_rule(p, m, slot_peaks):
    # at each degree n = 0..64, on the packing of degree n, the tightest
    # bound: a seeded pair, a pair sharing a seeded factor, a coprime
    # pair, a pair with every slot at p - 1, equal inputs, and zero and
    # constant partners
    K = make_ext_field(p, m)
    rng = random.Random(p * 10 + m)

    def draw(count):
        return exactfield._trim([S.pack([rng.randrange(p) for _ in range(m)])
                                 for _ in range(count)])

    def times(a, b):
        return exactfield._trim([S.reduce(c) for c in _entry_rule_mul(a, b)])
    for n in range(65):
        S = exactfield._Packed(p, K.modulus, n)
        top = S.pack([p - 1] * m)
        a, k = draw(n + 1), rng.randrange(n // 2, n + 1)
        g = draw(k + 1)
        pairs = [(a, draw(rng.randrange(n + 2))),
                 (times(g, draw(n - k + 1)), times(g, draw(rng.randrange(n + 1) + 1))),
                 (a, S.sub(a, (1,))),
                 ((top,) * (n + 1), (top,) * max(n, 1)),
                 (a, a), (a, ()), ((), a), (a, (top,)), ((), ())]
        for x, y in pairs:
            assert S.gcd(x, y) == _entry_rule_gcd(S, x, y), (n, x, y)
        if len(a) > 1:
            assert S.gcd(a, S.sub(a, (1,))) == (1,)
    assert (p, m) in slot_peaks


@pytest.mark.parametrize("p, m, count", [(3, 4, None), (5, 2, None),
                                         (5, 6, 300), (2 ** 31 - 1, 2, 300)])
def test_packed_inverse_inverts(p, m, count):
    # the extended Euclid on plain residue lists: x x^-1 = 1 on every
    # nonzero element of the small stages and on seeded ones, every
    # coefficient at p - 1 among them, of the large
    K = make_ext_field(p, m)
    S = K.packing
    if count is None:
        vectors = [x.coeffs for x in K]
    else:
        rng = random.Random(p + m)
        vectors = [(p - 1,) * m] + [tuple(rng.randrange(p) for _ in range(m))
                                    for _ in range(count - 1)]
    vectors = [v for v in vectors if any(v)]
    assert len(vectors) == (K.order - 1 if count is None else count)
    for v in vectors:
        x = S.pack(v)
        assert S.unpack(S.reduce(x * S.inverse(x))) == K.one.coeffs, v


def test_ring_needs_a_monic_modulus():
    S = exactfield._Packed(5, (0, 1), 2)
    with pytest.raises(CertificateFailure,
                       match="^a packed ring needs a monic modulus$"):
        exactfield._Ring(S, (1, 0, 2))


def _irreducibles(rng, K, d, count):
    """count distinct monic irreducibles of degree d over K."""
    found = set()
    while len(found) < count:
        h = _random_poly(rng, K, d)
        if _is_irreducible(h):
            found.add(h)
    return sorted(found, key=lambda h: [c.label() for c in h.coeffs])


@pytest.mark.parametrize("p, m, d, count", [
    (3, 4, 1, 8), (7, 1, 1, 6), (5, 3, 1, 8),
    (3, 1, 2, 3), (5, 1, 3, 3), (3, 2, 2, 4), (7, 1, 6, 2),
], ids=["3-4", "7-1", "5-3", "3-1-d2", "5-1-d3", "3-2-d2", "7-1-d6"])
def test_packed_split_draws_like_the_equal_degree_split(p, m, d, count):
    # the packed split consumes the random stream exactly as the
    # field-element rule's equal-degree split does and finds the same
    # factors
    K = stage_field(p, m)
    g = UniPoly(K, [K.one])
    for h in _irreducibles(random.Random(p * m + d), K, d, count):
        g = g * h
    S = exactfield._Packed(p, K.modulus, g.degree)
    ours, theirs = random.Random(1), random.Random(1)
    split = S.split(tuple(S.pack(c.coeffs) for c in g.coeffs), d, ours)
    reference = _field_element_rule_equal_degree_split(g, d, theirs)
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


class _DrawLimit(random.Random):
    """A stream that stops a split which never gives up."""

    def randrange(self, *args):
        self.draws = getattr(self, "draws", 0) + 1
        if self.draws > 10 ** 5:
            raise RuntimeError("the split keeps drawing")
        return super().randrange(*args)


def test_packed_inverse_of_a_zero_divisor_raises():
    # mod the reducible x^2 - 1 = (x - 1)(x + 1) over F_5, the extended
    # Euclid of x - 1 ends on a zero remainder
    S = exactfield._Packed(5, (4, 0, 1), 1)
    with pytest.raises(CertificateFailure,
                       match="^no inverse of a zero divisor mod the modulus$"):
        S.inverse(S.pack((4, 1)))


def test_packed_inverse_raises_on_every_zero_divisor_mod_a_reducible_cubic():
    # mod (x + 1)(x^2 + 1) = x^3 + x^2 + x + 1 over F_3, at m = 3 on the
    # residue-list Euclid, every multiple of either factor is no unit
    S = exactfield._Packed(3, (1, 1, 1, 1), 1)
    for v in ((1, 1), (1, 0, 1), (2, 2), (2, 0, 2), (1, 2, 1)):
        with pytest.raises(CertificateFailure,
                           match="^no inverse of a zero divisor mod the modulus$"):
            S.inverse(S.pack(v))
    assert S.inverse(S.pack((0, 1))) == S.pack((2, 2, 2))  # x (2 + 2x + 2x^2) = -(x^3 + x^2 + x) = 1


def test_packed_split_gives_up_on_an_irreducible():
    # x^2 + 2 is irreducible over F_5: no try splits it into linear factors
    S = exactfield._Packed(5, (0, 1), 2)
    start = time.perf_counter()
    with pytest.raises(CertificateFailure,
                       match="^no split of a polynomial of degree 2 into "
                             "factors of degree 1 in 128 tries$"):
        S.split((2, 0, 1), 1, _DrawLimit(0))
    assert time.perf_counter() - start < 1


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
    monkeypatch.setattr(exactfield, "_ROOTS_CACHE", {})
    monkeypatch.setattr(exactfield._Packed, "power", corrupt())
    f = _irreducibles(random.Random(4), PrimeField(5), 2, 1)[0]
    with pytest.raises(CertificateFailure, match=reason):
        roots_in(f, make_ext_field(5, 2))


def test_roots_in_raises_when_roots_go_missing(monkeypatch):
    # a split that loses the cubic factor leaves fewer roots than the
    # gcd's degree
    monkeypatch.setattr(exactfield, "_ROOTS_CACHE", {})
    monkeypatch.setattr(exactfield._Packed, "split",
                        _split_losing_cubics(exactfield._Packed.split))
    with pytest.raises(CertificateFailure,
                       match="^9 distinct roots for a gcd of degree 12$"):
        roots_in(_orbit_polynomial(), make_ext_field(5, 6))


def test_roots_in_serves_a_repeated_key_from_the_memo(monkeypatch):
    # f, 3 f and f read over F_{5^6} share one entry: the kernel runs
    # once, and every call gets fresh elements in a list of its own
    monkeypatch.setattr(exactfield, "_ROOTS_CACHE", {})
    f = _orbit_polynomial()
    K = make_ext_field(5, 6)
    first = roots_in(f, K)
    expected = _factor_roots(f, K)
    assert first == expected
    calls = []
    for cls, name in ((exactfield._Packed, "split"), (exactfield._Ring, "powmod")):
        monkeypatch.setattr(cls, name,
                            lambda self, *args, name=name, **kw: calls.append(name))
    first.append(K.zero)
    for g in (f, f * f.field.from_int(3), f.map_coefficients(K)):
        again = roots_in(g, K)
        assert again == expected and again is not first
        assert all(a is not b for a, b in zip(again, first))
        again.clear()
    assert calls == []


@pytest.mark.parametrize("fault", ["missing", "identity"])
def test_roots_in_stores_nothing_when_a_certificate_fails(monkeypatch, fault):
    # a corrupted kernel raises and leaves no entry, so the healthy kernel
    # computes the same key afresh
    monkeypatch.setattr(exactfield, "_ROOTS_CACHE", {})
    f, K = _orbit_polynomial(), make_ext_field(5, 6)
    with monkeypatch.context() as m:
        if fault == "missing":
            m.setattr(exactfield._Packed, "split",
                      _split_losing_cubics(exactfield._Packed.split))
        else:
            m.setattr(exactfield._Packed, "power", _identity_frobenius)
        with pytest.raises(CertificateFailure):
            roots_in(f, K)
    assert exactfield._ROOTS_CACHE == {}
    assert roots_in(f, K) == _factor_roots(f, K)


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


def _nonzero(rng, F):
    while True:
        c = F.element(tuple(rng.randrange(F.p) for _ in range(F.degree)))
        if not c.is_zero():
            return c


@pytest.mark.parametrize("shape, p, m", [
    (shape, p, m) for shape in sorted(SHAPES)
    for p, m in [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)] + [(p, 1) for p in BIG_PRIMES]
    # a polynomial in y^p has degree at least p
    if shape != "derivative-zero" or p < 100])
def test_factoring_matches_the_field_element_rule(shape, p, m):
    rng = random.Random("%s-%d-%d" % (shape, p, m))
    F = stage_field(p, m)
    for _ in range(4 if p < 100 else 2):
        f = SHAPES[shape](rng, F) * _nonzero(rng, F)
        expected = _field_element_rule_factor(f)
        assert factor_univariate(f, random.Random(rng.randrange(10 ** 6))) == expected
        others = [h for h, _ in expected[1]] + [
            _random_poly(rng, F, rng.randrange(1, 5)) for _ in range(3)]
        for g in [f] + others:
            assert _is_irreducible(g) == _field_element_rule_is_irreducible(g), g


@pytest.mark.parametrize("p, m, n, degrees", [
    (5, 1, 6, (1, 2, 2, 3, 3, 6)), (3, 1, 3, (3, 3)), (7, 1, 6, (6, 6)),
    (3, 2, 4, (1, 2, 4, 4)),
], ids=["5-1-n6", "3-1-n3", "7-1-n6", "3-2-n4"])
def test_degree_blocks_at_the_divisors_of_n(p, m, n, degrees):
    # the orbit route tries only the d dividing n, and the rest at d = n
    # may hold several factors of degree n: one block of degree n
    K = stage_field(p, m)
    g = UniPoly(K, [K.one])
    for d in sorted(set(degrees)):
        for h in _irreducibles(random.Random(p * m + d), K, d, degrees.count(d)):
            g = g * h
    S = exactfield._Packed(p, K.modulus, g.degree)
    gp = tuple(S.pack(c.coeffs) for c in g.coeffs)
    reference = [(tuple(c.coeffs for c in b.coeffs), d)
                 for b, d in _field_element_rule_distinct_degree(g)]
    for blocks in (S.degree_blocks(gp, n), S.degree_blocks(gp)):
        assert [(tuple(map(S.unpack, b)), d) for b, d in blocks] == reference


def test_factor_univariate_does_no_field_element_arithmetic(monkeypatch):
    # the degree-64 polynomial of the first points-stage shape over F_3:
    # its factors of degree dividing 4 hold its roots in F_81
    monkeypatch.setitem(sys.modules, "oracles", _load("oracles", ORACLES))
    workloads = _load("bench_workloads", BENCH / "workloads.py")
    op = workloads.points_stage(3)[0]
    f = UniPoly.from_ints(PrimeField(3), op["oracle"]["f"])
    assert f.degree == 64
    calls = []
    mul = FieldElement.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    unit, factors = factor_univariate(f)
    assert calls == []
    monkeypatch.undo()
    product = UniPoly(f.field, [unit])
    for g, mult in factors:
        for _ in range(mult):
            product = product * g
    assert product == f
    assert sum(g.degree for g, _ in factors if 4 % g.degree == 0) == \
        op["oracle"]["count"]


def test_roots_in_reads_residue_coefficients_over_f_p(monkeypatch):
    # f over F_{5^6} with F_5 coefficients takes the orbit route: no
    # split of g into linear factors runs on F_{5^6}'s packing
    monkeypatch.setattr(exactfield, "_ROOTS_CACHE", {})
    K = make_ext_field(5, 6)
    f = _orbit_polynomial().map_coefficients(K)
    splits = []
    split = exactfield._Packed.split

    def recorded(self, g, d, rng, first=False):
        splits.append((self.m, d, first))
        return split(self, g, d, rng, first)

    monkeypatch.setattr(exactfield._Packed, "split", recorded)
    rs = roots_in(f, K)
    monkeypatch.undo()
    assert (6, 1, False) not in splits and (1, 1, False) in splits
    assert len(rs) == 12 and rs == _factor_roots(f, K)


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
