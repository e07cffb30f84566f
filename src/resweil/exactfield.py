"""Exact arithmetic in F_p and its extension stages F_{p^m}.

A stage F_{p^m} is represented as F_p[x]/(f) where f is the modulus picked
deterministically: the first monic irreducible of degree m when coefficient
vectors (c_0, ..., c_{m-1}) are enumerated in lexicographic order.  Elements
are coefficient vectors in the same low-to-high convention, and every
ordering exposed by the package (roots, point lists, labels) is the
lexicographic order on those vectors.

The characteristic is kept odd and below 2**31 so that equal-degree
splitting can use the classical quadratic-residue trick and single word
arithmetic stays exact.

Products, and everything built on them, run on `_Packed`, a kernel on
plain ints.  Each stage has one packing (`_stage_packing`, memoized per (p, modulus) and held
by the field as `packing`).  `FieldElement` multiplies on it: pack both
factors, one int multiply, `reduce`, unpack (`a * b % p` at F_p).  It
inverts by `_Packed.inverse`, the extended Euclid of the coefficients
and the modulus on the prime stage's packing.  `frobenius` and `embed`
send an element where the generator goes, by one Horner step per
coefficient at the generator's packed image (`_at_image`): a^p, found
once per stage by square-and-multiply on the prime packing, and for
`embed` the label-smallest root of the parent modulus in the target,
found once per pair of stages; `_orbit_roots` carries coefficients into
K the same way.  `multipoly` runs its polynomial arithmetic on the same
packing.

Root finding (`roots_in`), factoring (`factor_univariate`) and Rabin's
irreducibility test (`is_irreducible`, which also picks each modulus)
run on packings sized to the polynomial's degree.  There is one
distinct-degree pass (`_Packed.degree_blocks`) and one Cantor-Zassenhaus
split (`_Packed.split`); factoring runs them on each squarefree part of
f (Yun's gcds, and a p-th root where f' = 0).
The roots of f in a stage K come in Frobenius orbits: g =
gcd(f, x^|K| - x) is split over f's own coefficient field F, read as
F_p when every coefficient is a residue, by degrees and then within each
degree, and an irreducible factor of degree d is split over K only down
to one root r, whose orbit r, r^|F|, ..., r^(|F|^(d-1)) gives the rest.
At F = F_p everything but that last split runs on one-slot ints.  Each
orbit must close after d steps on d distinct roots, and the roots must
number deg g, or `roots_in` raises `CertificateFailure`; so does a split
that finds no factor in `_SPLIT_TRIES` tries, as on an input that is no
product of distinct irreducibles of one degree.  Root sets are kept for
the life of the process per (F, monic f, K), like fields and
embeddings, and only a computation that passed its certificates is kept.

A stage element c_0 + ... + c_{m-1} a^(m-1) is one int with a k-bit slot
per coefficient, so the product of two elements is one C-level multiply
whose 2m - 1 slots hold the unreduced coefficients of their product.
Sums of such products are left unreduced; an element is reduced (each
slot mod p, then the high slots folded back through a^(m+t) mod the
modulus) only when it is read: a leading coefficient during division, or
the end of a product.  The value bound b is the bit length of
(2D + 2) m p^2 for polynomials of degree up to D: no slot of a product
of two remainders plus a division by a polynomial of degree D reaches
2^b.  A slot is k = 2b + 1 bits, room for a slot value times a
(b + 1)-bit magic constant, so every slot is reduced at once by
division by an invariant integer (Granlund and Montgomery):
x * magic >> shift, masked to each slot's quotient bits, is x // p slot
by slot, in a constant number of int operations for any m, and folding
the m - 1 high slots back takes one more such pass.  Past 2^b a slot
gets a wrong residue instead of carrying, so every caller keeps its sums
inside the degree it declares.  The prime stage is m = 1, and the same
code serves every p < 2**31 and m <= 24; at m = 1 a reduction is one
`x % p`.
`mat_vec` serves `finalg`'s linear models and `weilres` checks points
against their relations on the packing, inside the same bound.  Every
elimination in the package runs on `_Packed.echelon`, a Gauss-Jordan
reduction of dense rows of reduced entries whose eliminated entries are
each one product plus a reduced entry, reduced at once; `kernel` and
`solve` read their results off it.  There are no Zech-log tables:
stages reach 7^6 elements for a handful of calls, so a table would cost
more to build in a fresh process than it saves, and stages beyond any
table size would need a second path.
`FieldElement` and `UniPoly` stay the public value types: labels,
hashing and reports read their coefficient vectors.  The reference
arithmetic lives in `tests/test_exactfield.py`: element arithmetic on
plain residue lists (`_list_rule_*`), and factoring on `UniPoly`
(`_field_element_rule_*`), the route the tests compare
`factor_univariate`, `is_irreducible` and `roots_in` with; the
field-element elimination the echelon is compared with is
`tests/test_echelon.py`'s `_linalg_rule_*`.
"""

from __future__ import annotations

import random

from .errors import (
    CertificateFailure,
    DegreeGuardExceeded,
    IncompatibleDegrees,
    NonPrime,
    ZeroPolynomial,
)

MAX_DEGREE = 24
MAX_CHAR = 2 ** 31

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# A try of `_Packed.split` on a product of distinct irreducibles of
# degree d fails with probability at most 1/2, so this many all fail
# with probability below 10^-38; any other input may never split.
_SPLIT_TRIES = 128


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond 2**31 with these bases
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# packed stage arithmetic: the one kernel

class _Packed:
    """Polynomials over one stage F_p[a]/(mod), each coefficient one int.

    The coefficient c_0 + c_1 a + ... + c_{m-1} a^(m-1) is packed as
    sum c_i 2^(k i), so the product of two coefficients is one int
    multiply whose k-bit slots hold the 2m - 1 coefficients of their
    product in F_p[a].  Sums of such products are left unreduced, and a
    coefficient is reduced, each slot mod p and then the slots from m
    on folded back through a^(m + t) mod the modulus, only where it is
    read: a leading coefficient during division, a remainder, or a
    value returned.  A slot value must stay below 2^b, b the value bound
    of `degree`; k = 2b + 1 leaves room to reduce every slot at once by
    one multiply by `magic`, a shift and a mask.  Polynomials are tuples
    of reduced coefficients, low degree first and trimmed, except the
    unreduced product `mul` returns.  Matrices are sparse columns of
    (index, entry) pairs for `mat_vec`, and dense rows of reduced
    entries for `echelon`, `kernel` and `solve`; `rows` turns the one
    into the other.  The prime stage is m = 1 with the modulus a.
    """

    __slots__ = ("p", "m", "mod", "b", "k", "mask", "narrow", "high",
                 "ps", "fold", "shift", "magic", "qmask")

    def __init__(self, p, mod, degree):
        m = len(mod) - 1
        # An unreduced slot sums at most 2 * degree + 2 products of two
        # coefficients, each below m p^2 in every slot: a product of two
        # polynomials of degree below `degree`, then the rows of a
        # division by one of degree `degree`.  That stays below 2^b, and
        # a slot of k = 2b + 1 bits holds it times `magic` without a carry.
        self.b = ((2 * degree + 2) * m * p * p).bit_length()
        self.k = 2 * self.b + 1
        self.mask = (1 << self.k) - 1
        self.p, self.m, self.mod = p, m, mod
        slots = range(0, (2 * m - 1) * self.k, self.k)
        self.narrow, self.high = slots[:m], slots[m:]
        # x // p = x * magic >> shift for every x < 2^b (Granlund and
        # Montgomery): magic = ceil(2^shift / p) with shift = b + ceil(log2 p)
        # misses 2^shift / p by less than 2^(shift - b) / p.  The quotient
        # of a slot is below 2^(b + 1 - ceil(log2 p)), the bits qmask keeps;
        # the low bits of the slot above land just over them.
        log_p = (p - 1).bit_length()
        self.shift = self.b + log_p
        self.magic = -(-(1 << self.shift) // p)
        self.qmask = self.pack([(1 << (self.b + 1 - log_p)) - 1] * (2 * m - 1))
        # p in every slot: x + ps - y is x - y without a borrow
        self.ps = self.pack([p] * m)
        # fold[t] = a^(m + t) mod the modulus
        self.fold = []
        top = [(-c) % p for c in mod[:m]]
        for _ in range(m - 1):
            self.fold.append(self.pack(top))
            lead, top = top[-1], [0] + top[:-1]
            top = [(c - lead * d) % p for c, d in zip(top, mod)]

    def pack(self, cs):
        x = 0
        for c in reversed(cs):
            x = x << self.k | c
        return x

    def unpack(self, x):
        mask = self.mask
        return tuple(x >> s & mask for s in self.narrow)

    def reduce(self, x):
        """x with every slot mod p and the slots from m on folded back;
        each slot of x must be below 2^b."""
        if self.m == 1:
            return x % self.p
        p, magic, shift, qmask = self.p, self.magic, self.shift, self.qmask
        x -= (x * magic >> shift & qmask) * p
        low = self.high[0]
        high = x >> low
        if high:  # each high slot is below p, each folded slot below m p^2
            k, mask = self.k, self.mask
            x ^= high << low
            for a in self.fold:
                x += (high & mask) * a
                high >>= k
            x -= (x * magic >> shift & qmask) * p
        return x

    def inverse(self, x):
        """1 / x for a reduced x != 0: by Fermat in F_p, else by the
        extended Euclid of x's coefficients and the modulus, run on the
        prime stage's packing, where every slot is one residue."""
        p = self.p
        if x <= self.mask:  # an element of F_p
            return pow(x, p - 2, p)
        P = _stage_packing(p, PrimeField.modulus)
        red = P.reduce
        # u0 x = r0 and u1 x = r1 mod the modulus, r1 down to a constant
        r0, r1 = self.mod, _trim(self.unpack(x))
        u0, u1 = (), (1,)
        while len(r1) > 1:
            q, r = P.divmod(r0, r1)
            r0, r1 = r1, r
            u0, u1 = u1, P.sub(u0, [red(c) for c in P.mul(q, u1)])
        inv = pow(r1[0], p - 2, p)
        return self.pack([red(c * inv) for c in u1])

    def sub(self, a, b):
        n = max(len(a), len(b))
        a = tuple(a) + (0,) * (n - len(a))
        b = tuple(b) + (0,) * (n - len(b))
        ps, red = self.ps, self.reduce
        return _trim([red(x + ps - y) for x, y in zip(a, b)])

    def mul(self, a, b):
        """The product of a and b with unreduced coefficients."""
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return out

    def mat_vec(self, cols, vec):
        """Square matrix (cols[j] is column j) times vector, all sparse
        (index, entry) pairs; an entry sums len(vec) <= degree products."""
        out = [0] * len(cols)
        for j, c in vec:
            for i, a in cols[j]:
                out[i] += a * c
        red = self.reduce
        return [(i, r) for i, x in enumerate(out) if x and (r := red(x))]

    @staticmethod
    def rows(cols, n):
        """The n dense rows of the matrix with sparse columns cols."""
        out = [[0] * len(cols) for _ in range(n)]
        for j, col in enumerate(cols):
            for i, a in col:
                out[i][j] = a
        return out

    def echelon(self, rows):
        """Bring dense rows of reduced entries to reduced row echelon form,
        in place, and return the pivot columns.

        Each column takes the first row from the current one down with a
        nonzero entry as its pivot, so the result is deterministic.  The
        pivot row is scaled by `inverse` of its pivot, and every other
        row with an entry f in the pivot column becomes a + (ps - f) b
        entry by entry, one product of reduced entries plus a reduced
        entry: inside the value bound of any degree.
        """
        red, ps = self.reduce, self.ps
        pivots = []
        r, n = 0, len(rows)
        for c in range(len(rows[0]) if rows else 0):
            if r == n:
                break
            i = next((i for i in range(r, n) if rows[i][c]), None)
            if i is None:
                continue
            rows[r], rows[i] = rows[i], rows[r]
            row, inv = rows[r], self.inverse(rows[r][c])
            nonzero = [j for j in range(c, len(row)) if row[j]]
            if inv != 1:
                for j in nonzero:
                    row[j] = red(row[j] * inv)
            for i, other in enumerate(rows):
                if i != r and (f := other[c]):
                    f = ps - f
                    for j in nonzero:
                        other[j] = red(other[j] + f * row[j])
            pivots.append(c)
            r += 1
        return pivots

    def kernel(self, rows):
        """Basis of the right kernel of dense rows, one dense vector per
        free column: 1 there, minus that column's entries at the pivots."""
        width = len(rows[0]) if rows else 0
        pivots = self.echelon(rows)
        red, ps = self.reduce, self.ps
        out = []
        for free in sorted(set(range(width)) - set(pivots)):
            vec = [0] * width
            vec[free] = 1
            for row, c in zip(rows, pivots):
                if row[free]:
                    vec[c] = red(ps - row[free])
            out.append(vec)
        return out

    def solve(self, rows, width):
        """For dense rows [M | B], M of `width` columns, one dense x with
        M x = b per column b of B, its free unknowns zero; None when some
        b is not in the span of M's columns."""
        pivots = self.echelon(rows)
        if pivots and pivots[-1] >= width:
            return None
        out = [[0] * width for _ in range(len(rows[0]) - width if rows else 0)]
        for row, c in zip(rows, pivots):
            for x, a in zip(out, row[width:]):
                x[c] = a
        return out

    def divmod(self, a, b):
        """Quotient and remainder of a by b != 0; a may be unreduced."""
        red, ps = self.reduce, self.ps
        db = len(b) - 1
        inv = self.inverse(b[-1])
        rem = list(a)
        quo = [0] * max(len(a) - db, 0)
        low = b[:-1]
        for i in range(len(a) - 1, db - 1, -1):
            c = red(rem[i])
            if c:
                q = quo[i - db] = c if inv == 1 else red(c * inv)
                nq = ps - q
                for j, y in enumerate(low, i - db):
                    rem[j] += nq * y
        return _trim(quo), _trim([red(c) for c in rem[:db]])

    def monic(self, a):
        if not a:
            return a
        inv = self.inverse(a[-1])
        if inv == 1:
            return a
        return tuple(self.reduce(c * inv) for c in a)

    def gcd(self, a, b):
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.monic(a)

    def powmod(self, a, e, f):
        result = self.divmod((1,), f)[1]
        base = self.divmod(a, f)[1]
        while e:
            if e & 1:
                result = self.divmod(self.mul(result, base), f)[1]
            e >>= 1
            if e:
                base = self.divmod(self.mul(base, base), f)[1]
        return result

    def power(self, x, e):
        """x^e for one reduced coefficient x."""
        result = 1
        while e:
            if e & 1:
                result = self.reduce(result * x)
            e >>= 1
            if e:
                x = self.reduce(x * x)
        return result

    def squarefree(self, g, mult=1):
        """(part, multiplicity) pairs of a monic g, each part squarefree
        and monic, every irreducible factor of g in exactly one part:
        Yun's gcds with g', and where g' = 0 the p-th root c^(p^(m-1)) of
        each coefficient of g, a polynomial in x^p."""
        if len(g) < 2:
            return []
        p, e = self.p, self.p ** (self.m - 1)

        def root(h):
            return tuple(self.power(c, e) for c in h[::p])
        dg = _trim([self.reduce(i % p * c) for i, c in enumerate(g)][1:])
        if not dg:
            return self.squarefree(root(g), mult * p)
        w = self.gcd(g, dg)
        v = self.divmod(g, w)[0]
        parts, i = [], mult
        while len(v) > 1:
            y = self.gcd(v, w)
            z = self.divmod(v, y)[0]
            if len(z) > 1:
                parts.append((z, i))
            v, w = y, self.divmod(w, y)[0]
            i += mult
        return parts + self.squarefree(root(w), mult * p)

    def degree_blocks(self, g, n=None):
        """Distinct degrees: (block, d) pairs for a squarefree monic g,
        block the product of g's irreducible factors of degree d, read
        off x^(q^d) for q the order of the stage.  With n, the degree of
        every factor divides n: only those d are tried, and at d = n the
        rest is the last block."""
        q, x = self.p ** self.m, (0, 1)
        blocks = []
        rest, power, done, d = g, x, 0, 0
        while len(rest) > 1:
            d += 1
            if len(rest) - 1 < 2 * d:  # every factor has degree >= d
                blocks.append((rest, len(rest) - 1))
                break
            if n and n % d:
                continue
            if d == n:
                blocks.append((rest, n))
                break
            for _ in range(d - done):
                power = self.powmod(power, q, rest)
            done = d
            block = self.gcd(self.sub(power, x), rest)
            if len(block) > 1:
                blocks.append((block, d))
                rest = self.divmod(rest, block)[0]
                power = self.divmod(power, rest)[1]
        return blocks

    def irreducible(self, f):
        """Rabin's test for a monic f of degree n over this stage:
        x^(q^n) = x mod f, and x^(q^(n/l)) - x is prime to f for each
        prime l dividing n, q the order of the stage."""
        n = len(f) - 1
        if n < 1:
            return False
        q = self.p ** self.m
        powers = [self.divmod((0, 1), f)[1]]
        for _ in range(n):
            powers.append(self.powmod(powers[-1], q, f))
        return powers[n] == powers[0] and all(
            self.gcd(self.sub(powers[n // ell], powers[0]), f) == (1,)
            for ell in _prime_divisors(n))

    def split(self, g, d, rng, first=False):
        """Cantor-Zassenhaus: the monic irreducible factors of a monic g
        that is a product of distinct ones of degree d.  With first, only
        the factor reached by following the smaller half of every split.
        Each try draws deg g coefficients from rng, each as m residues,
        low degree and low slot first; `_SPLIT_TRIES` tries without a
        factor raise `CertificateFailure`."""
        n = len(g) - 1
        if n == d:
            return [g]
        p, m = self.p, self.m
        half = (p ** (m * d) - 1) // 2
        for _ in range(_SPLIT_TRIES):
            r = _trim([self.pack([rng.randrange(p) for _ in range(m)])
                       for _ in range(n)])
            if len(r) < 2:
                continue
            a = self.gcd(r, g)
            if not 0 < len(a) - 1 < n:
                a = self.gcd(self.sub(self.powmod(r, half, g), (1,)), g)
                if not 0 < len(a) - 1 < n:
                    continue
            b = self.divmod(g, a)[0]
            if first:
                return self.split(min(a, b, key=len), d, rng, True)
            return self.split(a, d, rng) + self.split(b, d, rng)
        raise CertificateFailure("no split of a polynomial of degree %d into "
                                 "factors of degree %d in %d tries"
                                 % (n, d, _SPLIT_TRIES))


# ---------------------------------------------------------------------------
# fields

class FieldElement:
    """An element of a PrimeField or ExtField, stored as a coefficient vector."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return other
            raise IncompatibleDegrees(
                "elements of %r and %r do not mix" % (self.field, other.field))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(self.field, tuple(
            (a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(self.field, tuple(
            (a - b) % p for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-c) % p for c in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        if f.degree == 1:
            return FieldElement(f, (self.coeffs[0] * o.coeffs[0] % f.p,))
        S = f.packing
        return FieldElement(f, S.unpack(S.reduce(S.pack(self.coeffs) * S.pack(o.coeffs))))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in %r" % (self.field,))
        f = self.field
        if f.degree == 1:
            return FieldElement(f, (pow(self.coeffs[0], f.p - 2, f.p),))
        S = f.packing
        return FieldElement(f, S.unpack(S.inverse(S.pack(self.coeffs))))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        f = self.field
        if f.degree == 1:
            return FieldElement(f, (pow(self.coeffs[0], e, f.p),))
        S = f.packing
        return FieldElement(f, S.unpack(S.power(S.pack(self.coeffs), e)))

    def is_zero(self):
        return not any(self.coeffs)

    def label(self):
        """Canonical sortable label: the coefficient vector itself."""
        return self.coeffs

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.degree, self.coeffs))

    def __repr__(self):
        f = self.field
        if f.degree == 1:
            return "F%d(%d)" % (f.p, self.coeffs[0])
        return "F%d_%d%r" % (f.p, f.degree, list(self.coeffs))


class PrimeField:
    """The prime field F_p for an odd prime p below 2**31."""

    __slots__ = ("p", "zero", "one", "packing")
    degree = 1
    modulus = (0, 1)  # F_p is F_p[x]/(x)

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise NonPrime("p = %r is not prime" % (p,))
        if not (2 < p < MAX_CHAR):
            raise NonPrime("p = %r outside the supported range 2 < p < 2**31" % (p,))
        self.p = p
        self.zero = FieldElement(self, (0,))
        self.one = FieldElement(self, (1,))
        self.packing = _stage_packing(p, self.modulus)

    @property
    def order(self):
        return self.p

    def _pad(self, coeffs):
        return coeffs if coeffs else (0,)

    def from_int(self, a):
        return FieldElement(self, (a % self.p,))

    def element(self, coeffs):
        if len(coeffs) != 1:
            raise IncompatibleDegrees(
                "%d coefficients for an element of F_%d" % (len(coeffs), self.p))
        return FieldElement(self, (coeffs[0] % self.p,))

    def __iter__(self):
        for a in range(self.p):
            yield FieldElement(self, (a,))

    def __eq__(self, other):
        if isinstance(other, PrimeField):
            return self.p == other.p
        return NotImplemented

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


class ExtField:
    """The stage F_{p^m} presented as F_p[x]/(modulus)."""

    __slots__ = ("base", "p", "degree", "_mod", "packing", "zero", "one", "gen",
                 "_frob_gen")

    def __init__(self, base: PrimeField, degree: int, modulus):
        self.base = base
        self.p = base.p
        self.degree = degree
        self._mod = modulus  # int tuple, monic, low degree first
        self.packing = _stage_packing(self.p, modulus)
        self.zero = FieldElement(self, (0,) * degree)
        self.one = FieldElement(self, self._pad((1,)))
        self.gen = FieldElement(self, self._pad((0, 1))) if degree > 1 else self.one
        # a^p for the generator a, packed: `frobenius` evaluates at it
        self._frob_gen = self.packing.pack(
            base.packing.powmod((0, 1), self.p, modulus))

    @property
    def order(self):
        return self.p ** self.degree

    @property
    def modulus(self):
        return self._mod

    def _pad(self, coeffs):
        if len(coeffs) < self.degree:
            return tuple(coeffs) + (0,) * (self.degree - len(coeffs))
        return tuple(coeffs[: self.degree])

    def from_int(self, a):
        return FieldElement(self, self._pad((a % self.p,)))

    def element(self, coeffs):
        if len(coeffs) > self.degree:
            raise IncompatibleDegrees("%d coefficients for an element of %r"
                                      % (len(coeffs), self))
        return FieldElement(self, self._pad(tuple(c % self.p for c in coeffs)))

    def __iter__(self):
        # lexicographic on coefficient vectors
        def rec(prefix):
            if len(prefix) == self.degree:
                yield FieldElement(self, tuple(prefix))
                return
            for c in range(self.p):
                yield from rec(prefix + [c])
        yield from rec([])

    def __eq__(self, other):
        if isinstance(other, ExtField):
            return self.p == other.p and self.degree == other.degree and self._mod == other._mod
        return NotImplemented

    def __hash__(self):
        return hash(("ext", self.p, self.degree, self._mod))

    def __repr__(self):
        return "ExtField(%d, %d)" % (self.p, self.degree)


_FIELD_CACHE: dict = {}
_EMBED_CACHE: dict = {}
_ROOTS_CACHE: dict = {}
_PACKING_CACHE: dict = {}


def _stage_packing(p, mod):
    """The one packing of the stage F_p[a]/(mod), memoized per (p, mod):
    `FieldElement` products and inverses, `frobenius`, `embed` and
    `multipoly`'s polynomial arithmetic all run on it.  Its value bound
    holds a division by a polynomial of degree `MAX_DEGREE`, so on the
    prime stage the extended Euclid of `_Packed.inverse` divides by the
    modulus of any stage."""
    S = _PACKING_CACHE.get((p, mod))
    if S is None:
        S = _PACKING_CACHE[(p, mod)] = _Packed(p, mod, MAX_DEGREE)
    return S


def make_ext_field(p: int, m: int) -> ExtField:
    """Build F_{p^m} with the deterministic modulus, memoized per (p, m)."""
    base = PrimeField(p)  # validates p
    if not isinstance(m, int) or m < 1 or m > MAX_DEGREE:
        raise DegreeGuardExceeded("extension degree m = %r outside 1..%d" % (m, MAX_DEGREE))
    cached = _FIELD_CACHE.get((p, m))
    if cached is not None:
        return cached
    field = _FIELD_CACHE[(p, m)] = ExtField(base, m, _search_modulus(p, m))
    return field


def _search_modulus(p, m):
    # enumerate coefficient vectors (c_0, ..., c_{m-1}) lexicographically;
    # for m > 1 a zero constant term forces the factor x, so that whole
    # block is skipped without changing which vector comes first
    S = _stage_packing(p, PrimeField.modulus)

    def rec(prefix):
        if len(prefix) == m:
            f = tuple(prefix) + (1,)
            if S.irreducible(f):
                return f
            return None
        start = 1 if (not prefix and m > 1) else 0
        for c in range(start, p):
            got = rec(prefix + [c])
            if got is not None:
                return got
        return None

    f = rec([])
    if f is None:
        raise CertificateFailure("no irreducible of degree %d over F_%d" % (m, p))
    return f


def stage_field(p: int, n: int):
    """The stage of degree n over F_p; n = 1 gives the prime stage itself."""
    if n == 1:
        return PrimeField(p)
    return make_ext_field(p, n)


def _at_image(S, cs, image):
    """c_0 + c_1 a + ... at a = image, for residues cs and image packed
    in S: Horner's rule, one reduction a step.  `frobenius`, `embed` and
    `_orbit_roots` map an element this way, by where it sends the
    generator."""
    acc = 0
    for c in reversed(cs):
        acc = S.reduce(acc * image + c)
    return acc


def frobenius(x: FieldElement) -> FieldElement:
    """The arithmetic Frobenius a -> a^p."""
    f = x.field
    if f.degree == 1:
        return x
    S = f.packing
    return FieldElement(f, S.unpack(_at_image(S, x.coeffs, f._frob_gen)))


def embed(x: FieldElement, target) -> FieldElement:
    """Canonical embedding of x into a larger stage.

    The parent degree must divide the target degree.  The image of the
    parent generator is the label-smallest root of the parent modulus in
    the target, fixed once per pair of stages; this commutes with
    Frobenius because any ring embedding does.
    """
    src = x.field
    if src == target:
        return x
    if target.degree % src.degree != 0:
        raise IncompatibleDegrees(
            "degree %d does not divide %d" % (src.degree, target.degree))
    if src.p != target.p:
        raise IncompatibleDegrees("different characteristics %d and %d" % (src.p, target.p))
    if src.degree == 1:
        return target.from_int(x.coeffs[0])
    T = target.packing
    key = (src.p, src._mod, target.modulus)
    image = _EMBED_CACHE.get(key)
    if image is None:
        rs = roots_in(UniPoly.from_ints(src.base, src._mod), target)
        if not rs:
            raise CertificateFailure("modulus has no root in the larger stage")
        image = _EMBED_CACHE[key] = T.pack(rs[0].coeffs)
    return FieldElement(target, T.unpack(_at_image(T, x.coeffs, image)))


# ---------------------------------------------------------------------------
# univariate polynomials over any stage

class UniPoly:
    """Dense univariate polynomial with FieldElement coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(a) for a in ints])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] + c
        return UniPoly(self.field, a)

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] = a[i] - c
        return UniPoly(self.field, a)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return UniPoly(self.field, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly(self.field, [])
        z = self.field.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x.is_zero():
                continue
            for j, y in enumerate(other.coeffs):
                out[i + j] = out[i + j] + x * y
        return UniPoly(self.field, out)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        f = self.field
        inv = other.coeffs[-1].inverse()
        rem = list(self.coeffs)
        db = other.degree
        if self.degree < db:
            return UniPoly(f, []), self
        quo = [f.zero] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c.is_zero():
                continue
            q = c * inv
            quo[i - db] = q
            for j, b in enumerate(other.coeffs):
                rem[i - db + j] = rem[i - db + j] - q * b
        return UniPoly(f, quo), UniPoly(f, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            raise ZeroPolynomial("monic of zero")
        inv = self.coeffs[-1].inverse()
        return UniPoly(self.field, [c * inv for c in self.coeffs])

    def evaluate(self, x: FieldElement) -> FieldElement:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map_coefficients(self, target):
        """Push coefficients into a larger stage via the canonical embedding."""
        return UniPoly(target, [embed(c, target) for c in self.coeffs])

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        bits = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            bits.append("%r*x^%d" % (c, i))
        return "UniPoly(%s)" % " + ".join(bits)


def _packed(f: UniPoly, F):
    """The packing of the stage F, which holds f's coefficients, and f
    made monic on it."""
    S = _Packed(F.p, F.modulus, f.degree)
    return S, S.monic(tuple(S.pack(c.coeffs[:F.degree]) for c in f.coeffs))


def is_irreducible(f: UniPoly) -> bool:
    """Rabin's deterministic criterion over the coefficient stage."""
    if f.is_zero():
        raise ZeroPolynomial("irreducibility of zero")
    S, fp = _packed(f, f.field)
    return S.irreducible(fp)


def factor_univariate(f: UniPoly, rng: random.Random | None = None):
    """Full factorization into monic irreducibles with multiplicities.

    Returns (unit, [(factor, multiplicity), ...]) with factors sorted by
    degree then coefficient labels, so the output does not depend on the
    random stream used for equal-degree splitting.  f is factored on its
    coefficient stage's packing: squarefree parts, then the distinct-degree
    pass and the equal-degree split that `roots_in` runs.
    """
    if f.is_zero():
        raise ZeroPolynomial("factor of zero")
    if rng is None:
        rng = random.Random(0)
    F = f.field
    S, fp = _packed(f, F)
    found = []
    for part, mult in S.squarefree(fp):
        for block, d in S.degree_blocks(part):
            for h in S.split(block, d, rng):
                coeffs = [FieldElement(F, S.unpack(c)) for c in h]
                found.append((UniPoly(F, coeffs), mult))
    found.sort(key=lambda fm: (fm[0].degree, tuple(c.label() for c in fm[0].coeffs)))
    return f.coeffs[-1], found


def roots_in(f: UniPoly, field) -> list:
    """Roots of f inside the given stage, in label order.

    The coefficients of f may lie in any subfield stage F of the target
    stage K.  The gcd g = gcd(f, x^|K| - x) is taken over F: it is
    squarefree and has exactly the roots of f in K, without factoring f.
    F is read as F_p when every coefficient of f is a residue.  When
    F = K an equal-degree split of g into linear factors reads off the
    roots.  Otherwise they come in Frobenius orbits, one per irreducible
    factor of g over F (`_orbit_roots`), found by the distinct-degree
    pass and the equal-degree split that `factor_univariate` runs.  All
    of it runs on packed coefficients (`_Packed`); only the roots come
    back as field elements.

    The sorted root coefficient tuples are memoized for the life of the
    process, like fields and embeddings, per (F, f made monic on F's
    packing, target stage): c f, and f over a larger stage with residue
    coefficients, share an entry.  The computation is deterministic, so
    a second call reads what it would recompute; the certificates run on
    the call that fills an entry, and a raise stores nothing.  Every
    call builds fresh field elements.
    """
    if f.is_zero():
        raise ZeroPolynomial("roots of the zero polynomial")
    F = f.field
    if F.p != field.p or field.degree % F.degree:
        raise IncompatibleDegrees("roots in %r of a polynomial over %r"
                                  % (field, F))
    if F.degree > 1 and not any(any(c.coeffs[1:]) for c in f.coeffs):
        F = F.base  # residue coefficients: the orbit route over F_p
    S, fp = _packed(f, F)
    key = (F, fp, field)
    if key not in _ROOTS_CACHE:
        _ROOTS_CACHE[key] = _roots(S, fp, F, field)
    return [FieldElement(field, r) for r in _ROOTS_CACHE[key]]


def _roots(S, fp, F, K):
    """The sorted roots in K, as coefficient tuples, of the monic fp over
    F packed in S."""
    x = (0, 1)
    g = S.gcd(fp, S.sub(S.powmod(x, K.order, fp), x))
    if len(g) < 2:
        return ()
    rng = random.Random(0)
    if F == K:
        roots = [S.unpack(S.reduce(S.ps - h[0])) for h in S.split(g, 1, rng)]
    else:
        roots = _orbit_roots(S, g, F, K, rng)
    if len(set(roots)) != len(g) - 1:
        raise CertificateFailure("%d distinct roots for a gcd of degree %d"
                                 % (len(set(roots)), len(g) - 1))
    return tuple(sorted(roots))


def _orbit_roots(S, g, F, K, rng):
    """The roots in K, as coefficient tuples, of g, a squarefree product
    over the proper subfield F packed in S.

    Every irreducible factor of g over F has a degree d dividing
    n = [K:F].  `_Packed.degree_blocks(g, n)`, the distinct-degree pass
    of `factor_univariate` tried at those d only, gives the product of
    the factors of each degree on F's packing, and `_Packed.split` the
    factors.  A linear factor is its root.  A factor h of
    degree d > 1 is split over K only along the smaller half of every
    split, down to one root r; its other roots are the orbit r^|F|,
    r^(|F|^2), ..., which must close after d steps on d distinct roots.
    """
    n, q = K.degree // F.degree, F.order
    T = _Packed(K.p, K.modulus, n)
    if F.degree == 1:
        def into(c):  # an F_p residue is the same int in every packing
            return c
    else:
        image = T.pack(embed(F.gen, K).coeffs)

        def into(c):
            return _at_image(T, S.unpack(c), image)
    roots = []
    for block, d in S.degree_blocks(g, n):
        for h in S.split(block, d, rng):
            if d == 1:
                roots.append(into(S.reduce(S.ps - h[0])))
                continue
            lin = T.split(tuple(map(into, h)), 1, rng, first=True)[0]
            orbit = [T.reduce(T.ps - lin[0])]
            for _ in range(d - 1):
                orbit.append(T.power(orbit[-1], q))
            if T.power(orbit[-1], q) != orbit[0]:
                raise CertificateFailure(
                    "a Frobenius orbit does not close after %d steps" % d)
            if len(set(orbit)) != d:
                raise CertificateFailure("a Frobenius orbit repeats a root")
            roots += orbit
    return [T.unpack(r) for r in roots]
