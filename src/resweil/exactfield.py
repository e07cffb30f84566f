"""Exact arithmetic in F_p and its extension stages F_{p^m}.

A stage F_{p^m} is F_p[x]/(f) for the first monic irreducible f of
degree m when coefficient vectors (c_0, ..., c_{m-1}) are enumerated in
lexicographic order.  Elements are coefficient vectors in the same
low-to-high convention, and every ordering exposed by the package
(roots, point lists, labels) is the lexicographic order on them.  The
characteristic is odd and below 2**31, so equal-degree splitting can use
the quadratic-residue trick.  There is one stage type, `ExtField`, with
F_p its degree 1 and modulus x; `make_ext_field` (also `stage_field`;
`PrimeField(p)` is its degree 1) builds each stage once per process.

Everything runs on `_Packed`, a kernel on plain ints, and each stage
holds its one packing as `packing`.  A stage element
c_0 + ... + c_{m-1} a^(m-1) is one int with a k-bit slot per
coefficient, so the product of two elements is one int multiply whose
2m - 1 slots hold the unreduced coefficients of their product.  Sums of
such products stay unreduced until read; a reduction takes every slot
mod p at once by division by an invariant integer (Granlund and
Montgomery: x * magic >> shift, masked to each slot's quotient bits),
then folds the m - 1 high slots back through a^(m+t) mod the modulus and
reduces once more, in a constant number of int operations for any m (at
m = 1 on one element, one `x % p`).  The value bound b is the bit length
of (2D + 2) m p^2 for polynomials of degree up to D: no slot of a
product of two remainders plus a division by a polynomial of degree D
reaches 2^b, and a slot is k = 2b + 1 bits, room for a slot value times
the (b + 1)-bit magic.  Past 2^b a slot gets a wrong residue instead of
carrying, so every caller keeps its sums inside the degree it declares.
`FieldElement` multiplies on the packing and inverts by
`_Packed.inverse`, the extended Euclid of the coefficients and the
modulus on plain residue lists.  `frobenius` and `embed` send an
element where the generator goes, one Horner step per coefficient at
the generator's packed image (`_at_image`): a^p, found once per stage,
or the label-smallest root of the parent modulus in the target, found
once per pair of stages; `_orbit_roots` carries coefficients into K the
same way.  `multipoly` divides, and `finalg` and `weilres` multiply
matrices and vectors (`mat_vec`), on the same packing; every elimination
but `finalg`'s early-stopping Krylov run for minimal polynomials is
`_Packed.echelon`, a Gauss-Jordan reduction of dense rows whose
eliminated entries are each one product plus a reduced entry, and
`kernel`, `null_vectors` and `solve` read their results off it.  There
are no Zech-log tables: a table would cost more to build in a fresh
process than it saves, and stages beyond any table size would need a
second path.

Root finding (`roots_in`), factoring (`factor_univariate`) and the
choice of each stage's modulus (`_search_modulus`) run on packings sized
to the polynomial's degree: one distinct-degree pass
(`_Packed.degree_blocks`) and one Cantor-Zassenhaus split
(`_Packed.split`), factoring on each squarefree part (Yun's gcds, and a
p-th root where f' = 0).  A monic f of degree n >= 1 is irreducible
exactly when it is the pass's one block, of degree n, which is how the
modulus search tests each candidate.  Their powers
x^(q^d) and r^((q^d - 1)/2) run in one `_Ring` per monic modulus f of
degree n: a whole polynomial is one int (Kronecker substitution), its
coefficient i at bit (2m - 1) k i, so the coefficient slots of an
element product nest inside; a product is one int multiply, every slot
of every coefficient is reduced at once as above, and the remainder is
Barrett's, A - floor(floor(A / x^n) mu / x^(n-2)) f, exact for
deg A <= 2n - 2, with mu = floor(x^(2n-2) / f) found once per f by
Newton's iteration on f read backwards.  A slot there sums at most
2n - 1 products of two coefficients, inside the bound for n <= D.
Their gcds run on the same ints, by Euclid with pseudo-remainders.
The roots of f in a stage K come in Frobenius orbits: g =
gcd(f, x^|K| - x) is split over f's own coefficient field F, read as
F_p when every coefficient is a residue, by degrees and then within each
degree, and an irreducible factor of degree d is split over K only down
to one root r, whose orbit r, r^|F|, ..., r^(|F|^(d-1)) gives the rest.
Each orbit must close after d steps on d distinct roots, and the roots
must number deg g, or `roots_in` raises `CertificateFailure`; so does a
split that finds no factor in `_SPLIT_TRIES` tries, as on an input that
is no product of distinct irreducibles of one degree.  Root sets are
kept for the life of the process per (F, monic f, K), like fields and
embeddings, and only a computation that passed its certificates is kept.

`FieldElement` and `UniPoly` stay the public value types: labels,
hashing and reports read their coefficient vectors.  The reference
arithmetic lives in `tests/test_exactfield.py`: element arithmetic on
plain residue lists (`_list_rule_*`), the per-coefficient
square-and-multiply and Euclid the whole ints replaced
(`_entry_rule_powmod`, `_entry_rule_gcd`), and factoring on `UniPoly`
(`_field_element_rule_*`), which `factor_univariate`, the one-block
irreducibility test and `roots_in` are compared with; the field-element
elimination the echelon is compared with is `tests/test_echelon.py`'s
`_linalg_rule_*`.
"""

from __future__ import annotations

import itertools
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
# degree d over a stage of order q fails with probability at most
# 1/2 + 1/(2 Q^2) <= 5/9, Q = q^d >= 3 (two factors, the worst case), so
# this many all fail with probability below 3*10^-33; any other input
# may never split.
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
    of reduced coefficients, low degree first and trimmed.  Matrices are
    sparse columns of (index, entry) pairs for `mat_vec`, and dense rows
    of reduced entries for `echelon`, `kernel`, `null_vectors` and
    `solve`; `rows` turns the one into the other.  The prime stage is
    m = 1 with the modulus a.  A whole polynomial in one int is `_Whole`'s.
    """

    __slots__ = ("p", "m", "mod", "b", "k", "mask", "narrow", "high",
                 "ps", "fold", "shift", "magic", "qmask", "wide")

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
        self.wide = None  # the longest `_Whole` built on this packing
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
        extended Euclid of x's coefficients and the modulus on plain
        residue lists, each remainder's entries reduced when read."""
        p = self.p
        if x <= self.mask:  # an element of F_p
            return pow(x, p - 2, p)
        # u0 x = r0 and u1 x = r1 mod the modulus, r1 down to a constant
        r0, r1 = list(self.mod), list(_trim(self.unpack(x)))
        u0, u1 = [], [1]
        while len(r1) > 1:
            n = len(r1) - 1
            inv = pow(r1[-1], p - 2, p)
            u = u0 + [0] * (len(r0) - n + len(u1) - len(u0))
            for i in range(len(r0) - 1, n - 1, -1):
                c = r0[i] * inv % p
                if c:
                    for j, y in enumerate(r1[:n], i - n):
                        r0[j] -= c * y
                    for j, y in enumerate(u1, i - n):
                        u[j] -= c * y
            r0, r1 = r1, list(_trim([c % p for c in r0[:n]]))
            u0, u1 = u1, list(_trim([c % p for c in u]))
        if not r1:  # x and the modulus share a factor: x is no unit
            raise CertificateFailure("no inverse of a zero divisor mod the modulus")
        inv = pow(r1[0], p - 2, p)
        return self.pack([c * inv % p for c in u1])

    def sub(self, a, b):
        n = max(len(a), len(b))
        a = tuple(a) + (0,) * (n - len(a))
        b = tuple(b) + (0,) * (n - len(b))
        ps, red = self.ps, self.reduce
        return _trim([red(x + ps - y) for x, y in zip(a, b)])

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
        """Basis of the right kernel of dense rows: `echelon`, then
        `null_vectors` of all their columns."""
        self.echelon(rows)
        return self.null_vectors(rows, len(rows[0]) if rows else 0)

    def null_vectors(self, rows, width):
        """For rows in reduced row echelon form, a basis of the right
        kernel of their first width columns, one dense vector per free
        column: 1 there, minus that column's entries at the pivots."""
        pivots = [next(j for j, a in enumerate(row) if a)
                  for row in rows if any(row[:width])]
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

    def whole(self, count):
        """A `_Whole` of at least count coefficients, kept for shorter ones."""
        if self.wide is None or self.wide.count < count:
            self.wide = _Whole(self, count)
        return self.wide

    def gcd(self, a, b):
        """The monic gcd of reduced a and b, by Euclid on `_Whole` ints with
        pseudo-remainders x <- lc(y) x - c x^j y, one reduction per quotient
        term: no inverse but the final `monic`'s.  A slot sums two products."""
        if len(a) < len(b):
            a, b = b, a
        if len(b) < 2:
            return (1,) if b else self.monic(a)
        W = self.whole(len(a))
        s, ps, red = W.s, self.ps, W.reduce
        x, dx, y, dy = W.pack(a), len(a) - 1, W.pack(b), len(b) - 1
        while True:
            ly = y >> dy * s
            low = y ^ ly << dy * s
            while dx >= dy:
                c = x >> dx * s
                x = red(ly * (x ^ c << dx * s) + ((ps - c) * low << (dx - dy) * s))
                if not x:
                    return self.monic(tuple(W.unpack(y, dy + 1)))
                dx = (x.bit_length() - 1) // s
            x, dx, y, dy = y, dy, x, dx
            if not dy:
                return (1,)

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
        off x^(q^d) for q the order of the stage, raised to q in one
        `_Ring` per remaining product.  With n, the degree of every
        factor divides n: only those d are tried, and at d = n the rest
        is the last block."""
        q, x = self.p ** self.m, (0, 1)
        blocks = []
        rest, power, done, d, ring = g, x, 0, 0, None
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
            ring = ring or _Ring(self, rest)
            for _ in range(d - done):
                power = ring.powmod(power, q)
            done = d
            block = self.gcd(self.sub(power, x), rest)
            if len(block) > 1:
                blocks.append((block, d))
                rest, ring = self.divmod(rest, block)[0], None
                power = self.divmod(power, rest)[1]
        return blocks

    def split(self, g, d, rng, first=False):
        """Cantor-Zassenhaus: the monic irreducible factors of a monic g
        that is a product of distinct ones of degree d.  With first, only
        the factor reached by following the smaller half of every split.
        Each try draws deg g coefficients from rng, each as m residues,
        low degree and low slot first, raises them to (q^d - 1) / 2 in
        the one `_Ring` of g and takes one gcd; `_SPLIT_TRIES` tries
        without a factor raise `CertificateFailure`."""
        n = len(g) - 1
        if n == d:
            return [g]
        p, m = self.p, self.m
        half, ring = (p ** (m * d) - 1) // 2, _Ring(self, g)
        for _ in range(_SPLIT_TRIES):
            r = _trim([self.pack([rng.randrange(p) for _ in range(m)])
                       for _ in range(n)])
            if len(r) < 2:
                continue
            a = self.gcd(self.sub(ring.powmod(r, half), (1,)), g)
            if not 0 < len(a) - 1 < n:
                continue
            b = self.divmod(g, a)[0]
            if first:
                return self.split(min(a, b, key=len), d, rng, True)
            return self.split(a, d, rng) + self.split(b, d, rng)
        raise CertificateFailure("no split of a polynomial of degree %d into "
                                 "factors of degree %d in %d tries"
                                 % (n, d, _SPLIT_TRIES))


class _Whole:
    """Polynomials of up to count coefficients over the stage packed in
    S, each one int with coefficient i at bit i s, s = (2m - 1) k: a
    product is one int multiply, `reduce` takes every slot at once, and
    a reduced polynomial's degree is its bit length over s.
    """

    __slots__ = ("S", "count", "s", "qmask", "slot", "high", "ps")

    def __init__(self, S, count):
        m, k = S.m, S.k
        s = (2 * m - 1) * k
        self.S, self.count, self.s = S, count, s
        # 1 in slot 0 of each coefficient
        ones = ((1 << count * s) - 1) // ((1 << s) - 1)
        self.qmask, self.slot = S.qmask * ones, S.mask * ones
        self.high = ((1 << (m - 1) * k) - 1) * ones
        self.ps = S.ps * ones  # p in every slot of every coefficient

    def pack(self, cs):
        x = 0
        for c in reversed(cs):
            x = x << self.s | c
        return x

    def unpack(self, x, count):
        s, mask = self.s, (1 << self.s) - 1
        return [x >> i * s & mask for i in range(count)]

    def reduce(self, x):
        """x with every slot mod p and the slots from m on folded back;
        each slot of x must be below 2^b."""
        S = self.S
        p, magic, shift, qmask = S.p, S.magic, S.shift, self.qmask
        x -= (x * magic >> shift & qmask) * p
        if S.fold:
            k, at, slot = S.k, S.m * S.k, self.slot
            high = x >> at & self.high  # slots m.. of each coefficient, moved to 0..
            x ^= high << at
            for a in S.fold:
                x += (high & slot) * a
                high >>= k
            x -= (x * magic >> shift & qmask) * p
        return x


class _Ring:
    """F[x]/(f) for a monic f of degree n >= 1 over the stage packed in S,
    on S's `_Whole`: `mulmod` brings a product of two remainders below
    degree n by Barrett's rule.  A slot of any product here sums at most
    2n - 1 products of two coefficients, inside S's value bound when n is
    at most the degree S was built for.
    """

    __slots__ = ("S", "W", "f", "n", "s", "mu", "negf", "low")

    def __init__(self, S, f):
        if f[-1] != 1:
            raise CertificateFailure("a packed ring needs a monic modulus")
        n = len(f) - 1
        W = S.whole(2 * n - 1)
        self.S, self.W, self.f, self.n, self.s = S, W, f, n, W.s
        self.low = (1 << n * W.s) - 1
        # mu read backwards is 1 / (f read backwards) mod x^(n - 1), by
        # Newton's iteration g <- g (2 - rev(f) g), doubling the precision
        rev, g, prec = W.pack(f[::-1]), 1, 1
        while prec < n - 1:
            prec = min(2 * prec, n - 1)
            cut = (1 << prec * W.s) - 1
            t = W.reduce((rev & cut) * g & cut)
            g = W.reduce(g * (W.ps + 2 - t & cut) & cut)
        self.mu = W.pack(W.unpack(g, n - 1)[::-1])
        self.negf = W.reduce((W.ps & self.low) - (W.pack(f) & self.low))

    def mulmod(self, a, b):
        """a b mod f for reduced a and b of degree below n: with A = a b,
        A - floor(floor(A / x^n) mu / x^(n - 2)) f."""
        n, s, red = self.n, self.s, self.W.reduce
        x = a * b
        q = red(red(x >> n * s) * self.mu >> max(n - 2, 0) * s)
        return red(x + q * self.negf & self.low)

    def powmod(self, a, e):
        """a^e mod f, a a polynomial over the stage, as a reduced tuple:
        square-and-multiply from the top bit of e, one `mulmod` a step."""
        base, x = self.W.pack(self.S.divmod(a, self.f)[1]), 1
        for bit in bin(e)[2:]:
            x = self.mulmod(x, x)
            if bit == "1":
                x = self.mulmod(x, base)
        return _trim(self.W.unpack(x, self.n))


# ---------------------------------------------------------------------------
# fields

class FieldElement:
    """An element of a stage (`ExtField`), stored as a coefficient vector."""

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


class ExtField:
    """The stage F_{p^m}, m >= 1, presented as F_p[x]/(modulus); the prime
    stage F_p is m = 1 with modulus x.  `make_ext_field` builds each stage
    once, so equal stages are one object."""

    __slots__ = ("p", "degree", "modulus", "order", "base", "packing", "zero",
                 "one", "gen", "_frob_gen")

    def __init__(self, p: int, degree: int, modulus):
        self.p, self.degree, self.order = p, degree, p ** degree
        self.modulus = modulus  # int tuple, monic, low degree first
        self.base = self if degree == 1 else make_ext_field(p, 1)
        # the value bound holds a division by, and a `_Ring` on, a
        # polynomial of degree MAX_DEGREE, so the prime stage's packing
        # tests and powers the modulus of any stage
        self.packing = _Packed(p, modulus, MAX_DEGREE)
        self.zero = FieldElement(self, (0,) * degree)
        self.one = FieldElement(self, self._pad((1,)))
        self.gen = FieldElement(self, self._pad((0, 1))) if degree > 1 else self.one
        # a^p for the generator a, packed: `frobenius` evaluates at it
        self._frob_gen = self.packing.pack(
            _Ring(self.base.packing, modulus).powmod((0, 1), p))

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
        for cs in itertools.product(range(self.p), repeat=self.degree):
            yield FieldElement(self, cs)

    def __eq__(self, other):
        if isinstance(other, ExtField):
            return self is other or (self.p == other.p and self.modulus == other.modulus)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        if self.degree == 1:
            return "PrimeField(%d)" % self.p
        return "ExtField(%d, %d)" % (self.p, self.degree)


_FIELD_CACHE: dict = {}
_EMBED_CACHE: dict = {}
_ROOTS_CACHE: dict = {}


def make_ext_field(p: int, m: int) -> ExtField:
    """The stage F_{p^m}, built once per (p, m): F_p itself at m = 1, else
    F_p[x]/(f) with the deterministic modulus f.  A p or m out of range
    raises and builds nothing; a p or m that is no int (5.0 hashes as 5)
    never reads the memo."""
    field = _FIELD_CACHE.get((p, m)) if isinstance(p, int) and isinstance(m, int) else None
    if field is None:
        if not isinstance(p, int) or not _is_prime(p):
            raise NonPrime("p = %r is not prime" % (p,))
        if not (2 < p < MAX_CHAR):
            raise NonPrime("p = %r outside the supported range 2 < p < 2**31" % (p,))
        if not isinstance(m, int) or m < 1 or m > MAX_DEGREE:
            raise DegreeGuardExceeded("make_ext_field: extension degree m = %r "
                                      "outside 1..%d" % (m, MAX_DEGREE))
        field = ExtField(p, m, (0, 1) if m == 1 else _search_modulus(p, m))
        _FIELD_CACHE[(p, m)] = field
    return field


# the stage of degree n over F_p; n = 1 gives the prime stage itself
stage_field = make_ext_field


def PrimeField(p: int) -> ExtField:
    """The prime stage F_p for an odd prime p below 2**31."""
    return make_ext_field(p, 1)


def _search_modulus(p, m):
    # enumerate coefficient vectors (c_0, ..., c_{m-1}) lexicographically,
    # m > 1; a zero constant term forces the factor x, so that whole
    # block is skipped without changing which vector comes first
    S = make_ext_field(p, 1).packing

    def rec(prefix):
        if len(prefix) == m:
            f = tuple(prefix) + (1,)
            if S.degree_blocks(f) == [(f, m)]:
                return f
            return None
        for c in range(0 if prefix else 1, p):
            got = rec(prefix + [c])
            if got is not None:
                return got
        return None

    f = rec([])
    if f is None:
        raise CertificateFailure("no irreducible of degree %d over F_%d" % (m, p))
    return f


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
    key = (src.p, src.modulus, target.modulus)
    image = _EMBED_CACHE.get(key)
    if image is None:
        rs = roots_in(UniPoly.from_ints(src.base, src.modulus), target)
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
    F is read as F_p when every coefficient of f is a residue.  The
    roots come in Frobenius orbits, one per irreducible factor of g over
    F (`_orbit_roots`), found by the distinct-degree pass and the
    equal-degree split that `factor_univariate` runs; at F = K every
    factor is linear and the split reads off the roots.  All
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
    if len(fp) < 2:
        return ()
    x = (0, 1)
    g = S.gcd(fp, S.sub(_Ring(S, fp).powmod(x, K.order), x))
    if len(g) < 2:
        return ()
    roots = _orbit_roots(S, g, F, K, random.Random(0))
    if len(set(roots)) != len(g) - 1:
        raise CertificateFailure("%d distinct roots for a gcd of degree %d"
                                 % (len(set(roots)), len(g) - 1))
    return tuple(sorted(roots))


def _orbit_roots(S, g, F, K, rng):
    """The roots in K, as coefficient tuples, of g, a squarefree product
    over the subfield F packed in S.

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
