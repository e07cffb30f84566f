"""Reference computations for the benchmark, in plain-int arithmetic.

Nothing here imports resweil: every value the benchmark compares the
program's output with is computed from the case text along a route of
its own.

* Polynomials over F_p are dicts {exponent tuple: residue}; univariate
  ones are lists of residues, lowest degree first.
* `count_points` counts X(A) by brute force.  It handles a base whose
  every block is presented by one monic univariate relation per
  variable (F_p itself, k[t]/(g), k[t, e]/(g(t), h(e)), ...), and a
  product of such blocks block by block when the scheme relations use
  only the unknowns.  When Res X is finite etale this count is the
  number of Frobenius-fixed components, that is the number of 1-cycles
  in the cycle type of pi0.
* `roots_count` gives deg gcd(f, x^(p^m) - x), the number of distinct
  F_{p^m}-roots of f; `ext_modulus`, `ext_mul` and
  `ext_pow` rebuild the stage F_{p^m} with the program's documented
  modulus convention so returned points can be checked.
"""

import itertools
import math
import re

# ---------------------------------------------------------------------------
# case text

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")


def parse_poly(text, names, p):
    """Parse `text` over the variables `names` into {exponents: residue}."""
    toks = []
    for num, name, op in _TOKEN.findall(text):
        if num:
            toks.append(("num", int(num)))
        elif name:
            toks.append(("name", name))
        elif op.strip():
            toks.append(("op", op))
    pos = [0]
    index = {v: i for i, v in enumerate(names)}
    n = len(names)

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else (None, None)

    def take():
        tok = peek()
        pos[0] += 1
        return tok

    def atom():
        kind, val = take()
        if kind == "num":
            return {(0,) * n: val % p} if val % p else {}
        if kind == "name":
            if val not in index:
                raise ValueError("undeclared variable %r in %r" % (val, text))
            e = [0] * n
            e[index[val]] = 1
            return {tuple(e): 1}
        if (kind, val) == ("op", "("):
            out = expr()
            if take() != ("op", ")"):
                raise ValueError("unbalanced parenthesis in %r" % text)
            return out
        raise ValueError("unexpected %r in %r" % (val, text))

    def power():
        base = atom()
        if peek() == ("op", "^"):
            take()
            kind, e = take()
            if kind != "num":
                raise ValueError("exponent must be an integer in %r" % text)
            out = {(0,) * n: 1}
            for _ in range(e):
                out = poly_mul(out, base, p)
            return out
        return base

    def term():
        out = power()
        while peek() == ("op", "*"):
            take()
            out = poly_mul(out, power(), p)
        return out

    def expr():
        sign = 1
        if peek() in (("op", "+"), ("op", "-")):
            sign = 1 if take()[1] == "+" else -1
        out = poly_scale(term(), sign, p)
        while peek() in (("op", "+"), ("op", "-")):
            sign = 1 if take()[1] == "+" else -1
            out = poly_add(out, poly_scale(term(), sign, p), p)
        return out

    out = expr()
    if pos[0] != len(toks):
        raise ValueError("trailing input in %r" % text)
    return out


def poly_add(a, b, p):
    out = dict(a)
    for m, c in b.items():
        v = (out.get(m, 0) + c) % p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def poly_scale(a, s, p):
    return {m: c * s % p for m, c in a.items() if c * s % p}


def poly_mul(a, b, p):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = (out.get(m, 0) + ca * cb) % p
    return {m: c for m, c in out.items() if c}


def _names(section):
    return [v.strip() for v in section.split(",") if v.strip()]


def parse_case_text(text):
    """The directives of a case file, read by the benchmark itself.

    Returns a dict with name, p, blocks [(label, vars, rel texts)],
    scheme vars and rel texts, expects {key: [ints]} and checks (the
    check names only).
    """
    out = {"blocks": [], "expects": {}, "checks": [], "scheme": None}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, _, rest = line.partition(" ")
        if word == "case":
            out["name"] = rest.strip().strip('"')
        elif word == "field":
            out["p"] = int(rest.split("=")[1])
        elif word in ("algebra", "scheme"):
            label, _, body = rest.partition(":")
            vs, rels = [], []
            for part in body.split(";"):
                part = part.strip()
                if part.startswith("vars"):
                    vs = _names(part[4:])
                elif part.startswith("rels"):
                    rels = _names(part[4:])
            entry = (label.strip(), vs, rels)
            if word == "algebra":
                out["blocks"].append(entry)
            else:
                out["scheme"] = entry
        elif word == "expect":
            key, _, vals = rest.partition("=")
            out["expects"][key.strip()] = [int(v) for v in
                                           vals.replace(",", " ").split()]
        elif word == "checks":
            depth, cur = 0, ""
            for ch in rest + ",":
                if ch == "," and depth == 0:
                    out["checks"].append(cur.strip().split("(")[0].strip())
                    cur = ""
                    continue
                depth += (ch == "(") - (ch == ")")
                cur += ch
    return out


# ---------------------------------------------------------------------------
# univariate arithmetic over F_p, lists lowest degree first

def utrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def usub(a, b, p):
    n = max(len(a), len(b))
    return utrim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0))
                  % p for i in range(n)])


def umul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return utrim(out)


def umod(a, b, p):
    a = utrim(a)
    b = utrim(b)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
        a = utrim(a)
    return a


def ugcd(a, b, p):
    a, b = utrim(a), utrim(b)
    while b:
        a, b = b, umod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def upowmod(a, e, mod, p):
    out, base = [1], umod(a, mod, p)
    while e:
        if e & 1:
            out = umod(umul(out, base, p), mod, p)
        base = umod(umul(base, base, p), mod, p)
        e >>= 1
    return out


def frobenius_power_x(f, m, p):
    """x^(p^m) mod f, by m successive p-th powers."""
    h = [0, 1]
    for _ in range(m):
        h = upowmod(h, p, f, p)
    return h


def roots_count(f, m, p):
    """Distinct roots of f in F_{p^m}: deg gcd(f, x^(p^m) - x)."""
    g = ugcd(f, usub(frobenius_power_x(f, m, p), [0, 1], p), p)
    return len(g) - 1


def is_irreducible(f, p):
    """Rabin's test for monic f over F_p."""
    m = len(f) - 1
    if m < 1:
        return False
    if umod(usub(frobenius_power_x(f, m, p), [0, 1], p), f, p):
        return False
    for r in range(2, m + 1):
        if m % r == 0 and all(r % d for d in range(2, r)):
            h = usub(frobenius_power_x(f, m // r, p), [0, 1], p)
            if len(ugcd(f, h, p)) != 1:
                return False
    return True


def geometric_root_count(g, p):
    """Distinct roots of g over the algebraic closure of F_p.

    deg gcd(g, x^(p^d) - x) counts the roots in F_{p^d}; Moebius
    inversion over the divisors of d gives the irreducible factors of
    each degree, whose degrees add up to the answer.
    """
    n = len(utrim(g)) - 1
    in_stage = {d: roots_count(g, d, p) for d in range(1, n + 1)}
    exact = {}
    for d in range(1, n + 1):
        exact[d] = in_stage[d] - sum(exact[e] for e in range(1, d) if d % e == 0)
    return sum(exact.values())


# ---------------------------------------------------------------------------
# the stage F_{p^m}, elements as coefficient tuples of length m

def ext_modulus(p, m):
    """The program's documented modulus: the lexicographically first
    monic irreducible (c_0, ..., c_{m-1}, 1), with c_0 != 0 when m > 1."""
    if m == 1:
        return None
    for tail in itertools.product(range(p), repeat=m):
        if tail[0] == 0:
            continue
        f = list(tail) + [1]
        if is_irreducible(f, p):
            return f
    raise ValueError("no irreducible of degree %d over F_%d" % (m, p))


def ext_mul(a, b, mod, p):
    if mod is None:
        return (a[0] * b[0] % p,)
    m = len(mod) - 1
    r = umod(umul(list(a), list(b), p), mod, p)
    return tuple(r + [0] * (m - len(r)))


def ext_pow(a, e, mod, p):
    out = tuple([1] + [0] * (len(a) - 1))
    while e:
        if e & 1:
            out = ext_mul(out, a, mod, p)
        a = ext_mul(a, a, mod, p)
        e >>= 1
    return out


def ext_eval(f, x, mod, p):
    """f (residues, lowest degree first) at the stage element x."""
    acc = tuple([0] * len(x))
    for c in reversed(f):
        acc = ext_mul(acc, x, mod, p)
        acc = (acc[0] + c) % p, *acc[1:]
    return tuple(acc)


# ---------------------------------------------------------------------------
# brute-force points over a base algebra

class _Block:
    """k[v_1, .., v_k]/(g_1(v_1), .., g_k(v_k)) with monic univariate g_i."""

    def __init__(self, names, rels, p):
        self.p = p
        self.names = list(names)
        n = len(names)
        degs = [None] * n
        self.rel_of = [None] * n
        for text in rels:
            poly = parse_poly(text, names, p)
            used = {i for m in poly for i, e in enumerate(m) if e}
            if len(used) != 1:
                raise ValueError("relation %r is not univariate" % text)
            i = used.pop()
            if degs[i] is not None:
                raise ValueError("two relations in %r" % names[i])
            uni = [0] * (max(m[i] for m in poly) + 1)
            for m, c in poly.items():
                uni[m[i]] = c
            inv = pow(uni[-1], p - 2, p)
            self.rel_of[i] = [c * inv % p for c in uni]
            degs[i] = len(uni) - 1
        if any(d is None for d in degs):
            raise ValueError("a base variable has no relation")
        self.degs = degs
        self.basis = list(itertools.product(*[range(d) for d in degs]))
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.dim = len(self.basis)
        # reduced form of every product of two basis monomials
        self.table = {}
        for a in self.basis:
            for b in self.basis:
                parts = []
                for i, (x, y) in enumerate(zip(a, b)):
                    parts.append(umod([0] * (x + y) + [1], self.rel_of[i], p))
                vec = [0] * self.dim
                for combo in itertools.product(*[list(enumerate(pt))
                                                  for pt in parts]):
                    c = 1
                    for _, ci in combo:
                        c = c * ci % p
                    if c:
                        k = self.index[tuple(e for e, _ in combo)]
                        vec[k] = (vec[k] + c) % p
                self.table[a, b] = vec

    def mul(self, x, y):
        p = self.p
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if xi:
                a = self.basis[i]
                for j, yj in enumerate(y):
                    if yj:
                        c = xi * yj
                        for k, t in enumerate(self.table[a, self.basis[j]]):
                            if t:
                                out[k] = (out[k] + c * t) % p
        return out

    def const(self, c):
        return [c % self.p] + [0] * (self.dim - 1)

    def gen(self, i):
        e = [0] * len(self.names)
        e[i] = 1
        out = [0] * self.dim
        if self.degs[i] > 1:
            out[self.index[tuple(e)]] = 1
        else:
            # degree-1 relation: the variable is a constant
            out[0] = -self.rel_of[i][0] % self.p
        return out

    def elements(self):
        for coeffs in itertools.product(range(self.p), repeat=self.dim):
            yield list(coeffs)

    def geometric_points(self):
        return math.prod(geometric_root_count(g, self.p) for g in self.rel_of)


def _block_views(case):
    """One (block, {base variable: element}) per factor of the base.

    In a product the scheme relations may only use the unknowns: the
    names the program gives the base variables of a product are not
    modelled, and parse_poly rejects them.
    """
    views = []
    for _, names, rels in case["blocks"]:
        B = _Block(names, rels, case["p"])
        if len(case["blocks"]) == 1:
            views.append((B, {v: B.gen(i) for i, v in enumerate(names)}))
        else:
            views.append((B, {}))
    return views


def _count_block(B, base_vals, unknowns, rels_text):
    p = B.p
    base_names = list(base_vals)
    ctx = base_names + list(unknowns)
    nb = len(base_names)
    r = len(unknowns)
    compiled = []
    for text in rels_text:
        poly = parse_poly(text, ctx, p)
        # group by unknown exponents; the base part becomes an element
        grouped = {}
        for m, c in poly.items():
            coeff = B.const(c)
            for i, e in enumerate(m[:nb]):
                for _ in range(e):
                    coeff = B.mul(coeff, base_vals[base_names[i]])
            ue = m[nb:]
            prev = grouped.get(ue, [0] * B.dim)
            grouped[ue] = [(x + y) % p for x, y in zip(prev, coeff)]
        level = max([i + 1 for ue in grouped for i, e in enumerate(ue) if e]
                    or [0])
        compiled.append((level, list(grouped.items())))
    elems = [tuple(x) for x in B.elements()]
    powers = {}

    def pw(x, e):
        key = (x, e)
        if key not in powers:
            powers[key] = (list(x) if e == 1
                           else B.mul(list(x), pw(x, e - 1)))
        return powers[key]

    def holds(level, values):
        for lv, terms in compiled:
            if lv != level:
                continue
            acc = [0] * B.dim
            for ue, coeff in terms:
                t = coeff
                for j, e in enumerate(ue):
                    if e:
                        t = B.mul(t, pw(values[j], e))
                acc = [(x + y) % p for x, y in zip(acc, t)]
            if any(acc):
                return False
        return True

    def rec(values):
        if len(values) == r:
            return 1
        total = 0
        for x in elems:
            values.append(x)
            if holds(len(values), values):
                total += rec(values)
            values.pop()
        return total

    return rec([]) if holds(0, []) else 0


def count_points(case):
    """|X(A)| by brute force over the base's elements, block by block."""
    _, unknowns, rels = case["scheme"]
    total = 1
    for B, vals in _block_views(case):
        total *= _count_block(B, vals, unknowns, rels)
    return total


def base_point_count(case):
    """Geometric points of Spec A: the size S of the base's Frobenius set."""
    return sum(B.geometric_points() for B, _ in _block_views(case))
