"""The three workloads, as lists of operations built from a seed.

An operation is a dict the pass process runs:

* {"kind": "verify", "name", "text"}: `verify_case` on the case text.
* {"kind": "points", "name", "text", "p", "stage"}: `weil_restrict`
  of the case, then `RestrictedScheme.points` over F_{p^m} with m the
  stage, as `resweil points --ext m` does.

The program only ever sees the generated case texts.  Each operation
also carries what the benchmark needs to check the answer (`oracle`),
which never goes to the pass process.
"""

import glob
import os
import random

import oracles

# The theorem check of this case raises NotFinite out of verify_case
# instead of reporting a failed check; it stays in the corpus as the one
# operation expected to fail until that is mended.
INFINITE_SQUARE = """\
case "infinite-square"
field p = 5
algebra A : vars eps ; rels eps^2
scheme X : vars y, z ; rels y - z, 2*y - 2*z
checks theorem
"""


def corpus(seed, root):
    """The frozen cases plus the fault case, in case-name order.

    The corpus is frozen, so the seed changes nothing here; the order is
    the one `resweil verify` runs cases in.  A case's cost depends on the
    cases before it in the same process (the field and embedding tables
    are shared), so a seeded order made the median operation time jump.
    """
    texts = []
    for path in sorted(glob.glob(os.path.join(root, "cases", "*.case"))):
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    if len(texts) != 15:
        raise SystemExit("expected the 15 frozen cases under cases/, found %d"
                         % len(texts))
    ops = []
    for text in texts + [INFINITE_SQUARE]:
        case = oracles.parse_case_text(text)
        if case["name"] == "infinite-square":
            oracle = {"fault": True}
        else:
            oracle = {"expects": case["expects"],
                      "fixed_points": (oracles.count_points(case)
                                       if "theorem" in case["checks"] else None)}
        ops.append({"kind": "verify", "name": case["name"], "text": text,
                    "oracle": oracle})
    ops.sort(key=lambda op: op["name"])
    return ops


# Local bases of dimension 3 with two unknowns, y^2 = u1 + n1*t,
# z^2 = u2 + n2*t*y with u1, u2 unit constants: the system is triangular
# and etale, every geometric fiber has 2 * 2 points, and Res X has
# 6 coordinates.  The seed picks u1, u2 inside a fixed square class and
# n1, n2; scaling t, y and z carries one choice to another, so every
# seed does the same Groebner work (the same S-pair and normal-form
# counts) on different inputs.  One square class in each case is a
# nonsquare, which puts the comparison at stage 2 and leaves no
# Frobenius-fixed component; with both classes square a case costs about
# twice as much, and three cases of equal size keep each pass short and
# the median operation inside one size class.
GROEBNER_SHAPES = (
    # (p, base relation, square class of u1, of u2)
    (3, "t^3", "nonsquare", "square"),
    (5, "t^3", "square", "nonsquare"),
    (5, "t^3", "nonsquare", "square"),
)


def _square_class(p, kind):
    squares = sorted({x * x % p for x in range(1, p)})
    if kind == "square":
        return squares
    return [x for x in range(1, p) if x not in squares]


def groebner_text(name, p, rel, u1, n1, u2, n2):
    return ('case "%s"\nfield p = %d\n'
            "algebra A : vars t ; rels %s\n"
            "scheme X : vars y, z ; rels y^2 - %d - %d*t, "
            "z^2 - %d - %d*t*y\n"
            "checks theorem\n" % (name, p, rel, u1, n1, u2, n2))


def groebner_scale(seed):
    rng = random.Random(seed)
    ops = []
    for k, (p, rel, cls1, cls2) in enumerate(GROEBNER_SHAPES):
        u1 = rng.choice(_square_class(p, cls1))
        u2 = rng.choice(_square_class(p, cls2))
        n1, n2 = rng.randrange(1, p), rng.randrange(1, p)
        text = groebner_text("groebner-%d-p%d" % (k, p), p, rel,
                             u1, n1, u2, n2)
        case = oracles.parse_case_text(text)
        oracle = {"S": oracles.base_point_count(case),
                  "fiber_size": 2 * 2,
                  "fixed_points": oracles.count_points(case)}
        ops.append({"kind": "verify", "name": case["name"], "text": text,
                    "oracle": oracle})
    return ops


# `resweil points --ext m` requests: one unknown over F_p, f a product
# of distinct seeded irreducibles of the listed degrees (16 to 64 in
# all), at stage m = 4 to 6.  An irreducible of degree e splits over
# F_{p^m} into gcd(e, m) factors of degree e / gcd(e, m), so the factor
# pattern root finding meets is fixed by the degrees and not by the
# seed.  How many random splittings factoring takes still depends on the
# factors, so each shape is requested twice, with different factors, to
# average that out of the pass.
POINTS_PER_SHAPE = 2
POINTS_SHAPES = (
    # (p, stage, factor degrees)
    (3, 4, (1, 2, 3, 4, 5, 6, 7, 8, 12, 16)),
    (5, 6, (1, 2, 3, 4, 6)),
    (7, 5, (1, 2, 3, 5, 6, 7)),
    (5, 5, (1, 2, 3, 5, 7, 10)),
    (3, 6, (1, 2, 3, 5, 6, 7, 12)),
)


def _irreducible(rng, p, d, taken):
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if tuple(f) not in taken and oracles.is_irreducible(f, p):
            taken.add(tuple(f))
            return f


def _poly_text(f):
    terms = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if not c:
            continue
        mono = "" if i == 0 else ("y" if i == 1 else "y^%d" % i)
        if not mono:
            terms.append("%d" % c)
        else:
            terms.append(mono if c == 1 else "%d*%s" % (c, mono))
    return " + ".join(terms)


def points_stage(seed):
    rng = random.Random(seed)
    ops = []
    for k, (p, m, degs) in enumerate(POINTS_SHAPES):
        taken = set()
        for j in range(POINTS_PER_SHAPE):
            ops.append(_points_op("points-%d%s-p%d-m%d" % (k, "ab"[j], p, m),
                                  rng, p, m, degs, taken))
    return ops


def _points_op(name, rng, p, m, degs, taken):
    f = [1]
    for d in degs:
        f = oracles.umul(f, _irreducible(rng, p, d, taken), p)
    text = ('case "%s"\nfield p = %d\nalgebra A :\n'
            "scheme X : vars y ; rels %s\n" % (name, p, _poly_text(f)))
    oracle = {"f": f, "count": oracles.roots_count(f, m, p)}
    return {"kind": "points", "name": name, "text": text, "p": p,
            "stage": m, "oracle": oracle}


WORKLOADS = {
    "corpus": lambda seed, root: corpus(seed, root),
    "groebner-scale": lambda seed, root: groebner_scale(seed),
    "points-stage": lambda seed, root: points_stage(seed),
}
