"""Self-test of the benchmark's oracles, without resweil.

    python3 bench/selftest.py

* oracle (a) against the frozen corpus: for every case that checks the
  theorem, the brute-force count of X(A) equals the number of 1-cycles
  in the frozen cycle type, and the base's geometric point count equals
  the frozen S;
* oracle (b) against exhaustion: for small stages, deg gcd(f, x^q - x)
  equals the number of stage elements where f vanishes;
* the generated workloads are etale by construction: their fixed-point
  counts agree with the cycle types the construction predicts, and on
  t^3 cases with both constants squares oracle (a) finds 4 points.

Exits 1 on the first disagreement.
"""

import glob
import itertools
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402


def fail(msg):
    print("selftest: FAIL: %s" % msg)
    sys.exit(1)


def corpus_fixed_points():
    paths = sorted(glob.glob(os.path.join(os.path.dirname(HERE), "cases",
                                          "*.case")))
    if not paths:
        fail("no cases/ directory next to bench/")
    checked = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            case = oracles.parse_case_text(fh.read())
        exp = case["expects"]
        if oracles.base_point_count(case) != exp["S"][0]:
            fail("%s: S" % case["name"])
        if "theorem" in case["checks"]:
            n = oracles.count_points(case)
            if n != exp["cycle_type"].count(1):
                fail("%s: X(A) has %d points, frozen cycle type %r"
                     % (case["name"], n, exp["cycle_type"]))
            checked += 1
    print("oracle (a): %d frozen theorem cases agree" % checked)


def roots_by_exhaustion():
    rng = random.Random(7)
    checked = 0
    for p, m in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)):
        mod = oracles.ext_modulus(p, m)
        elems = list(itertools.product(range(p), repeat=m))
        for _ in range(6):
            f = [rng.randrange(p) for _ in range(rng.randrange(1, 9))] + [1]
            want = sum(1 for x in elems
                       if not any(oracles.ext_eval(f, x, mod, p)))
            if oracles.roots_count(f, m, p) != want:
                fail("roots of %r over F_%d^%d" % (f, p, m))
            checked += 1
    print("oracle (b): %d root counts agree with exhaustion" % checked)


def _t3_points_expected(text):
    case = oracles.parse_case_text(text)
    rel_y, rel_z = case["scheme"][2]
    u1 = int(rel_y.split(" - ")[1])
    u2 = int(rel_z.split(" - ")[1])
    p = case["p"]
    sq = {x * x % p for x in range(1, p)}
    # y^2 = u1 + n t has a rational solution iff u1 is a square, and then
    # z^2 = u2 + ... iff u2 is one too; each of the 2 * 2 roots mod t
    # lifts uniquely (Hensel over t^3)
    return 4 if (u1 in sq and u2 in sq) else 0


def generated_cases():
    # the workload keeps one nonsquare constant per case (0 points), so
    # the positive branch is checked here on both-squares cases
    for p, u1, u2 in ((3, 1, 1), (5, 4, 1), (7, 2, 4)):
        text = workloads.groebner_text("both-squares", p, "t^3", u1, 1, u2, 2)
        n = oracles.count_points(oracles.parse_case_text(text))
        if n != 4 or _t3_points_expected(text) != 4:
            fail("both-squares over F_%d: X(A) has %d points, expected 4"
                 % (p, n))
    for seed in (1, 2, 3):
        for op in workloads.groebner_scale(seed):
            want = _t3_points_expected(op["text"])
            if op["oracle"]["fixed_points"] != want:
                fail("%s: %d fixed points, expected %d"
                     % (op["name"], op["oracle"]["fixed_points"], want))
        for op in workloads.points_stage(seed):
            if len(op["oracle"]["f"]) - 1 not in range(16, 65):
                fail("%s: degree out of range" % op["name"])
    print("generated workloads: fixed-point counts match the construction")


if __name__ == "__main__":
    corpus_fixed_points()
    roots_by_exhaustion()
    generated_cases()
    print("selftest: ok")
