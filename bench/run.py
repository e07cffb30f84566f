"""Benchmark of the resweil verifier: one command, three workloads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each pass runs every operation of the
workload once, one after another, in a fresh interpreter (bench/child.py),
as one `resweil verify` or `resweil points` invocation does; no program
state carries from one pass to the next.  The run makes passes until the
next one would end after --seconds, and at least MIN_PASSES.  Every
output is checked against bench/oracles.py.  Every time is reported at
a reference speed of the host, measured by a fixed kernel the pass
process times between operations (bench/child.py).  The last line of
stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from traced passes, which alternate with untraced passes
so that trace.overhead_s can be measured.  See bench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
PASS_TIMEOUT_S = 150
OUT_DIR = os.path.join(HERE, "out")

# The mean time of child.speed_kernel on the machine the figures in
# README.md come from: every time is reported at the host speed at which
# the kernel takes this long.
REF_KERNEL_S = 0.02

UNITS = {"pass_s": "s", "op_s.p50": "s", "cpu_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB"}


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if "_ns." in name:
        return "ns"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("max_degree"):
        return "degree"
    return "count"


def run_pass(ops, trace, trace_out=None):
    """One pass in a fresh interpreter; returns the child's payload."""
    req = {"ops": [{k: v for k, v in op.items() if k != "oracle"}
                   for op in ops],
           "trace": trace, "trace_out": trace_out}
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")],
                            cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(json.dumps(req), timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("a pass took longer than %d s" % PASS_TIMEOUT_S)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit("the pass process exited with %d" % proc.returncode)
    res = json.loads(out)
    # Times at the reference speed: the pass's own at the mean speed of the
    # pass, each operation's at the speed measured just before and after it.
    ks = res["kernel_s"]
    k = res["scale"] = REF_KERNEL_S / statistics.mean(ks)
    res["setup_s"] = (res["first"] - start) * k
    res["pass_s"] = (res["last"] - start) * k
    res["cpu_s"] *= k
    res["op_s"] = [t * 2 * REF_KERNEL_S / (ks[i] + ks[i + 1])
                   for i, t in enumerate(res["op_s"])]
    if "layers" in res:
        # the exactfield *_ns.* timings run just after the last speed kernel
        at_end = REF_KERNEL_S / ks[-1]
        res["layers"] = {n: v * {"s": k, "ns": at_end}.get(_layer_unit(n), 1)
                         for n, v in res["layers"].items()}
    res["wall_s"] = wall
    return res


# ---------------------------------------------------------------------------
# checking outputs

def _check_verify(op, res):
    """None when the report is right, else the reason it is wrong."""
    orc = op["oracle"]
    rep = res["report"]
    if orc.get("fault"):
        theorem = [c for c in rep["checks"] if c["name"] == "theorem"]
        if len(theorem) == 1 and not theorem[0]["ok"] and theorem[0]["detail"]:
            return None
        return "the theorem check should fail with a reason"
    bad = [c["name"] for c in rep["checks"] if not c["ok"]]
    if bad:
        return "checks failed: %s" % ", ".join(bad)
    if rep["pi0_left"] is None:
        return "no component data"
    left_ct = rep["pi0_left"]["cycle_type"]
    got = {"S": [rep["S"]["count"]], "pi0_res": [rep["pi0_left"]["count"]],
           "fibers": rep["fibers"], "cycle_type": left_ct}
    expects = dict(orc.get("expects", {}))
    if "S" in orc:
        size = orc["fiber_size"]
        expects.update({"S": [orc["S"]], "fibers": [size] * orc["S"],
                        "pi0_res": [size ** orc["S"]]})
    for key, want in expects.items():
        if key == "cycle_type":
            want = sorted(want)
        if got[key] != want:
            return "%s is %r, expected %r" % (key, got[key], want)
    if orc.get("fixed_points") is not None:
        if left_ct.count(1) != orc["fixed_points"]:
            return ("%d Frobenius-fixed components, but X(A) has %d points"
                    % (left_ct.count(1), orc["fixed_points"]))
        if rep["pi0_left"]["count"] != math.prod(rep["fibers"]):
            return "|pi0| is not the product of the fiber counts"
        if left_ct != rep["pi0_right"]["cycle_type"]:
            return "the two sides have different cycle types"
    return None


_MODULI = {}


def _check_points(op, res):
    orc = op["oracle"]
    p, m = op["p"], op["stage"]
    pts = res["points"]
    if len(pts) != orc["count"]:
        return "%d points, expected %d" % (len(pts), orc["count"])
    if (p, m) not in _MODULI:
        _MODULI[p, m] = oracles.ext_modulus(p, m)
    mod = _MODULI[p, m]
    if any(len(pt) != 1 or len(pt[0]) != m for pt in pts):
        return "malformed points"
    xs = {tuple(pt[0]) for pt in pts}
    if len(xs) != len(pts):
        return "repeated points"
    for x in xs:
        if any(oracles.ext_eval(orc["f"], x, mod, p)):
            return "%r is not a root" % (x,)
        if oracles.ext_pow(x, p, mod, p) not in xs:
            return "not closed under the p-th power map"
    return None


def check_pass(ops, res):
    """Per-operation failure flags of one pass, and how many were wrong.

    Reasons go to stderr.
    """
    failed, wrong = [], 0
    for op, out in zip(ops, res["results"]):
        if "error" in out:
            failed.append(True)
            if not op["oracle"].get("fault"):
                sys.stderr.write("%s: error %s\n" % (op["name"], out["error"]))
            continue
        why = (_check_points(op, out) if op["kind"] == "points"
               else _check_verify(op, out))
        failed.append(why is not None)
        if why is not None:
            wrong += 1
            sys.stderr.write("%s: wrong answer: %s\n" % (op["name"], why))
    return failed, wrong


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "resweil", "__init__.py")):
        raise SystemExit("no src/resweil under %s: run from a checkout" % ROOT)
    setup_t0 = time.monotonic()
    ops = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    # compile the package once so every pass imports it the same way
    run_pass([], False)
    sys.stderr.write("%s seed %d: %d operations, inputs and oracles in %.1f s\n"
                     % (args.workload, args.seed, len(ops),
                        time.monotonic() - setup_t0))

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        if args.trace:
            plain.append(run_pass(ops, False))
            traced.append(run_pass(
                ops, True, os.path.join(OUT_DIR, "trace-%s-pass%d.json"
                                        % (tag, len(traced)))))
            done, per = len(traced) >= MIN_TRACED_PAIRS, \
                plain[-1]["wall_s"] + traced[-1]["wall_s"]
        else:
            plain.append(run_pass(ops, False))
            done, per = len(plain) >= MIN_PASSES, \
                statistics.median(r["wall_s"] for r in plain)
        if done and time.monotonic() - start + per > args.seconds:
            break

    attempted = failed = 0
    correct = True
    op_p50 = []  # per untraced pass: median time of the operations that
    #              did not fail (a fault that raises at once is no verdict)
    for k, res in enumerate(plain + traced):
        flags, w = check_pass(ops, res)
        attempted += len(ops)
        failed += sum(flags)
        correct = correct and w == 0
        if k < len(plain):
            ok = [t for t, f in zip(res["op_s"], flags) if not f]
            op_p50.append(statistics.median(ok or res["op_s"]))

    med = statistics.median
    if args.trace:
        names = traced[0]["layers"].keys()
        metrics = {n: {"value": med(r["layers"][n] for r in traced),
                       "unit": _layer_unit(n)} for n in names}
        metrics["trace.overhead_s"] = {
            "value": med(r["pass_s"] for r in traced)
            - med(r["pass_s"] for r in plain), "unit": "s"}
    else:
        values = {
            "pass_s": med(r["pass_s"] for r in plain),
            "op_s.p50": med(op_p50),
            "cpu_s": med(r["cpu_s"] for r in plain),
            "setup_s": med(r["setup_s"] for r in plain),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
        }
        metrics = {n: {"value": v, "unit": UNITS[n]} for n, v in values.items()}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT_DIR, "result-%s.json" % tag), "w",
              encoding="utf-8") as fh:
        json.dump({"pass_s": [r["pass_s"] for r in plain],
                   "scale": [r["scale"] for r in plain],
                   "kernel_s": [r["kernel_s"] for r in plain],
                   "traced_pass_s": [r["pass_s"] for r in traced],
                   "op_s": {op["name"]: [r["op_s"][i] for r in plain]
                            for i, op in enumerate(ops)},
                   "result": result}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
