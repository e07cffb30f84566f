"""One pass: a fresh interpreter runs every operation of a workload once.

Reads {"ops": [...], "trace": bool, "trace_out": path or null} as JSON
on stdin and writes one JSON object on stdout.  Times are
time.monotonic() readings, which the parent compares with its own
reading taken just before it started this process.  The program is
imported from src/ of the checkout the pass runs in.

Before each operation and after the last one the pass times a fixed
kernel of the benchmark's own plain-int arithmetic (`kernel_s`), and
leaves the kernel's wall and CPU time out of the pass.  The host's speed
swings by up to 2x within a second and drifts over minutes, and it slows
the kernel and the program alike; the parent turns every time of the
pass into one at a reference speed from these kernel times.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402

# The kernel counts the roots of a fixed degree-40 polynomial over F_5 in
# F_{5^5}, six times: about 20 ms.
KERNEL_F = [(7 * i * i + 3 * i + 1) % 5 for i in range(40)] + [1]
KERNEL_REPS = 6


def speed_kernel(samples):
    """Run the kernel once; append its (wall, cpu) seconds to samples."""
    w0, c0 = time.monotonic(), time.process_time()
    for _ in range(KERNEL_REPS):
        oracles.roots_count(KERNEL_F, 5, 5)
    samples.append((time.monotonic() - w0, time.process_time() - c0))


def _verify_summary(rep):
    obj = rep.to_obj()
    obj["timings_ms"] = rep.timings_ms
    for key in ("S", "pi0_left", "pi0_right"):
        if obj[key] is not None:
            obj[key] = {k: v for k, v in obj[key].items() if k != "labels"}
    if obj["fibers"] is not None:
        obj["fibers"] = [f["count"] for f in obj["fibers"]]
    for key in ("inputs", "restriction", "psi_witness"):
        obj.pop(key)
    return obj


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import resweil
    from resweil.versuite import parse_case, verify_case

    if not os.path.abspath(resweil.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        raise SystemExit("resweil imported from %s, not from this checkout"
                         % resweil.__file__)
    req = json.load(sys.stdin)
    tracer = None
    if req["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        # the installed wrappers replaced the names bound above
        from resweil.versuite import parse_case, verify_case  # noqa: F811

    cases = [parse_case(op["text"]) for op in req["ops"]]
    results = []
    times = []
    kernel = []
    first = time.monotonic()
    for i, (op, case) in enumerate(zip(req["ops"], cases)):
        speed_kernel(kernel)
        if tracer is not None:
            tracer.op = i
        t0 = time.monotonic()
        try:
            if op["kind"] == "verify":
                out = verify_case(case)
            else:
                R = resweil.weil_restrict(case.algebra, case.scheme)
                out = R.points(resweil.stage_field(op["p"], op["stage"]))
        except Exception as e:  # an escaped error is the operation's result
            out = e
        times.append(time.monotonic() - t0)
        results.append(out)
    speed_kernel(kernel)
    last = time.monotonic() - sum(w for w, _ in kernel)
    ru = resource.getrusage(resource.RUSAGE_SELF)

    shown = []
    for out in results:
        if isinstance(out, Exception):
            shown.append({"error": "%s: %s" % (type(out).__name__, out)})
        elif isinstance(out, list):
            shown.append({"points": [[list(x.label()) for x in pt]
                                     for pt in out]})
        else:
            shown.append({"report": _verify_summary(out)})
    payload = {"first": first, "last": last, "op_s": times,
               "cpu_s": ru.ru_utime + ru.ru_stime - sum(c for _, c in kernel),
               "kernel_s": [w for w, _ in kernel],
               "peak_rss_mb": ru.ru_maxrss / 1024.0, "results": shown}
    if tracer is not None:
        tracer.op = -1
        reports = [r["report"] for r in shown if "report" in r]
        payload["layers"] = tracing.layer_metrics(tracer, reports)
        payload["layers"].update(tracing.kernel_ns(resweil))
        if req.get("trace_out"):
            with open(req["trace_out"], "w", encoding="utf-8") as fh:
                json.dump({"ops": [op["name"] for op in req["ops"]],
                           "spans": tracer.spans}, fh)
    json.dump(payload, sys.stdout)


if __name__ == "__main__":
    main()
