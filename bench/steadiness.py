"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/steadiness.py --workload corpus --seeds 1-10 --seconds 40

For every end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the distance between
them as a share of the median, which BENCHMARK.json's bounds must cover
with room to spare.  Runs go one after another; the summary is also
written to bench/out/steadiness-<workload>-<seeds>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=40)
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, shares = {}, set()  # shares: distinct failed/attempted
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            raise SystemExit("seed %d: outputs were wrong" % seed)
        shares.add(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(
            {n: round(m["value"], 4) for n, m in res["metrics"].items()})),
            flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds,
               "failed/attempted": sorted(shares),
               "metrics": {}}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "values": vals}
        bound = bounds.get(name)
        print("%-24s median %10.4f  q1 %10.4f  q3 %10.4f  spread %6.3f%s"
              % (name, med, q1, q3, spread,
                 "" if bound is None else "  (bound %.2f, third %.3f)"
                 % (bound, bound / 3)))
    print("failed share per run: %s" % summary["failed/attempted"])
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", "steadiness-%s-%s.json"
                        % (args.workload, args.seeds))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
