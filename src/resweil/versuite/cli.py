"""Command line front end.

    resweil restrict FILE          print the restricted presentation
    resweil pi0 FILE               component set of the restriction
    resweil points FILE --ext M    restriction points over the degree-M stage
    resweil verify FILE... [--json] [--seed N]

restrict/pi0/points work on a single case file; verify takes several
and aggregates them.  JSON output keeps a fixed field order and null
timings, so two runs with the same seed emit identical bytes.
"""

import json
import sys

from ..errors import GuardExceeded, ResweilError
from ..exactfield import MAX_DEGREE, stage_field
from ..gammaset import pi0_points
from ..weilres import weil_restrict
from .dsl import parse_case
from .suite import EXIT_GUARD, EXIT_INPUT, run_suite
from .verify import ambient_degree


def _read_case(path):
    with open(path, encoding="utf-8") as fh:
        return parse_case(fh.read())


def _fmt_label(label):
    return json.dumps(label)


def _cmd_restrict(args):
    case = _read_case(args.file)
    R = weil_restrict(case.algebra, case.scheme)
    print("case %s" % case.name)
    print("base dimension %d, basis %s"
          % (case.algebra.dimension,
             ", ".join(str(b) for b in R.basis)))
    print("variables: %s" % " ".join(R.vars))
    for r in R.relations:
        print("relation: %s" % r)
    for g in R.groebner.polys:
        print("groebner: %s" % g)
    print("empty: %s" % ("yes" if R.is_empty() else "no"))
    return 0


def _cmd_pi0(args):
    case = _read_case(args.file)
    R = weil_restrict(case.algebra, case.scheme)
    N = ambient_degree(case.algebra, case.scheme, R)
    left = pi0_points(R.quotient, N)
    print("case %s" % case.name)
    print("ambient degree: %d" % N)
    print("components: %d" % len(left))
    print("cycle type: %s" % (tuple(left.cycle_type()),))
    for el in left.elements:
        print("point: %s" % _fmt_label(el.label()))
    return 0


def _cmd_points(args):
    case = _read_case(args.file)
    if not 1 <= args.ext <= MAX_DEGREE:
        print("resweil: --ext must be in 1..%d" % MAX_DEGREE, file=sys.stderr)
        return EXIT_INPUT
    R = weil_restrict(case.algebra, case.scheme)
    K = stage_field(case.p, args.ext)
    pts = R.points(K)
    print("case %s" % case.name)
    print("stage degree: %d" % args.ext)
    print("points: %d" % len(pts))
    for pt in pts:
        print("point: %s" % _fmt_label([x.label() for x in pt]))
    return 0


def _cmd_verify(args):
    result = run_suite(args.files, seed=args.seed)
    if args.json:
        payload = [rep.to_obj() for rep in result.reports]
        print(json.dumps(payload, indent=2))
    else:
        for rep in result.reports:
            verdict = "pass" if rep.ok() else "FAIL"
            print("case %s: %s" % (rep.case, verdict))
            for c in rep.checks:
                mark = "ok " if c.ok else "FAIL"
                print("  [%s] %s: %s" % (mark, c.name, c.detail))
            if rep.timings_ms is not None:
                print("  (%.1f ms)" % rep.timings_ms["total"])
    for path, kind, message in result.problems:
        print("resweil: %s: %s error: %s" % (path, kind, message),
              file=sys.stderr)
    return result.exit_code


def main(argv=None):
    import argparse  # only the command line needs it; library imports skip it

    ap = argparse.ArgumentParser(
        prog="resweil",
        description="restriction of scalars for affine schemes over "
                    "finite algebras, with component-set verification")
    sub = ap.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("restrict",
                        help="print the restricted presentation")
    pr.add_argument("file")
    pr.set_defaults(handler=_cmd_restrict)

    pp = sub.add_parser("pi0",
                        help="component set of the restriction")
    pp.add_argument("file")
    pp.set_defaults(handler=_cmd_pi0)

    pt = sub.add_parser("points",
                        help="restriction points over an extension stage")
    pt.add_argument("file")
    pt.add_argument("--ext", type=int, default=1, metavar="M",
                    help="stage degree over the prime field (default 1)")
    pt.set_defaults(handler=_cmd_points)

    pv = sub.add_parser("verify", help="run case files and report")
    pv.add_argument("files", nargs="+")
    pv.add_argument("--json", action="store_true",
                    help="machine-readable reports on stdout")
    pv.add_argument("--seed", type=int, default=0,
                    help="recorded in each report (default 0)")
    pv.set_defaults(handler=_cmd_verify)

    args = ap.parse_args(argv)
    try:
        return args.handler(args)
    except OSError as e:
        print("resweil: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except GuardExceeded as e:
        print("resweil: guard: %s" % e, file=sys.stderr)
        return EXIT_GUARD
    except ResweilError as e:
        print("resweil: %s" % e, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
