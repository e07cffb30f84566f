"""Run case files in bulk and fold the outcomes into one exit code.

Exit codes: 0 when everything passed, 1 when some check failed, 2 when
some input could not be read, parsed or verified at all (a zero-ring
base, say), 3 when a search or Groebner budget ran out (the message
names the layer; the budgets are module constants, not arguments).  A
worse category wins: input trouble over failed checks over guard stops.
Cases run in case-name order regardless of the argument order, so
reports come out the same for any shuffling of the paths.
"""

from ..errors import GuardExceeded, ResweilError
from .dsl import parse_case
from .verify import verify_case

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


class SuiteResult:
    __slots__ = ("reports", "problems", "exit_code")

    def __init__(self, reports=None, problems=None, exit_code=EXIT_OK):
        self.reports = [] if reports is None else reports
        self.problems = [] if problems is None else problems  # (path, kind, message)
        self.exit_code = exit_code


def run_suite(paths, seed=0) -> SuiteResult:
    entries = []
    problems = []
    for path in paths:
        path = str(path)
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            problems.append((path, "input", str(e)))
            continue
        try:
            case = parse_case(text)
        except GuardExceeded as e:
            problems.append((path, "guard", str(e)))
            continue
        except ResweilError as e:
            problems.append((path, "input", str(e)))
            continue
        entries.append((case, path))
    entries.sort(key=lambda cp: (cp[0].name, cp[1]))

    reports = []
    failed = False
    for case, path in entries:
        try:
            rep = verify_case(case, seed)
        except GuardExceeded as e:
            problems.append((path, "guard", str(e)))
            continue
        except ResweilError as e:
            problems.append((path, "input", str(e)))
            continue
        reports.append(rep)
        failed = failed or not rep.ok()

    if any(kind == "input" for _, kind, _ in problems):
        code = EXIT_INPUT
    elif failed:
        code = EXIT_VERIFY
    elif problems:
        code = EXIT_GUARD
    else:
        code = EXIT_OK
    return SuiteResult(reports, problems, code)
