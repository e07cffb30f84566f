"""Run the command line over every committed case under cProfile and print,
as JSON, the (file under src/resweil, first line, name) of every code
object that ran.

    PYTHONPATH=src python tests/cli_sweep.py

The sweep is `verify`, `verify --json`, `pi0`, `restrict` and
`points --ext 1` and `--ext 2` over cases/, tests/data/points-stage/,
tests/data/probes/ (but probe A3, which runs the paths probe A runs, at
eight times the cost) and tests/data/routes/ (the infinite restriction
at `--ext 1` alone: its stage 2 has 5^8 candidate tuples) and two
malformed case texts.  Each call runs in this process, its output
discarded; `tests/test_imports.py` reads the result.
"""

import cProfile
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "resweil"

MALFORMED = {
    "syntax.case": 'case "syntax"\nfield p =\n',
    "undeclared.case": ('case "undeclared"\nfield p = 5\nalgebra A : vars t ; rels t^2\n'
                        'scheme X : vars y ; rels y^2 - s\n'),
}


def _calls(tmp):
    paths = sorted(ROOT.glob("cases/*.case"))
    paths += sorted(ROOT.glob("tests/data/points-stage/*.case"))
    paths += sorted(p for p in ROOT.glob("tests/data/probes/*.case")
                    if p.stem != "probe-a3")
    paths += sorted(ROOT.glob("tests/data/routes/*.case"))
    for name, text in MALFORMED.items():
        paths.append(Path(tmp) / name)
        paths[-1].write_text(text, encoding="utf-8")
    files = [str(p) for p in paths]
    yield ["verify"] + files
    yield ["verify", "--json", "--seed", "42"] + files
    for path in files:
        yield ["pi0", path]
        yield ["restrict", path]
        yield ["points", path, "--ext", "1"]
        if Path(path).stem != "route-infinite":
            yield ["points", path, "--ext", "2"]


def main():
    prof = cProfile.Profile()
    prof.enable()
    from resweil.versuite.cli import main as cli

    with tempfile.TemporaryDirectory() as tmp:
        for argv in _calls(tmp):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli(argv)
    prof.disable()
    ran = set()
    for entry in prof.getstats():
        code = entry.code
        if isinstance(code, str):  # a builtin
            continue
        path = Path(code.co_filename).resolve()
        if SRC in path.parents:
            ran.add((path.relative_to(SRC).as_posix(), code.co_firstlineno,
                     code.co_name))
    json.dump(sorted(ran), sys.stdout)


if __name__ == "__main__":
    main()
