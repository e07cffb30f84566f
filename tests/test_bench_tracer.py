"""The benchmark's tracer names functions that resweil still defines."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from resweil import exactfield, finalg, multipoly

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, funcs in tracer.TRACED.items():
        home = importlib.import_module("resweil." + module)
        missing += ["%s.%s" % (module, f) for f in funcs
                    if not callable(getattr(home, f, None))]
    assert not missing


# The tracer's notes read these bound arguments by name, so a renamed
# parameter would break `bench/run.py --trace 1` with a KeyError.
@pytest.mark.parametrize("fn, names", [
    (exactfield.roots_in, ("f",)),
    (multipoly.buchberger, ("generators",)),
    (finalg.AlgebraPresentation.__init__, ("field", "variables", "relations")),
], ids=["roots_in", "buchberger", "AlgebraPresentation"])
def test_noted_parameters_keep_their_names(fn, names):
    params = inspect.signature(fn).parameters
    assert [n for n in names if n not in params] == []
