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


# `--trace 1` counts S-pairs by wrapping `multipoly.s_polynomial` and
# `multipoly.normal_form` as module globals.  The pair loop must call both
# through those globals and reduce every S-polynomial it builds, so that
# `multipoly.s_polynomial.calls` is the number of S-pair reductions.
def test_every_traced_s_polynomial_is_reduced(monkeypatch):
    F5 = exactfield.PrimeField(5)
    vars_ = ("x", "y", "z")
    gens = [multipoly.MPoly(F5, vars_, terms) for terms in (
        {(2, 0, 0): 1, (0, 1, 0): -1},
        {(0, 2, 0): 1, (0, 0, 1): -1},
        {(0, 0, 2): 1, (1, 0, 0): -1},
        {(1, 1, 1): 1, (0, 0, 0): -1},
    )]
    built, reductions = [], []
    s_polynomial, normal_form = multipoly.s_polynomial, multipoly.normal_form

    def counting_s_polynomial(f, g):
        built.append(s_polynomial(f, g))
        return built[-1]

    def counting_normal_form(f, basis):
        if any(f is s for s in built):
            reductions.append(f)
        return normal_form(f, basis)

    monkeypatch.setattr(multipoly, "s_polynomial", counting_s_polynomial)
    monkeypatch.setattr(multipoly, "normal_form", counting_normal_form)
    multipoly.buchberger(gens)
    assert built
    assert len(reductions) == len(built)
