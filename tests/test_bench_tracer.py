"""The benchmark's tracer names functions that resweil still defines."""

import importlib
import importlib.util
from pathlib import Path

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
