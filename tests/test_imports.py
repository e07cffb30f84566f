"""Every name a module imports is read in that module, every function
and method runs in a sweep of CLI calls, is public or is listed with its
reason, and importing the package stays cheap.

Package `__init__` modules import to re-export, so the import check
leaves them out; `from __future__` imports change the compiler, not the
namespace.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "resweil"
SWEEP = Path(__file__).resolve().parent / "cli_sweep.py"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _unread_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_modules_are_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unread_imports(tree) == []


def _imports_linalg(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "_linalg" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "_linalg" or any(
                    a.name == "_linalg" for a in node.names):
                return True
    return False


def test_no_module_imports_linalg():
    # every elimination runs on `exactfield._Packed.echelon`; `_linalg`
    # stays only for the benchmark's tracer, which names its functions,
    # and the package `__init__` loads it for the tracer to find
    readers = [str(path.relative_to(SRC)) for path in MODULES
               if _imports_linalg(ast.parse(path.read_text(encoding="utf-8")))]
    assert readers == []


def _sweep():
    """(file under src/resweil, first line, name) of every code object that
    ran in `tests/cli_sweep.py`, in a fresh interpreter."""
    done = subprocess.run([sys.executable, str(SWEEP)], capture_output=True,
                          text=True, env=_env())
    assert done.returncode == 0, done.stderr
    return {tuple(key) for key in json.loads(done.stdout)}


def _definitions():
    """(qualified name, file under src/resweil, node) for every
    module-level function in src/ and every method of a module-level
    class, dunders included."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        rel = path.relative_to(SRC).as_posix()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                out.append(("%s.%s" % (module, node.name), rel, node))
            elif isinstance(node, ast.ClassDef):
                out += [("%s.%s.%s" % (module, node.name, m.name), rel, m)
                        for m in node.body if isinstance(m, ast.FunctionDef)]
    return out


def _public():
    """The qualified names of the module-level names in the two `__all__`s."""
    import resweil
    import resweil.versuite
    return {"%s.%s" % (obj.__module__.partition(".")[2], obj.__qualname__)
            for pkg in (resweil, resweil.versuite)
            for obj in map(pkg.__dict__.get, pkg.__all__)}


_REPR = "a repr, read when a test fails or a value is inspected"
_ARITHMETIC = ("UniPoly and FieldElement arithmetic, which the tests' "
               "_field_element_rule_* run on")

# Definitions in src/ that no call of the CLI sweep runs and that stay,
# with the reason.  Every other definition ran, or is public.
NOT_RUN = {
    # bench/tracer.py wraps every name of its TRACED; `_linalg` leaves src/
    # with the benchmark change that drops them there
    **{"_linalg." + name: "named in the benchmark tracer's TRACED"
       for name in ("rref", "rank", "kernel_basis", "solve", "invert",
                    "mat_mul", "mat_vec", "identity")},
    **{name + ".__repr__": _REPR
       for name in ("exactfield.FieldElement", "exactfield.ExtField",
                    "exactfield.UniPoly", "finalg.AlgebraPresentation",
                    "gammaset.GeometricPoint", "gammaset.GammaSet",
                    "multipoly.MPoly", "versuite.dsl.Case",
                    "weilres.SchemePresentation", "weilres.RestrictedScheme")},
    **{"finalg.AlgebraPresentation." + name: "README documents it"
       for name in ("min_poly", "inverse", "is_unit")},
    **{"exactfield.FieldElement." + name: _ARITHMETIC
       for name in ("__sub__", "__rsub__", "inverse", "__truediv__",
                    "__rtruediv__")},
    **{"exactfield.UniPoly." + name: _ARITHMETIC
       for name in ("__eq__", "__hash__", "__add__", "__sub__", "__mul__",
                    "divmod", "__mod__", "__floordiv__", "monic", "evaluate",
                    "map_coefficients")},
    "exactfield.UniPoly.from_ints":
        "the parent modulus when `embed` leaves a stage of degree > 1, as no swept call does",
    "exactfield.ExtField.element":
        "builds an element from its coefficients, as the tests do throughout",
    "finalg.AlgebraPresentation.coords":
        "a coordinate vector as field elements, read by the finalg reference rules",
    "finalg.LocalFactor.__init__": "the record decompose_local, in __all__, returns",
    "gammaset.GammaSet.orbits": "the closed points of a Frobenius set in __all__",
    "multipoly.MPoly.__rsub__": "int minus polynomial, arithmetic of MPoly, in __all__",
    "multipoly.MPoly.__hash__": "MPoly, in __all__, is a hashable value type",
    "multipoly._ext_coeff_str":
        "prints a coefficient outside F_p; the CLI prints polynomials over F_p only",
    "multipoly.GroebnerBasis.__iter__": "the multipoly tests compare bases by their members",
    "multipoly.GroebnerBasis.__eq__": "the multipoly tests compare bases by value",
    "versuite.dsl.Case._key": "Case equality, which render_case's round trip is checked by",
    "versuite.dsl.Case.__eq__": "Case equality, which render_case's round trip is checked by",
    "versuite.dsl._render_block": "a helper of render_case, in versuite.__all__",
    "versuite.dsl._render_check": "a helper of render_case, in versuite.__all__",
}


def test_every_definition_runs_in_the_cli_sweep_or_is_listed():
    # A definition passes when the sweep ran it, when it is a module-level
    # name of the public contract, or when NOT_RUN gives the reason it
    # stays; every NOT_RUN entry names a definition that is still there
    # and still does not run.  A decorated function's code may start at
    # its first decorator (Python 3.10) or at its `def` (3.11 and later).
    ran = _sweep()
    defs = _definitions()
    not_run = {qualname for qualname, rel, node in defs
               if not any((rel, line, node.name) in ran for line in
                          [node.lineno] + [d.lineno for d in node.decorator_list[:1]])}
    assert len(defs) - len(not_run) >= 200  # the sweep's keys match the AST's
    assert sorted(not_run - _public() - NOT_RUN.keys()) == []
    assert sorted(NOT_RUN.keys() - {qualname for qualname, _, _ in defs}) == []
    assert sorted(NOT_RUN.keys() - not_run) == []


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _readme_api():
    """The names of README's API list: the bullets after its first line."""
    lines = (SRC.parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("The public API is `resweil.__all__`, exactly these names, by module:")
    names, bullets = [], lines[start + 2:]
    for line in bullets[:bullets.index("")]:
        names += re.findall(r"`(\w+)`", line)
    return names


def test_the_public_api_is_readme_s_list():
    import resweil
    assert sorted(_readme_api()) == sorted(resweil.__all__)
    assert len(set(resweil.__all__)) == len(resweil.__all__)
    # the package imports exactly its API and two modules: `errors`, and
    # `_linalg`, which the benchmark's tracer finds among the loaded ones
    imported = [alias.asname or alias.name
                for node in ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(imported) == sorted(resweil.__all__ + ["_linalg", "errors"])


def _run_without_site(args):
    # -S: no site hooks, so only what resweil imports is loaded
    return subprocess.run([sys.executable, "-S"] + args, capture_output=True,
                          text=True, env=_env())


def test_importing_the_package_loads_no_startup_heavy_module():
    # dataclasses drags in inspect (and dis, ast, tokenize); argparse and
    # json are for the command line alone
    done = _run_without_site(
        ["-c", "import sys, resweil, resweil.versuite\n"
               "print(' '.join(m for m in ('dataclasses', 'inspect', 'argparse',"
               " 'json', 'resweil.versuite.cli') if m in sys.modules))"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_the_cli_module_without_arguments_prints_usage_and_exits_2():
    # under -W error: runpy's warning about a module already imported by
    # its package would stop the run before the usage
    done = _run_without_site(["-W", "error", "-m", "resweil.versuite.cli"])
    assert done.returncode == 2
    assert "usage: resweil [-h] {restrict,pi0,points,verify} ..." in done.stderr
    assert "the following arguments are required: command" in done.stderr
