"""Every name a module imports is read in that module, every function,
class and method is read somewhere in the package or is listed as an
entry point, and importing the package stays cheap.

Package `__init__` modules import to re-export, so the import check
leaves them out; `from __future__` imports change the compiler, not the
namespace.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "resweil"
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


def _reads(node, kind):
    """How often each name is loaded in node, as a bare name (ast.Name) or
    as an attribute (ast.Attribute)."""
    return Counter(n.id if kind is ast.Name else n.attr for n in ast.walk(node)
                   if isinstance(n, kind) and isinstance(n.ctx, ast.Load))


def _public_api():
    """The names the package `__init__` modules re-export."""
    return {alias.asname or alias.name
            for init in (SRC / "__init__.py", SRC / "versuite" / "__init__.py")
            for node in ast.parse(init.read_text(encoding="utf-8")).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


# Definitions in src/ that no code in src/ reads and that stay, with the
# reason; the public API re-exported by the package needs no entry.
UNREAD = {
    # bench/tracer.py wraps these by name (TRACED); they leave src/ with
    # the benchmark change that drops them there.  `rref` is read by the
    # others, so it needs no entry.
    **{"_linalg." + name: "named in the benchmark tracer's TRACED"
       for name in ("rank", "kernel_basis", "solve", "invert", "mat_mul",
                    "mat_vec", "identity")},
    "exactfield.factor_univariate": "named in the benchmark tracer's TRACED",
    # the case parser dispatches each directive to its handler by getattr
    **{"versuite.dsl._CaseParser._dir_" + name: "dispatched by getattr"
       for name in ("case", "field", "algebra", "scheme", "expect", "checks")},
    # methods of exported classes that callers outside the package read
    "exactfield.ExtField.element": "builds an element from its coefficients",
    "gammaset.GammaSet.orbits": "the orbits of a Frobenius set, its closed points",
    "finalg.AlgebraPresentation.is_unit": "README documents it as public",
    "finalg.AlgebraPresentation.min_poly": "README documents it as public",
}


def _definitions(trees):
    """(qualified name, node, how a reader loads it) for every module-level
    function and class in src/, by bare name, and every method but the
    dunders, as an attribute."""
    out = []
    for path, tree in trees:
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append(("%s.%s" % (module, node.name), node, ast.Name))
            if isinstance(node, ast.ClassDef):
                out += [("%s.%s.%s" % (module, node.name, m.name), m, ast.Attribute)
                        for m in node.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def test_every_private_function_is_referenced():
    # A definition has a reader when it is loaded somewhere in src/
    # outside its own body.  Names are not resolved, so this is a lower
    # bound on what is dead.  Every unread definition is public API or has
    # an entry in UNREAD, and every entry names a definition that is still
    # there and still unread.
    trees = [(path, ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.rglob("*.py"))]
    defs = _definitions(trees)
    assert len(defs) >= 200
    read = {kind: sum((_reads(tree, kind) for _, tree in trees), Counter())
            for kind in (ast.Name, ast.Attribute)}
    unread = {qualname for qualname, node, kind in defs
              if read[kind][node.name] == _reads(node, kind)[node.name]}
    public = _public_api()
    exported = {qualname for qualname, node, kind in defs
                if kind is ast.Name and node.name in public}
    assert sorted(unread - exported - UNREAD.keys()) == []
    assert sorted(UNREAD.keys() - unread) == []


def _run_without_site(args):
    # -S: no site hooks, so only what resweil imports is loaded
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-S"] + args, capture_output=True,
                          text=True, env=env)


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
