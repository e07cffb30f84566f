"""Every name a module imports is read in that module, every private
module-level function is read somewhere in the package, and importing the
package stays cheap.

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


def _names_read(node):
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_private_function_is_referenced():
    # module-level `_name` functions only; methods are left out, since
    # the case parser dispatches its `_dir_*` methods by name
    trees = [(path, ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.rglob("*.py"))]
    private = [(path, fn) for path, tree in trees for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")]
    assert len(private) >= 10
    read = sum((_names_read(tree) for _, tree in trees), Counter())
    unread = [(str(path.relative_to(SRC)), fn.name) for path, fn in private
              if read[fn.name] == _names_read(fn)[fn.name]]
    assert unread == []


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
