"""Helpers that more than one test module reads: the fiber as its own
presentation, the reference the fibers read off X's total coordinate
ring are checked against, a seeded random basis of an algebra, the
one-block irreducibility test, and the benchmark's workload builders."""

import importlib.util
from pathlib import Path

from resweil import AlgebraPresentation, MPoly, embed
from resweil.exactfield import _packed

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads(monkeypatch):
    """bench/workloads.py as a module, with bench/ on the path for the
    oracles it imports."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fiber_rule_presentation(X, coords, K):
    """Coordinate ring of X's fiber over the base point coords, at stage K:
    each coefficient of `X.coefficients` evaluated there, in K."""
    values = {tv: c if c.field == K else embed(c, K) for tv, c in zip(X.base.vars, coords)}
    yctx = tuple(X.vars)
    return AlgebraPresentation(K, yctx, [
        MPoly(K, yctx, {a: (c if c.field == K else c.map_coefficients(K)).evaluate(values)
                        for a, c in coeffs.items()})
        for coeffs in X.coefficients])


def _is_irreducible(f):
    """Whether the nonzero f is irreducible over its coefficient stage: the
    distinct-degree pass returns f itself as one block of degree deg f,
    the test `exactfield._search_modulus` runs on each candidate."""
    S, fp = _packed(f, f.field)
    return S.degree_blocks(fp) == [(fp, f.degree)]


def _random_basis(A, rng):
    """c_i e_pi(i) + sum over j > i of r_ij e_pi(j), c_i nonzero, for a
    random permutation pi of the standard basis: triangular in pi's order,
    so a basis."""
    e = A.basis_elements()
    rng.shuffle(e)
    p = A.field.p
    return [sum((e[j] * rng.randrange(p) for j in range(i + 1, len(e))),
                e[i] * rng.randrange(1, p)) for i in range(len(e))]
