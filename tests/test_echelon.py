"""Elimination on packed rows, `_Packed.echelon` and the kernel and solve
read off it, against the field-element elimination it replaced.

The reference is `_linalg`'s Gaussian elimination on `FieldElement`
entries, kept here as the `_linalg_rule_*` functions so that it stays
independent of the package.  Both pivot on the first nonzero entry of
each column, so they must agree entry by entry.
"""

import json
import random
from pathlib import Path

import pytest

from resweil.errors import CertificateFailure
from resweil.exactfield import FieldElement, PrimeField, _Packed, _packing, make_ext_field
from resweil.versuite import parse_case, verify_case

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "cases"
GOLDEN = ROOT / "tests" / "data" / "corpus-report-seed42.json"


def _linalg_rule_rref(matrix, field):
    """Row-reduce a copy of the matrix; returns (rows, pivot column list)."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _linalg_rule_rank(matrix, field):
    if not matrix:
        return 0
    _, pivots = _linalg_rule_rref(matrix, field)
    return len(pivots)


def _linalg_rule_kernel_basis(matrix, field):
    """Basis of the right kernel, one vector per free column."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = _linalg_rule_rref(matrix, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def _linalg_rule_solve(matrix, rhs, field):
    """One solution of M x = rhs, or None when inconsistent."""
    nrows = len(matrix)
    if nrows == 0:
        return [] if all(b.is_zero() for b in rhs) else None
    ncols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = _linalg_rule_rref(aug, field)
    for row in rows:
        if all(x.is_zero() for x in row[:ncols]) and not row[ncols].is_zero():
            return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = rows[r][ncols]
    return x


def _linalg_rule_invert(matrix, field):
    """Inverse of a square matrix, or None when singular."""
    n = len(matrix)
    aug = [list(row) + [field.one if i == j else field.zero for j in range(n)]
           for i, row in enumerate(matrix)]
    rows, pivots = _linalg_rule_rref(aug, field)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows[:n]]


# F_p, F_{p^m}, and p = 2^31 - 1 at m = 1 and m = 3
FIELDS = [(7, 1), (5, 2), (3, 4), (2 ** 31 - 1, 1), (2 ** 31 - 1, 3)]


def _field(p, m):
    return PrimeField(p) if m == 1 else make_ext_field(p, m)


def _smallest_packing(K):
    # degree 0 has the smallest value bound: the echelon must fit any degree
    return _packing(K.p, K.modulus, 0)


def _pack(S, matrix):
    return [[S.pack(x.coeffs) for x in row] for row in matrix]


def _unpack(S, K, matrix):
    return [[FieldElement(K, S.unpack(a)) for a in row] for row in matrix]


def _entry(K, rng):
    if rng.random() < 1 / 3:
        return K.zero
    return K.element(tuple(rng.randrange(K.p) for _ in range(K.degree)))


def _random_matrix(K, rng, n, w):
    return [[_entry(K, rng) for _ in range(w)] for _ in range(n)]


def _matrices(K, rng):
    """Seeded matrices of every kind: zero, full-rank square, singular
    square, wide and tall; entries random, a third of them zero, and one
    matrix with every slot of every entry at p - 1."""
    top = K.element((K.p - 1,) * K.degree)
    out = [("zero", [[K.zero] * 5 for _ in range(4)]),
           ("top", [[top] * 4 for _ in range(3)])]
    while True:
        full = _random_matrix(K, rng, 6, 6)
        if _linalg_rule_rank(full, K) == 6:
            break
    out.append(("full-rank", full))
    singular = _random_matrix(K, rng, 6, 6)
    c = _entry(K, rng)
    singular[4] = [a + c * b for a, b in zip(singular[1], singular[2])]
    singular[5] = list(singular[3])
    out.append(("singular", singular))
    out.append(("wide", _random_matrix(K, rng, 4, 7)))
    out.append(("tall", _random_matrix(K, rng, 7, 4)))
    return out


@pytest.mark.parametrize("p, m", FIELDS)
def test_echelon_kernel_and_rank_match_the_rule(p, m, slot_peaks):
    K = _field(p, m)
    S = _smallest_packing(K)
    rng = random.Random("echelon-%d-%d" % (p, m))
    for name, M in _matrices(K, rng):
        rule_rows, rule_pivots = _linalg_rule_rref(M, K)
        rows = _pack(S, M)
        pivots = S.echelon(rows)
        assert (pivots, _unpack(S, K, rows)) == (rule_pivots, rule_rows), name
        assert len(pivots) == _linalg_rule_rank(M, K), name
        kernel = S.kernel(_pack(S, M))
        assert _unpack(S, K, kernel) == _linalg_rule_kernel_basis(M, K), name
    assert (p, m) in slot_peaks


@pytest.mark.parametrize("p, m", FIELDS)
def test_solve_and_inverse_match_the_rule(p, m, slot_peaks):
    K = _field(p, m)
    S = _smallest_packing(K)
    rng = random.Random("solve-%d-%d" % (p, m))
    solved = unsolved = 0
    for name, M in _matrices(K, rng):
        n, w = len(M), len(M[0])
        # right-hand sides in the span of the columns, and random ones
        xs = _random_matrix(K, rng, 2, w)
        spanned = [[sum((a * b for a, b in zip(row, x)), K.zero) for row in M]
                   for x in xs]
        for rhs in (spanned, _random_matrix(K, rng, 2, n)):
            rule = [_linalg_rule_solve(M, b, K) for b in rhs]
            aug = _pack(S, [row + [b[i] for b in rhs] for i, row in enumerate(M)])
            sol = S.solve(aug, w)
            # M's kernel, read off the echelon form the solve leaves
            assert _unpack(S, K, S.null_vectors(aug, w)) == \
                _linalg_rule_kernel_basis(M, K), name
            if None in rule:
                assert sol is None, name
                unsolved += 1
            else:
                assert _unpack(S, K, sol) == rule, name
                solved += 1
        if n == w:
            unit = [[K.one if i == j else K.zero for j in range(n)] for i in range(n)]
            inverse = S.solve(_pack(S, [row + u for row, u in zip(M, unit)]), n)
            rule = _linalg_rule_invert(M, K)
            if rule is None:
                assert inverse is None, name
            else:
                # the solve returns the inverse's columns
                assert _unpack(S, K, inverse) == [list(c) for c in zip(*rule)], name
    assert solved and unsolved
    assert (p, m) in slot_peaks


# -- a corrupted echelon must not pass unnoticed -------------------------

def _dropped_pivot(real):
    """An echelon that forgets its last pivot."""
    def echelon(self, rows):
        return real(self, rows)[:-1]
    return echelon


def _wrong_pivot_inverse(real):
    """An echelon that scales each pivot row by twice the pivot's inverse."""
    inverse = _Packed.inverse

    def echelon(self, rows):
        _Packed.inverse = lambda S, x: S.reduce(2 * inverse(S, x))
        try:
            return real(self, rows)
        finally:
            _Packed.inverse = inverse
    return echelon


@pytest.mark.parametrize("mutant", [_dropped_pivot, _wrong_pivot_inverse],
                         ids=["dropped-pivot", "wrong-pivot-inverse"])
def test_a_corrupted_echelon_fails_a_check_and_changes_no_passing_report(
        monkeypatch, mutant):
    golden = {r["case"]: r for r in json.loads(GOLDEN.read_text())}
    monkeypatch.setattr(_Packed, "echelon", mutant(_Packed.echelon))
    failed = []
    for path in sorted(CASES.glob("*.case")):
        case = parse_case(path.read_text())
        try:
            rep = verify_case(case, 42)
        except CertificateFailure:
            failed.append(case.name)
            continue
        if rep.ok():
            assert json.loads(json.dumps(rep.to_obj())) == golden[case.name], case.name
        else:
            failed.append(case.name)
    assert failed
