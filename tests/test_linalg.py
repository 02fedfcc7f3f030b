import math
import operator
import random

from bfunc import localb
from bfunc.linalg import add_column, nullspace
from bfunc.rationals import Rational, rat
from bfunc.sympoly import accumulate

from conftest import bsearch_bases, fraction_rank


def test_single_nonzero_vector():
    assert nullspace([[rat(1), rat(2), rat(3)]], 3) != []
    assert nullspace([[rat(5)]], 1) == []


def test_zero_matrix():
    basis = nullspace([[rat(0), rat(0)]], 2)
    assert len(basis) == 2


def test_known_kernel():
    # x + y = 0, y + z = 0  ->  kernel spanned by (1, -1, 1)
    rows = [[rat(1), rat(1), rat(0)], [rat(0), rat(1), rat(1)]]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    assert [v[0] / v[2], v[1] / v[2], v[2] / v[2]] == [rat(1), rat(-1), rat(1)]


def test_nullspace_properties_random():
    rng = random.Random(41)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rat(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace(rows, ncols)
        # every basis vector is annihilated by every row
        for v in basis:
            for row in rows:
                assert sum((c * x for c, x in zip(row, v)),
                           start=rat(0)) == 0
        # dimension matches rank-nullity against an independent elimination
        assert len(basis) == ncols - fraction_rank(rows)
        # basis vectors are linearly independent (stacked rank check)
        if basis:
            assert fraction_rank([list(v) for v in basis]) == len(basis)


def gauss_jordan_nullspace(rows, ncols):
    """nullspace as it was before it went column by column: dense
    Gauss-Jordan elimination of the rows, basis read off the reduced rows.
    Exact only on Rational entries."""
    mat = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [Rational(0)] * ncols
        vec[fc] = Rational(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(vec)
    return basis


def assert_exact_basis(rows, ncols):
    """nullspace of rows equals the reference on the same rows made
    Rational, entry for entry, and every entry is a Rational."""
    basis = nullspace(rows, ncols)
    want = gauss_jordan_nullspace([[Rational(v) for v in row] for row in rows],
                                  ncols)
    assert basis == want
    assert all(type(c) is Rational for v in basis for c in v)


def test_int_entries_invert_exactly():
    basis = nullspace([[1, 2, 3]], 3)
    assert basis == nullspace([[rat(1), rat(2), rat(3)]], 3)
    assert basis == [[rat(-2), rat(1), rat(0)], [rat(-3), rat(0), rat(1)]]
    assert all(type(c) is Rational for v in basis for c in v)
    # 1/3 is not a binary fraction, so a float kernel would differ
    assert nullspace([[3, -1]], 2) == [[rat(1, 3), rat(1)]]


def test_nullspace_matches_gauss_jordan():
    rng = random.Random(61)
    assert_exact_basis([], 3)
    assert_exact_basis([[0, 0, 0], [0, 0, 0]], 3)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        ints = [[rng.randint(-3, 3) for _ in range(ncols)]
                for _ in range(nrows)]
        assert_exact_basis(ints, ncols)
        # repeated and scaled rows, so the rank falls short
        assert_exact_basis(ints + [[2 * v for v in ints[0]]], ncols)
        assert_exact_basis([[rat(rng.randint(-3, 3), rng.randint(1, 4))
                             for _ in range(ncols)] for _ in range(nrows)],
                           ncols)
    for rows, ncols in tall_sparse_tables(rng):
        assert_exact_basis(rows, ncols)


def tall_sparse_tables(rng):
    """Tables shaped like the b(s) search's: one row per exponent of the
    truncated normal forms, one column per power of s.  Each comes as is
    and with a last column that depends on the others."""
    for _ in range(20):
        nrows, ncols = rng.randint(20, 40), rng.randint(4, 10)
        rows = [[rat(rng.randint(-9, 9), rng.randint(1, 8))
                 if rng.random() < 0.2 else rat(0) for _ in range(ncols)]
                for _ in range(nrows)]
        yield rows, ncols
        weights = [rat(rng.randint(-3, 3), rng.randint(1, 3))
                   for _ in range(ncols - 1)]
        yield [row[:-1] + [sum(map(operator.mul, weights, row[:-1]), rat(0))]
               for row in rows], ncols


def test_add_column_dependency():
    # columns keyed by exponent tuples, as find_generator adds them
    columns = [{(0, 1): rat(1), (2, 0): rat(3)}, {(2, 0): rat(1, 2)},
               {(0, 1): rat(2), (2, 0): rat(4)}, {(1, 1): rat(5)}]
    frozen = [dict(c) for c in columns]
    pivots, found = [], []
    for j, column in enumerate(columns):
        found.append(add_column(pivots, column, j))
    assert columns == frozen
    assert found[:2] == [None, None] and found[3] is None
    # column 2 = 2 * column 0 - 4 * column 1
    assert found[2] == [rat(-2), rat(4), rat(1)]
    assert len(pivots) == 3


def fraction_add_column(pivots, column, index):
    """add_column as it was before it eliminated on ints: every pivot is
    scaled to a 1 at its row and the column is reduced over Q."""
    column = dict(column)
    combination = {index: Rational(1)}
    for row, reduced, comb in pivots:
        c = column.get(row)
        if c:
            accumulate(column, ((k, -c * v) for k, v in reduced.items()))
            accumulate(combination, ((j, -c * v) for j, v in comb.items()))
    if column:
        row = next(iter(column))
        inv = Rational(1) / column[row]
        pivots.append((row, {k: v * inv for k, v in column.items()},
                       {j: v * inv for j, v in combination.items()}))
        return None
    return [combination.get(j, Rational(0)) for j in range(index + 1)]


def assert_same_echelon(columns):
    """add_column and the Fraction reference, fed the same columns, find
    the same dependencies (exact Rationals) and the same pivots, each kept
    by add_column as a primitive int vector: its reduced column and
    combination together have gcd 1 and a positive entry at the row."""
    pivots, want_pivots = [], []
    for j, column in enumerate(columns):
        got = add_column(pivots, column, j)
        assert got == fraction_add_column(want_pivots, column, j)
        assert got is None or all(type(c) is Rational for c in got)
        assert len(pivots) == len(want_pivots)
    for (row, reduced, comb), (want_row, want_reduced, want_comb) in zip(
            pivots, want_pivots):
        values = list(reduced.values()) + list(comb.values())
        assert all(type(v) is int for v in values)
        assert math.gcd(*values) == 1 and reduced[row] > 0
        # the same vectors up to the scale of the pivot entry
        assert row == want_row
        assert {k: Rational(v, reduced[row]) for k, v in reduced.items()} \
            == want_reduced
        assert {j: Rational(v, reduced[row]) for j, v in comb.items()} \
            == want_comb


def test_add_column_matches_fraction_elimination(monkeypatch):
    rng = random.Random(67)
    for rows, ncols in tall_sparse_tables(rng):
        assert_same_echelon([{i: row[j] for i, row in enumerate(rows)
                              if row[j]} for j in range(ncols)])
    # every table find_generator builds on the b(s) search benchmark's
    # three bases at seed 1, one per truncation degree
    tables = []

    def recording(pivots, column, index):
        if index == 0:
            tables.append([])
        tables[-1].append(column)
        return add_column(pivots, column, index)

    monkeypatch.setattr(localb, "add_column", recording)
    for f, gb in bsearch_bases():
        localb.find_generator(gb, 2 * f.arity, 64)
    monkeypatch.undo()
    assert len(tables) >= 3 and sum(map(len, tables)) > 20
    for columns in tables:
        assert_same_echelon(columns)
