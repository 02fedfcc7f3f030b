import operator
import random

from bfunc.linalg import add_column, nullspace
from bfunc.rationals import Rational, rat

from conftest import fraction_rank


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
    # tall sparse tables shaped like the b(s) search's: one row per exponent
    # of the truncated normal forms, one column per power of s
    for _ in range(20):
        nrows, ncols = rng.randint(20, 40), rng.randint(4, 10)
        rows = [[rat(rng.randint(-9, 9), rng.randint(1, 8))
                 if rng.random() < 0.2 else rat(0) for _ in range(ncols)]
                for _ in range(nrows)]
        assert_exact_basis(rows, ncols)
        # a last column that depends on the others
        weights = [rat(rng.randint(-3, 3), rng.randint(1, 3))
                   for _ in range(ncols - 1)]
        dependent = [row[:-1] + [sum(map(operator.mul, weights, row[:-1]),
                                     rat(0))] for row in rows]
        assert_exact_basis(dependent, ncols)


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
