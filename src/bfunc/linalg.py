"""Exact rational linear algebra, one sparse column at a time.

add_column reduces a column against the pivots of the columns before it and
either keeps it as a new pivot or returns the dependency that makes it
vanish.  nullspace and the b(s) search in localb both eliminate through it.

The elimination is fraction-free: each column is scaled to ints on entry,
reduced by cross-multiplying with the pivots, and kept as a primitive int
vector.  Rationals come back only in the dependencies handed out, as exact
quotients of two ints.
"""

import math

from .rationals import Rational
from .sympoly import _integral, _rescale, accumulate


def add_column(pivots, column, index):
    """Reduce a sparse column against the pivots; keep it, or return its
    dependency on the columns before it.

    column maps row keys to nonzero int or rational coefficients and is left
    unchanged; it is column number index, counting every column added to
    pivots from 0.  pivots is a list of (row, reduced, combination) built by
    earlier calls: reduced and combination are int dicts, together with gcd
    1, reduced has a positive entry at row and no entry at an earlier
    pivot's row, and reduced equals the sum of combination[j] times column
    j.  Reducing by them in that order clears every pivot row: a column
    entry c at a pivot entry p becomes (p/g)*column - (c/g)*reduced, g the
    gcd of p and c.  A column with entries left joins pivots and None is
    returned.  A column that vanishes returns (a_0, .., a_index), exact
    Rationals with a_index = 1 and nonzero entries only at pivot columns
    besides, such that sum a_j * column j = 0.
    """
    den, column = _integral(column)
    combination = {index: den}
    for row, reduced, comb in pivots:
        c = column.get(row)
        if c:
            p = reduced[row]
            g = math.gcd(p, c)
            a, b = p // g, c // g
            if a != 1:
                _rescale(column, a)
                _rescale(combination, a)
            accumulate(column, ((k, -b * v) for k, v in reduced.items()))
            accumulate(combination, ((j, -b * v) for j, v in comb.items()))
    if column:
        row = next(iter(column))
        content = math.gcd(*column.values(), *combination.values())
        if column[row] < 0:
            content = -content
        pivots.append((row, {k: v // content for k, v in column.items()},
                       {j: v // content for j, v in combination.items()}))
        return None
    last = combination[index]
    return [Rational(combination.get(j, 0), last) for j in range(index + 1)]


def nullspace(rows, ncols):
    """Kernel basis of a rational matrix given as a list of rows.

    Exact arithmetic: entries of int or Rational in, Rational vectors out,
    with ints inside the elimination (add_column).  Column j joins the basis
    when it depends on the columns before it, as the vector with a 1 in
    column j, zero in every other such free column, and minus its pivot
    column coefficients elsewhere: the basis Gauss-Jordan elimination reads
    off its reduced row echelon form, whichever pivot rows are chosen.
    """
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                columns[j][i] = v
    pivots, basis = [], []
    for j, column in enumerate(columns):
        dependency = add_column(pivots, column, j)
        if dependency is not None:
            basis.append(dependency + [Rational(0)] * (ncols - 1 - j))
    return basis
