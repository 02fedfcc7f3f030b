"""Exact rational linear algebra, one sparse column at a time.

add_column reduces a column against the pivots of the columns before it and
either keeps it as a new pivot or returns the dependency that makes it
vanish.  nullspace and the b(s) search in localb both eliminate through it.
"""

from .rationals import Rational
from .sympoly import accumulate


def add_column(pivots, column, index):
    """Reduce a sparse column against the pivots; keep it, or return its
    dependency on the columns before it.

    column maps row keys to nonzero coefficients and is left unchanged; it is
    column number index, counting every column added to pivots from 0.
    pivots is a list of (row, reduced, combination) built by earlier calls:
    reduced has a 1 at row and no entry at an earlier pivot's row, and equals
    the sum of combination[j] times column j.  Subtracting them in that order
    clears every pivot row.  A column with entries left joins pivots and None
    is returned.  A column that vanishes returns (a_0, .., a_index), exact
    rationals with a_index = 1 and nonzero entries only at pivot columns
    besides, such that sum a_j * column j = 0.
    """
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


def nullspace(rows, ncols):
    """Kernel basis of a rational matrix given as a list of rows.

    Exact arithmetic, entries of int or Rational.  Column j joins the basis
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
