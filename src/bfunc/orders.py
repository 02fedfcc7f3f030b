"""Monomial orders on exponent vectors.

Exponent vectors are plain int tuples.  A session with n base variables uses
vectors of length 2n+1 laid out as (x_1..x_n, s, xi_1..xi_n), where the xi
block positionally mirrors the derivation symbols.  Orders are matrices of
integer weight rows refined by a named term order; comparison is
lexicographic on the row values with the term order breaking remaining ties,
so two exponents compare equal only when they are identical.
"""

import operator
from dataclasses import dataclass

from .errors import InputError


def _lex_key(a):
    return a


def _grlex_key(a):
    return (sum(a), a)


def _grevlex_key(a):
    # Higher total degree wins; ties go to the exponent whose rightmost
    # differing entry is smaller.
    return (sum(a), tuple(map(operator.neg, reversed(a))))


TIE_ORDERS = {
    "lex": _lex_key,
    "grlex": _grlex_key,
    "grevlex": _grevlex_key,
}


@dataclass(frozen=True)
class MatrixOrder:
    """Weight-matrix monomial order with a term-order tie breaker."""

    rows: tuple
    tie: str
    arity: int

    def __post_init__(self):
        if self.tie not in TIE_ORDERS:
            raise InputError(f"unknown tie order {self.tie!r}")
        for row in self.rows:
            if len(row) != self.arity:
                raise InputError("weight row length does not match arity")

    def key(self, exp):
        """Sort key: exponents with larger key are larger in the order."""
        if len(exp) != self.arity:
            raise InputError(
                f"exponent arity {len(exp)} does not match order arity {self.arity}")
        weights = tuple([sum(map(operator.mul, row, exp)) for row in self.rows])
        return weights + TIE_ORDERS[self.tie](exp)


def _descending_key(order, exp):
    """order.key(exp) with every int negated, so that a heapq min-heap of
    them pops the largest exponent first.  The grlex and grevlex tie keys
    end in a tuple of fixed length, which is negated in place: a flattened
    key would be a tuple length nothing else uses, and the interpreter keeps
    up to 2000 freed tuples of each length for reuse."""
    key = order.key(exp)
    if type(key[-1]) is tuple:
        return tuple(map(operator.neg, key[:-1])) + (
            tuple(map(operator.neg, key[-1])),)
    return tuple(map(operator.neg, key))


def series_order(arity, tie="grevlex"):
    """Order for power-series division: lower total degree is larger.

    Not a well-order; its single weight row is all -1.
    """
    return MatrixOrder(rows=((-1,) * arity,), tie=tie, arity=arity)


def operator_order(n, tie="grevlex"):
    """Division order for operators with series coefficients.

    Compares the (s, xi)-weight first, then prefers lower x-degree, so initial
    parts with respect to the (s, xi)-weight carry the leading data.
    """
    e_row = (0,) * n + (1,) + (1,) * n
    x_row = (-1,) * n + (0,) + (0,) * n
    return MatrixOrder(rows=(e_row, x_row), tie=tie, arity=2 * n + 1)


def elimination_order(n, block, tie="grevlex"):
    """Global order on a session with n base variables eliminating `block`.

    `block` lists x-slot indices whose variables (and their xi partners) are
    eliminated: any monomial containing one outweighs every monomial free of
    them.  Total degree refines, making this a well-order.
    """
    arity = 2 * n + 1
    first = [0] * arity
    for i in block:
        first[i] = 1
        first[n + 1 + i] = 1
    return MatrixOrder(rows=(tuple(first), (1,) * arity), tie=tie, arity=arity)


def homogenized_order(n, tie="grevlex"):
    """Well-order used on degree-homogenized operators.

    Exponents carry one extra trailing slot for the homogenizing variable.
    Total degree (homogenizing slot included) comes first, then the operator
    division order on the original slots.
    """
    arity = 2 * n + 2
    e_row = (0,) * n + (1,) + (1,) * n + (0,)
    x_row = (-1,) * n + (0,) + (0,) * n + (0,)
    return MatrixOrder(rows=((1,) * arity, e_row, x_row), tie=tie, arity=arity)
