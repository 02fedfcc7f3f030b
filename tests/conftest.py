"""Shared helpers: random data generators and independent oracles.

The oracles here deliberately avoid the code paths they check: operator
products are verified through their action on plain polynomials (repeated
differentiation), staircase classification through set-difference enumeration,
and linear algebra through a second, stdlib-only elimination.
"""

import random
import signal
from fractions import Fraction

import pytest

from bfunc.rationals import rat
from bfunc.sympoly import SymbolPoly
from bfunc.weyl import DiffOp


@pytest.fixture
def rng():
    return random.Random(20260814)


@pytest.fixture
def time_limit():
    """Fail the test with TimeoutError once it has run for 60 s.

    A division loop that never ends (Mora's loop need not terminate when
    its ecart is wrong) then fails its test instead of hanging the suite.
    The previous SIGALRM handler comes back afterwards.
    """
    def expire(signum, frame):
        raise TimeoutError("test ran past its 60 s time limit")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def rand_exp(rng, arity, max_deg=3):
    return tuple(rng.randint(0, max_deg) for _ in range(arity))


def rand_sympoly(rng, arity, terms=3, max_deg=3, zero_ok=False):
    data = {}
    for _ in range(rng.randint(0 if zero_ok else 1, terms)):
        data[rand_exp(rng, arity, max_deg)] = rat(rng.randint(-4, 4) or 1,
                                                  rng.randint(1, 3))
    return SymbolPoly(data)


def rand_op(rng, n, terms=3, max_deg=2, zero_ok=False):
    """Random operator in x^a s^b d^c with small exponents."""
    arity = 2 * n + 1
    data = {}
    for _ in range(rng.randint(0 if zero_ok else 1, terms)):
        data[rand_exp(rng, arity, max_deg)] = rat(rng.randint(-4, 4) or 1,
                                                  rng.randint(1, 3))
    return DiffOp(data)


def rand_xpoly(rng, n, terms=3, max_deg=3):
    """Random polynomial supported on the base variables only."""
    arity = 2 * n + 1
    data = {}
    for _ in range(rng.randint(1, terms)):
        exp = [0] * arity
        for i in range(n):
            exp[i] = rng.randint(0, max_deg)
        data[tuple(exp)] = rat(rng.randint(-4, 4) or 1)
    return SymbolPoly(data)


def act_on_poly(op, g):
    """Apply an operator to a polynomial in (x, s) by brute differentiation.

    Independent of op_mul: each term x^a s^b d^c acts as multiplication after
    c-fold partial differentiation.  s-exponents in g are carried along
    untouched (s is a central parameter).
    """
    n = (op.arity - 1) // 2
    out = SymbolPoly.zero()
    for exp, coeff in op.terms.items():
        piece = g
        for i in range(n):
            for _ in range(exp[n + 1 + i]):
                piece = piece.partial(i)
            if piece.is_zero():
                break
        if piece.is_zero():
            continue
        head = list(exp)
        for i in range(n):
            head[n + 1 + i] = 0
        out = out + piece * SymbolPoly.monomial(tuple(head), coeff)
    return out


def brute_region(leaders, exp):
    """Set-difference definition: first region whose shifted orthant holds exp,
    with all earlier regions explicitly excluded."""
    hit = None
    for i, leader in enumerate(leaders):
        inside = all(a >= b for a, b in zip(exp, leader))
        if inside and hit is None:
            hit = i
    return hit


def fraction_rank(rows):
    """Row rank over exact Fractions; independent of bfunc.linalg."""
    m = [[Fraction(int(c.numerator), int(c.denominator)) for c in row]
         for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col]
        m[rank] = [v / inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def corpus_polys(names_by_n):
    """Small corpus of base polynomials keyed by variable count."""
    from bfunc.parser import parse_poly
    out = []
    for n, names, texts in names_by_n:
        for t in texts:
            out.append((t, names, parse_poly(t, names)))
    return out


CORPUS = [
    (1, ["x"], ["x", "x^2", "x^3", "x^2 + x^3", "1 + x"]),
    (2, ["x", "y"], ["x*y", "x^2 + y^2", "x*(x + y + 1)", "x^2 + y^3"]),
    (3, ["x", "y", "z"], ["x^2 + y^2 + z^2", "x*y*z"]),
]


def corpus():
    return corpus_polys(CORPUS)


# The b(s) search benchmark's three curves, with their coefficients at seed 1
BSEARCH_SEED_1 = ("3*x^3 + 2*y^7", "-3*x^4 + 2*y^6", "x^5 - y^6")


def bsearch_bases():
    """Fresh Mora bases of the b(s) search benchmark's curves at seed 1,
    built as the benchmark builds them: a list of (f, basis)."""
    from bfunc.groebner import buchberger_mora
    from bfunc.localb import ann_fs
    from bfunc.orders import operator_order
    from bfunc.parser import parse_poly
    from bfunc.weyl import from_symbol
    out = []
    for text in BSEARCH_SEED_1:
        f = parse_poly(text, ["x", "y"])
        out.append((f, buchberger_mora(ann_fs(f) + [from_symbol(f)],
                                       operator_order(2))))
    return out
