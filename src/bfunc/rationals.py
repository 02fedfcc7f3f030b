"""Exact rational coefficient backend.

Coefficients in this package are arbitrary-precision rationals kept in
lowest terms, with one exception: the inner loops carry Python ints.  Inside
groebner.buchberger_global the basis elements and their S-pairs are
primitive integer multiples.  groebner.mora_div and reduce_global,
staircase.series_approx_div and opdiv.op_approx_div keep integer multiples
of their running dividend, quotients and remainder (pseudo-division), and
linalg.add_column keeps its columns and pivots as ints (fraction-free
elimination).  Each becomes rational again, by one division, when it is
handed out.  gmpy2 is
used when present because its mpq type is several times faster than
fractions.Fraction; both expose the same arithmetic and print identically.
Code that takes a coefficient apart uses only .numerator, .denominator and
math.gcd/lcm, which both types and int support.
"""

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rational


def rat(num, den=1):
    """Build a rational from integers or a 'p/q' string."""
    if den == 1 and isinstance(num, str):
        return Rational(num)
    return Rational(num, den)
