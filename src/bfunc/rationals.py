"""Exact rational coefficient backend.

All coefficients in this package are arbitrary-precision rationals kept in
lowest terms.  gmpy2 is used when present because its mpq type is several
times faster than fractions.Fraction; both expose the same arithmetic and
print identically.
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
