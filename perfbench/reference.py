"""Closed-form local b-functions, computed without the bfunc package.

The benchmark checks every result against these, so a change that makes the
pipeline faster by making it wrong shows up as a failure.  Only the standard
library is used: nothing here shares code with the implementation under test.

For a quasi-homogeneous isolated singularity f with weights w (f has weighted
degree 1), the local b-function is

    b(s) = (s + 1) * prod over the distinct values v of (s + v),

where v = |w| + <w, alpha> and alpha runs over a monomial basis of the Milnor
algebra.  The weighted degrees <w, alpha> of such a basis are the exponents of
the Poincare polynomial prod_i (1 - t^(1 - w_i)) / (1 - t^(w_i)), which depends
on the weights alone.  For a Brieskorn-Pham polynomial x_1^a_1 + ... + x_n^a_n
the values are sum_k i_k / a_k with 1 <= i_k < a_k.
"""

import itertools
import math
from fractions import Fraction


def poly_from_roots(roots):
    """Ascending coefficients of prod (s - r), monic."""
    coeffs = [Fraction(1)]
    for r in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] -= c * r
            nxt[k + 1] += c
        coeffs = nxt
    return tuple(coeffs)


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_poly_divexact(num, den):
    """Exact quotient of integer polynomials (ascending); den[0] must be 1."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q)):
        c = num[i]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num):
        raise ValueError("Poincare series is not a polynomial for these weights")
    return q


def spectrum_values(weights):
    """Distinct values |w| + <w, alpha> over a Milnor-algebra monomial basis."""
    weights = [Fraction(w) for w in weights]
    if any(not 0 < w < 1 for w in weights):
        raise ValueError("weights must lie strictly between 0 and 1")
    denom = math.lcm(*(w.denominator for w in weights))
    ints = [int(w * denom) for w in weights]
    num, den = [1], [1]
    for a in ints:
        num = _int_poly_mul(num, [1] + [0] * (denom - a - 1) + [-1])
        den = _int_poly_mul(den, [1] + [0] * (a - 1) + [-1])
    poincare = _int_poly_divexact(num, den)
    if any(c < 0 for c in poincare):
        raise ValueError("negative Poincare coefficient: not an isolated singularity")
    base = sum(ints)
    return sorted({Fraction(base + e, denom) for e, c in enumerate(poincare) if c})


def brieskorn_pham_values(exponents):
    """Distinct values sum_k i_k / a_k, 1 <= i_k < a_k."""
    ranges = [range(1, a) for a in exponents]
    return sorted({sum(Fraction(i, a) for i, a in zip(combo, exponents))
                   for combo in itertools.product(*ranges)})


def quasi_homogeneous_b(weights):
    """b(s) = (s + 1) * prod (s + v) for an isolated quasi-homogeneous singularity."""
    return poly_from_roots([Fraction(-1)] + [-v for v in spectrum_values(weights)])


def brieskorn_pham_b(exponents):
    return poly_from_roots([Fraction(-1)]
                           + [-v for v in brieskorn_pham_values(exponents)])
