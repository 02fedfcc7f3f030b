"""Text form of polynomials and operators.

Output re-parses to an equal value: explicit '*', '^' powers, rational
coefficients as p/q, derivation symbols as d<name>.  Terms are listed
descending under the session's operator division order so initial parts
print first.
"""

from .orders import operator_order
from .sympoly import SymbolPoly


def _format_term(exp, names):
    n = len(names)
    pieces = []
    for i, name in enumerate(names):
        if exp[i] == 1:
            pieces.append(name)
        elif exp[i]:
            pieces.append(f"{name}^{exp[i]}")
    if exp[n] == 1:
        pieces.append("s")
    elif exp[n]:
        pieces.append(f"s^{exp[n]}")
    for i, name in enumerate(names):
        k = exp[n + 1 + i]
        if k == 1:
            pieces.append(f"d{name}")
        elif k:
            pieces.append(f"d{name}^{k}")
    return pieces


def format_poly(p, names, order=None):
    """Render a SymbolPoly or DiffOp over the given variable names."""
    if not p.terms:
        return "0"
    if order is None:
        order = operator_order(len(names))
    out = []
    for exp in sorted(p.terms, key=order.key, reverse=True):
        coeff = p.terms[exp]
        pieces = _format_term(exp, names)
        neg = coeff < 0
        mag = -coeff if neg else coeff
        if not pieces:
            body = str(mag)
        elif mag == 1:
            body = "*".join(pieces)
        else:
            body = "*".join([str(mag)] + pieces)
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)


def format_univariate(coeffs):
    """Render ascending coefficients as a polynomial in s."""
    return format_poly(SymbolPoly(((i,), c) for i, c in enumerate(coeffs)), [])
