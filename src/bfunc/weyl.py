"""Differential operators with polynomial coefficients, in normal form.

A DiffOp stores the total symbol of a normally ordered operator: the exponent
tuple (x_1..x_n, s, xi_1..xi_n) stands for x^alpha s^k d^beta with all
coefficients on the left.  The product follows the Leibniz closed formula

    (PQ)(x, xi) = sum_nu (1/nu!) (d_xi^nu P)(x, xi) (d_x^nu Q)(x, xi)

summed over multi-indices nu in the x-block; s is central.  The symbol map is
a positional bijection between d^beta and xi^beta, not a ring map.

op_mul makes one pass over the pairs of terms and collects their Leibniz
terms once, on packed exponents (orders.Packing): an exponent is one int K,
the product of two terms is K_a + K_b, and each lowering step of the sum
adds a constant per index.  Most pairs have no d_i in the left term meeting
an x_i in the right one, and give only their plain product; a pair whose d's
and x's meet in one index walks that index's binomial factors by an int
recurrence, and a pair that meets in several combines the walks of its
indices.  The division loops hand op_mul packed operands, and a division
step has it add the product straight into its running dividend (into), as
the dividend-merging divisions of Monagan and Pearce (CASC 2007) do; tuple
operands are packed under a plain order for the product and unpacked after.

The weight e gives 0 to each x, 1 to s and to each xi.  Initial parts with
respect to e drive the operator division layer, and they multiply
commutatively: the top e-part of a product is the product of the top e-parts.
"""

from dataclasses import dataclass

from .errors import InputError, ZeroLeadingTermError
from .orders import MatrixOrder
from .sympoly import SymbolPoly, _Packed, _ring, accumulate


def op_mul(a, b, into=None):
    """Normally ordered product of two operators given by their symbols.

    One pass over the term pairs pushes every Leibniz term, uncollected, and
    sympoly.accumulate collects them once: into a new polynomial, or, when
    into is given, into that dict in place.  For a term x^alpha s^k d^beta of
    a and a term x^gamma ... of b, nu runs over the multi-indices nu_i <=
    min(beta_i, gamma_i), and nu = 0, the plain product of the two terms,
    goes first.  A pair with no overlap (no i with beta_i, gamma_i both
    nonzero) has no other term.  A pair that overlaps in one index i walks
    nu_i = k = 1..min(beta_i, gamma_i) with the int factor
    f_k = comb(beta_i, k) perm(gamma_i, k) = f_(k-1) (beta_i - k + 1)
    (gamma_i - k + 1) / k, an exact division of ints; a coefficient is only
    ever multiplied, since // would floor a Fraction.  A pair that overlaps
    in more indices takes every combination of those walks, the product of
    their factors times the coefficient.

    For a HomogOp left factor the last slot is a central homogenizing
    variable h and every commutator picks up h^2, so homogeneous operators
    have homogeneous products.

    Packed operands (sympoly._Packed, of one packing) give a packed product
    of a's ring; tuple operands are packed, multiplied and unpacked.  into
    is an output target, not a mode: a dict keyed like a's ring that packed
    operands' product is added to instead (InputError for tuple ones), and
    the call returns the keys that entered it, some of which may have left
    again.  A product refused for its degree leaves into as it was.
    """
    if isinstance(a, _Packed):
        return _product(a, b, into)
    if into is not None:
        raise InputError("op_mul adds into a dict for packed operands only")
    if not a.terms or not b.terms:
        return a.__class__.zero()
    length = len(next(iter(a.terms)))
    if len(next(iter(b.terms))) != length:
        raise InputError(f"arity mismatch: {length} vs {b.arity}")
    ring = _ring(MatrixOrder((), "lex", length).packing, a.__class__)
    return _product(ring.of(a), ring.of(b)).unpacked()


def _steps(ring):
    """The ring's Leibniz constants, made on its first product and kept on
    it: its packing, the packing's sign, low mask, field mask and degree
    limit, the mask of the d_i fields of a term's plain exponent, the (i,
    shift of d_i, shift of x_i) of each base index, a dict of walks and a
    dict of what _product reads off each d part of a left term.  The walk
    of (i, beta, gamma) lists (change of K, f_k) for k = 0..min(beta,
    gamma): lowering x_i and d_i k times each (and raising h by 2k in the
    homogenized algebra), and f_k = comb(beta, k) perm(gamma, k) by the int
    recurrence f_k = f_(k-1) (beta - k + 1) (gamma - k + 1) / k; it is kept
    under (i, beta), in a dict by gamma."""
    packing = ring.packing
    n = (packing.arity - 1) // 2
    shifts, field = packing.shifts, packing.field
    ring.steps = (packing, packing.sign, packing.low, field, packing.limit,
                  sum(field << shifts[n + 1 + i] for i in range(n)),
                  tuple((i, shifts[n + 1 + i], shifts[i]) for i in range(n)),
                  {}, {})
    return ring.steps


def _walk(ring, i, beta, gamma):
    """The walk of (i, beta, gamma) described at _steps."""
    slots = ring.packing.slots
    n = (len(slots) - 1) // 2
    h = 2 if issubclass(ring.algebra, HomogOp) else 0
    step = h * slots[-1] - slots[i] - slots[n + 1 + i]
    walk = [(0, 1)]
    f = 1
    for k in range(1, min(beta, gamma) + 1):
        f = f * (beta - k + 1) * (gamma - k + 1) // k
        walk.append((k * step, f))
    return walk


def _product(a, b, into=None):
    """op_mul on packed operands of one packing, in a's ring, or added into
    the dict into.

    A field of a term is read from sign * K, whose low bits are the plain
    exponent.  A term of b that meets the d_i of a term of a in some indices
    i takes the walk of each such index; several walks combine with the
    last index running fastest, nu = 0 first, as itertools.product gives
    them, and their int factors multiply before the coefficient does."""
    cls = a.__class__
    packing, sign, low, field, limit, d_fields, spec, walks, by_dpart = \
        cls.steps or _steps(cls)
    if getattr(b, "packing", None) is not packing:
        raise InputError("operands packed under different orders")
    a_terms, b_terms = a.terms, b.terms
    if not a_terms or not b_terms:
        return cls.zero() if into is None else []
    # every term of the product has at most the sum of the top degrees; a
    # monomial, as the division loops multiply by, is read directly
    if len(a_terms) == 1:
        top = (sign * next(iter(a_terms)) & low) % field
    else:
        top = a.max_total_degree()
    top += b.max_total_degree()
    if top > limit:
        raise InputError(f"product of total degree {top} does not fit the "
                         f"packed fields (at most {limit})")
    items = []
    push = items.append
    for ka, ca in a_terms.items():
        dpart = sign * ka & d_fields
        if not dpart:
            if len(a_terms) == 1 and into is None:
                # a d-free monomial: one distinct term per term of b
                return cls._raw({ka + kb: ca * cb
                                 for kb, cb in b_terms.items()})
            items += [(ka + kb, ca * cb) for kb, cb in b_terms.items()]
            continue
        # (the walks of (i, beta_i) by gamma, i, beta_i, shift of x_i) where
        # a's term carries a d_i, and the x_i fields that meet them, kept by
        # d part
        known = by_dpart.get(dpart)
        if known is None:
            dirs = []
            meet = 0
            for i, d_at, x_at in spec:
                beta = dpart >> d_at & field
                if beta:
                    dirs.append((walks.setdefault((i, beta), {}), i, beta,
                                 x_at))
                    meet |= field << x_at
            known = by_dpart[dpart] = meet, dirs
        meet, dirs = known
        for kb, cb in b_terms.items():
            cab = ca * cb
            base = ka + kb
            push((base, cab))
            sb = sign * kb
            if not sb & meet:
                continue
            combos = None
            for by_gamma, i, beta, x_at in dirs:
                gamma = sb >> x_at & field
                if gamma:
                    walk = by_gamma.get(gamma)
                    if walk is None:
                        walk = by_gamma[gamma] = _walk(cls, i, beta, gamma)
                    combos = walk if combos is None else [
                        (d + e, f * g) for d, f in combos for e, g in walk]
            for d, f in combos[1:]:
                push((base + d, cab * f))
    if into is None:
        return cls._raw(accumulate({}, items))
    new = []
    accumulate(into, items, new)
    return new


class DiffOp(SymbolPoly):
    """Normally ordered differential operator, stored as its total symbol."""

    __slots__ = ()

    def __mul__(self, other):
        return op_mul(self, other)


class HomogOp(DiffOp):
    """Operator in the degree-homogenized algebra; op_mul reads the type."""

    __slots__ = ()


def from_symbol(poly):
    """Positional bijection commutative symbol -> operator."""
    return DiffOp._raw(dict(poly.terms))


def e_weight(exp):
    """Weight of an exponent under e = (0..0 | 1 | 1..1)."""
    n = (len(exp) - 1) // 2
    return exp[n] + sum(exp[n + 1:])


def ord_e(op):
    """Largest e-weight of any term; the operator analogue of order."""
    if not op.terms:
        raise ZeroLeadingTermError("e-order of zero is undefined")
    return max(e_weight(e) for e in op.terms)


def e_part(op, k):
    """Symbol terms of e-weight exactly k."""
    return SymbolPoly._raw(
        {e: c for e, c in op.terms.items() if e_weight(e) == k})


# -- action on symbolic powers ------------------------------------------------

@dataclass(frozen=True)
class FsAction:
    """Result of applying an operator to the symbolic power of f.

    Represents (numerator / f**denom_power) times that power.  The numerator
    is a polynomial in x and s and is never reduced against f, so two equal
    actions may differ structurally; use equivalent() for semantic equality.
    """

    numerator: SymbolPoly
    denom_power: int

    def is_zero(self):
        return self.numerator.is_zero()

    def equivalent(self, other, f):
        a = self.numerator * f ** max(other.denom_power - self.denom_power, 0)
        b = other.numerator * f ** max(self.denom_power - other.denom_power, 0)
        return a == b


def base_arity(f):
    """Number n of base variables of a nonzero f in x_1..x_n only."""
    if f.is_zero():
        raise InputError("f must be nonzero")
    n = (f.arity - 1) // 2
    for exp in f.terms:
        if any(exp[n:]):
            raise InputError("f must involve only the base variables")
    return n


def apply_action(op, action, f):
    """Apply an operator to an existing action on the symbolic power of f."""
    return _apply(op, action, f, base_arity(f))


def _apply(op, action, f, n):
    if op.is_zero():
        return FsAction(SymbolPoly.zero(), 0)
    if op.arity != f.arity:
        raise InputError("operator and f arity mismatch")
    arity = f.arity
    grads = [f.partial(i) for i in range(n)]
    s_poly = SymbolPoly.variable(n, arity)

    pieces = []
    for exp, coeff in op.terms.items():
        num, k = action.numerator, action.denom_power
        for i in range(n):
            for _ in range(exp[n + 1 + i]):
                shift = s_poly - SymbolPoly.constant(k, arity)
                num = num.partial(i) * f + shift * num * grads[i]
                k += 1
        head = [0] * arity
        head[:n] = exp[:n]
        head[n] = exp[n]
        num = num * SymbolPoly.monomial(head, coeff)
        pieces.append((num, k))

    k_max = max(k for _, k in pieces)
    total = SymbolPoly.zero()
    for num, k in pieces:
        total = total + num * f ** (k_max - k)
    if total.is_zero():
        return FsAction(SymbolPoly.zero(), 0)
    return FsAction(total, k_max)


def apply_to_fs(op, f):
    """Action of an operator on the symbolic power of f, from a fresh start."""
    n = base_arity(f)
    return _apply(op, FsAction(SymbolPoly.constant(1, f.arity), 0), f, n)
