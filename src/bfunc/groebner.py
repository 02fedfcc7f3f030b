"""Groebner bases for operator ideals under local and global orders.

Two routes produce a basis under the operator division order, which is not a
well-order:

* buchberger_mora runs Buchberger's loop but reduces S-pairs with Mora's
  division: reducers are chosen by minimal ecart, and the current partial
  remainder joins the divisor pool whenever every applicable reducer has a
  larger ecart.  The resulting relation carries a unit factor on the left of
  the dividend (a series-invertible coefficient: no s or d symbols, nonzero
  constant term).

* groebner_lazard homogenizes the generators with a central degree variable,
  runs ordinary Buchberger under the degree-first well-order (commutators
  pick up the square of the homogenizing variable), and dehomogenizes.

Both share one Buchberger loop.  It pops S-pairs in ascending (key, i, j)
order from a heap queue, where key is the selection key of the pair's
leading-exponent join, computed once when the pair is added (Gebauer and
Moeller's selection bookkeeping, without their criteria).  Buchberger's
coprimality shortcut is unsound for operator products and is never used; only
the chain criterion prunes pairs, and a bitmask of each lead's nonzero slots
spares it most divisibility tests.

The loop takes its normaliser from its caller.  Mora's keeps every element
monic, which its certificates rely on.  The global loop keeps every element
primitive instead: int coefficients with gcd 1 and a positive lead.  Its
S-pairs cross-multiply the two leads.

Both divisions pseudo-divide (Knuth, TAOCP vol. 2, 4.6.1): they scale the
running dividend by the denominator of each quotient term rather than
dividing, so their arithmetic stays on ints, and divide by the product of
those factors once, at exit.  reduce_global's normal form and mora_div's
unit, quotients and remainder are therefore the exact ones over Q.  In the
global loop the elements stay primitive until the final interreduction makes
them monic; Mora's loop makes each remainder monic, so its basis is the same
as with division over Q.
"""

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .errors import InputError
from .opdiv import _OpDivisors
from .orders import MatrixOrder, _descending_key, homogenized_order
from .rationals import Rational
from .sympoly import (SymbolPoly, _divided, _integral, _primitive,
                      _rescale, accumulate)
from .weyl import DiffOp, HomogOp, op_mul


@dataclass(frozen=True)
class MoraResult:
    """Relation unit * dividend = sum(quotients_i * divisor_i) + remainder."""

    unit: object
    quotients: list
    remainder: object


@dataclass(frozen=True)
class GroebnerBasis:
    elements: list
    order: MatrixOrder

    @cached_property
    def _divisors(self):
        """The elements prepared for op_approx_div under the order (the
        primitive copies, their schedule data and initial parts), built on
        the first division by the basis and kept as long as the basis."""
        return _OpDivisors(self.elements, self.order)


def ecart(op, order):
    """Spread between an operator's top total degree and its leading one."""
    return op.max_total_degree() - sum(op.le(order))


def _mono(cls, top, low, coeff):
    """coeff * x^(top - low), for exponents low <= top."""
    return cls._raw({tuple(a - b for a, b in zip(top, low)): coeff})


def _ratio(c, d):
    """Numerator and denominator of c / d in lowest terms, as ints with the
    denominator positive."""
    q = Rational(c, d)
    return q.numerator, q.denominator


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _top(heap, h):
    """Exponent of the top entry of a lazy heap over h, dropping entries
    whose exponent has left h on the way."""
    while heap[0][1] not in h:
        heapq.heappop(heap)
    return heap[0][1]


def _subtract(h, product):
    """Add product (minus the quotient term times a divisor) into the dict h
    in place; returns the exponents it brings into h."""
    new = [e for e in product.terms if e not in h]
    accumulate(h, product.terms.items())
    return new


def mora_div(p, divisors, order):
    """Mora division of p by the divisors under a local order.

    Returns a MoraResult whose remainder is either zero or has a leading
    monomial no divisor's leading monomial divides.  The remainder tail is
    not reduced.  Buchberger's loop reads only the remainder; the unit and
    quotients certify b(s) in find_generator.

    The loop pseudo-divides on ints, as reduce_global does.  It divides by
    primitive copies k_i g_i of the divisors and starts from lam p, lam the
    lcm of p's denominators; h, the unit and the quotients hold lam times
    those of division over Q.  Where the quotient term's coefficient a/b is
    not an int, all of them and lam are multiplied by b first.  The leader,
    the ecart and the pool order read exponents only, so the steps are those
    over Q, and one division by lam at exit gives its exact relation.
    """
    divisors = list(divisors)
    cls = p.__class__
    # pool entries: (leading, ecart, op, origin)
    # origin: divisor index, or the (unit, quotients) snapshot for a partial
    # remainder of p itself.
    pool = []
    for i, g in enumerate(divisors):
        if g.is_zero():
            raise InputError("zero divisor")
        pool.append((g.leading(order), ecart(g, order), g, i))
    # k_i, set when divisor i is first chosen and its pool entry becomes
    # the primitive copy
    factors = [None] * len(divisors)

    # Lazy max-heaps over the exponents of h, by order and by total degree
    # (for the ecart): an exponent is pushed when a subtraction brings it
    # into h, and an entry whose exponent has left h is dropped when it
    # reaches the top.
    lam, h = _integral(p.terms)
    unit = {(0,) * order.arity: lam}
    quots = [{} for _ in divisors]
    by_order = [(_descending_key(order, e), e) for e in p.terms]
    by_degree = [(-sum(e), e) for e in p.terms]
    heapq.heapify(by_order)
    heapq.heapify(by_degree)
    while h:
        he = _top(by_order, h)
        best = None
        for entry in pool:
            if _divides(entry[0][0], he):
                if best is None or entry[1] < best[1]:
                    best = entry
        if best is None:
            break
        h_ecart = sum(_top(by_degree, h)) - sum(he)
        if best[1] > h_ecart:
            pool.append(((he, h[he]), h_ecart, cls._raw(dict(h)),
                         (cls._raw(dict(unit)),
                          [cls._raw(dict(q)) for q in quots])))
        prov = best[3]
        if isinstance(prov, int) and factors[prov] is None:
            prim = _primitive(best[2], order)
            factors[prov] = Rational(prim.leading(order)[1], best[0][1])
            best = pool[prov] = (prim.leading(order), best[1], prim, prov)
        a, b = _ratio(-h[he], best[0][1])
        if b != 1:
            for e in h:
                h[e] *= b
            for d in [unit] + quots:
                _rescale(d, b)
            lam *= b
        # m is minus the quotient term, so every update below is a sum
        m = _mono(cls, he, best[0][0], a)
        for e in _subtract(h, op_mul(m, best[2])):
            heapq.heappush(by_order, (_descending_key(order, e), e))
            heapq.heappush(by_degree, (-sum(e), e))
        if isinstance(prov, int):
            accumulate(quots[prov], (-m).terms.items())
        else:
            u_s, q_s = prov
            accumulate(unit, op_mul(m, u_s).terms.items())
            for q, qs in zip(quots, q_s):
                if qs.terms:
                    accumulate(q, op_mul(m, qs).terms.items())
    return MoraResult(
        _divided(cls, unit, lam),
        [cls._raw(q) if k is None
         else _divided(cls, q, lam * k.denominator, k.numerator)
         for q, k in zip(quots, factors)],
        _divided(cls, h, lam))


def _lcm_exp(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def spair(p, q, order, mul=op_mul):
    """S-pair: cross-multiply to the leading exponents' join and subtract.

    With a/b = c_q/c_p in lowest terms for the leading coefficients, this is
    a m_p p - b m_q q, where the monomials m_p and m_q lift the two leading
    exponents to their join.  For int leads a = c_q/d and b = c_p/d with
    d = gcd(c_p, c_q); for monic p and q both are 1."""
    (ep, cp), (eq, cq) = p.leading(order), q.leading(order)
    join = _lcm_exp(ep, eq)
    a, b = _ratio(cq, cp)
    return (mul(_mono(p.__class__, join, ep, a), p)
            - mul(_mono(q.__class__, join, eq, b), q))


def _buchberger_loop(gens, order, reduce_fn, mul, select_key, normal):
    """Shared Buchberger skeleton; reduce_fn maps an S-pair to a remainder,
    and normal(op, order) is the scalar multiple of a nonzero generator or
    remainder that joins the basis."""
    basis = []
    for g in gens:
        if g.terms:
            basis.append(normal(g, order))
    if not basis:
        raise InputError("all generators are zero")
    leads = [g.le(order) for g in basis]
    # short exponent vectors, as in reduce_global: a lead with a bit outside
    # the join's cannot divide it, so the chain test skips _divides
    bits = [1 << i for i in range(len(leads[0]))]
    masks = [sum(compress(bits, e)) for e in leads]

    # (select_key(lcm), i, j, lcm) per open pair; (key, i, j) is unique, so
    # the heap never compares two lcms and pops in (key, i, j) order.
    queue = []

    def add_pairs(j):
        for i in range(j):
            lcm = _lcm_exp(leads[i], leads[j])
            heapq.heappush(queue, (select_key(lcm), i, j, lcm))

    for j in range(len(basis)):
        add_pairs(j)
    done = set()
    while queue:
        _, i, j, lcm_ij = heapq.heappop(queue)
        # chain criterion: some k already paired off against both i and j
        # inside the join.
        skip = False
        outside = ~sum(compress(bits, lcm_ij))
        for k in range(len(basis)):
            if (k in (i, j) or masks[k] & outside
                    or not _divides(leads[k], lcm_ij)):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True
                break
        done.add((i, j))
        if skip:
            continue
        s = spair(basis[i], basis[j], order, mul)
        if not s.terms:
            continue
        r = reduce_fn(s, basis)
        if not r.terms:
            continue
        r = normal(r, order)
        basis.append(r)
        leads.append(r.le(order))
        masks.append(sum(compress(bits, leads[-1])))
        add_pairs(len(basis) - 1)
    return basis


def _minimalize(basis, order):
    """Drop elements whose leading exponent another element's divides."""
    leads = [g.le(order) for g in basis]
    keep = []
    for i, g in enumerate(basis):
        redundant = False
        for j in range(len(basis)):
            if i == j:
                continue
            if _divides(leads[j], leads[i]):
                if leads[j] != leads[i] or j < i:
                    redundant = True
                    break
        if not redundant:
            keep.append(g)
    keep.sort(key=lambda g: order.key(g.le(order)))
    return keep


def buchberger_mora(gens, order):
    """Groebner basis under a local order via Mora-reduced Buchberger."""
    def reduce_fn(s, basis):
        return mora_div(s, basis, order).remainder

    tie_key = MatrixOrder(rows=(), tie=order.tie, arity=order.arity).key
    basis = _buchberger_loop(gens, order, reduce_fn, op_mul, tie_key,
                             SymbolPoly.monic)
    return GroebnerBasis(_minimalize(basis, order), order)


def reduce_global(p, divisors, order, mul=op_mul):
    """Full normal form under a well-order: every term ends up irreducible.

    Pseudo-division: when the quotient term's coefficient a/b (in lowest
    terms) is not an integer, the dividend h and the remainder so far are
    multiplied by b first, so ints stay ints; the result is divided by the
    product of those factors, so it is the exact normal form over Q."""
    leads = [g.leading(order) for g in divisors]
    # short exponent vectors: one bit per nonzero slot.  A lead with a bit
    # outside the leader's cannot divide it, so _divides is skipped.
    bits = [1 << i for i in range(p.arity or 0)]
    masks = [sum(compress(bits, eg)) for eg, _ in leads]
    cls = p.__class__
    remainder = {}
    scale = 1
    # lazy max-heap over the exponents of h, kept as in mora_div
    h = dict(p.terms)
    heap = [(_descending_key(order, e), e) for e in p.terms]
    heapq.heapify(heap)
    while h:
        he = _top(heap, h)
        outside = ~sum(compress(bits, he))
        for (eg, cg), mask, g in zip(leads, masks, divisors):
            if not mask & outside and _divides(eg, he):
                a, b = _ratio(h[he], cg)
                if b != 1:
                    for e in h:
                        h[e] *= b
                    _rescale(remainder, b)
                    scale *= b
                for e in _subtract(h, mul(_mono(cls, he, eg, -a), g)):
                    heapq.heappush(heap, (_descending_key(order, e), e))
                break
        else:
            remainder[he] = h.pop(he)
    if scale != 1:
        return _divided(cls, remainder, scale)
    return cls._raw(remainder)


def buchberger_global(gens, order, mul=op_mul):
    """Buchberger under a well-order, with a final full interreduction.

    The loop's elements are primitive; the interreduced ones are monic."""
    def reduce_fn(s, basis):
        return reduce_global(s, basis, order, mul)

    basis = _buchberger_loop(gens, order, reduce_fn, mul, order.key,
                             _primitive)
    # no lead divides another, so each element keeps its lead and the list
    # keeps _minimalize's order
    basis = _minimalize(basis, order)
    return [reduce_global(g, basis[:i] + basis[i + 1:], order, mul)
            .monic(order) for i, g in enumerate(basis)]


def _homogenize(op):
    top = op.max_total_degree()
    data = {}
    for exp, coeff in op.terms.items():
        data[exp + (top - sum(exp),)] = coeff
    return HomogOp._raw(data)


def _dehomogenize(op):
    return DiffOp((exp[:-1], coeff) for exp, coeff in op.terms.items())


def groebner_lazard(gens, order):
    """Groebner basis under the local operator order via homogenization."""
    n = (order.arity - 1) // 2
    horder = homogenized_order(n, order.tie)
    hgens = [_homogenize(g) for g in gens if g.terms]
    hbasis = buchberger_global(hgens, horder)
    # a nonzero homogeneous element never dehomogenizes to zero
    basis = [_dehomogenize(h).monic(order) for h in hbasis]
    return GroebnerBasis(_minimalize(basis, order), order)


STRATEGIES = ("mora", "lazard")


def check_strategy(strategy):
    if strategy not in STRATEGIES:
        raise InputError(f"unknown gb strategy {strategy!r}")


def groebner_basis(gens, order, strategy):
    """Basis under the local operator order by the named strategy."""
    check_strategy(strategy)
    # Looked up as module globals on each call, so rebinding them (as
    # perfbench's tracer does) takes effect here too.
    if strategy == "mora":
        return buchberger_mora(gens, order)
    return groebner_lazard(gens, order)
