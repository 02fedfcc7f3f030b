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
the chain criterion prunes pairs.

Inside the loop an exponent is one int, its packed key K under the order
(orders.Packing, sympoly._Packed): K is the order's key, so a leader is
the largest K and the heaps hold ints; a monomial product is one
addition; a lead divides an exponent when one subtraction leaves no guard
bit set.  The loop's basis is one sympoly._Divisors of packed elements,
grown by one element at a time and handed to every division, so each
element is made primitive and keyed once, and its lead read once.  The
elements are made monic and unpacked once, at exit (_monic).  mora_div,
reduce_global and spair take packed operands from the loop and tuple ones
from anywhere else: those are packed on entry and the results unpacked at
exit.

A division step adds its product m*g straight into the running dividend
through op_mul's into, as Mora's unit and quotient updates and spair's two
products do: no product is collected on its own first (Monagan and Pearce,
CASC 2007).

Every element the loop appends, generators included, is primitive: int
coefficients with gcd 1 and a positive lead.  Its S-pairs cross-multiply the
two leads, and each strategy makes its final basis monic once, at exit.

Both divisions pseudo-divide by the rule in sympoly's docstring: mora_div by
the primitive copies of a sympoly._Divisors (inside Buchberger's loop, the
elements themselves), reduce_global by the global loop's elements as they
are, so both results are exact over Q.  Mora's steps read exponents only and
its remainder scales with its dividend, so its basis, made monic at exit, is
the one a loop over Q with monic elements gives.
"""

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InputError
from .opdiv import _OpDivisors
from .orders import MatrixOrder, homogenized_order
from .rationals import Rational
from .sympoly import (_divided, _Divisors, _integral, _packed,
                      _primitive, _rescale, accumulate)
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
        """The elements prepared under the order for every division by the
        basis (an opdiv._OpDivisors, which mora_div takes as it is), built
        on the first division and kept as long as the basis, with the
        packed copies certification divides by."""
        return _OpDivisors(self.elements, self.order)


def ecart(op, order):
    """Spread between an operator's top total degree and its leading one."""
    op = _packed(op, order)
    lead = op.le(order)
    return op.max_total_degree() - order.packing.degree(lead)


def _mono(cls, top, low, coeff):
    """coeff * x^(top - low) in the packed ring cls, for the K of an
    exponent low dividing top."""
    return cls._raw({top - low: coeff})


def _ratio(c, d):
    """Numerator and denominator of c / d in lowest terms, as ints with the
    denominator positive.  Two ints go through math.gcd; any other
    coefficient through Rational."""
    if type(c) is int and type(d) is int:
        g = math.gcd(c, d)
        if d < 0:
            g = -g
        return c // g, d // g
    q = Rational(c, d)
    return q.numerator, q.denominator


def _top(heap, h):
    """K of the top of a lazy heap of -K over the packed dict h, dropping
    entries whose exponent has left h on the way."""
    while -heap[0] not in h:
        heapq.heappop(heap)
    return -heap[0]


def mora_div(p, divisors, order):
    """Mora division of p by the divisors under a local order.

    Returns a MoraResult whose remainder is either zero or has a leading
    monomial no divisor's leading monomial divides.  The remainder tail is
    not reduced.  Buchberger's loop reads only the remainder; the unit and
    quotients certify b(s) in find_generator when the search's own
    divisions cannot decide its candidate.

    The loop pseudo-divides on ints by the packed primitive copies of a
    sympoly._Divisors, taking one prepared under this order, such as a
    GroebnerBasis's _divisors or Buchberger's growing basis, as it is.  It
    starts from lam p, lam the lcm of p's denominators; h, the unit and the
    quotients hold lam times those of division over Q.  Where the quotient
    term's coefficient a/b is not an int, all of them and lam are
    multiplied by b first.  The leader, the ecart and the pool order read
    exponents only, so the steps are those over Q, and one division by lam
    at exit gives its exact relation, unpacked there when p was not packed.
    """
    divisors = _Divisors.prepare(divisors, order)
    packing = order.packing
    sign, guard, degree = packing.sign, packing.guard, packing.degree
    dividend = _packed(p, order)
    cls = dividend.__class__
    # pool entries: (sign * K of the leading exponent, K, its coefficient,
    # ecart, op, origin).  origin: divisor index, or the (unit, quotients)
    # snapshot for a partial remainder of p itself.
    pool = [(mark, key, coeff, ecart(g, order), g, i)
            for i, (g, (key, mark, coeff))
            in enumerate(zip(divisors.copies, divisors.leads))]

    # Lazy max-heaps over the exponents of h, by K and by total degree (for
    # the ecart): an exponent is pushed when a step's product brings it
    # into h, and an entry whose exponent has left h is dropped when it
    # reaches the top.
    lam, h = _integral(dividend.terms)
    unit = {0: lam}
    quots = [{} for _ in divisors.copies]
    by_order = [-k for k in dividend.terms]
    by_degree = [(-degree(k), k) for k in dividend.terms]
    heapq.heapify(by_order)
    heapq.heapify(by_degree)
    while h:
        he = _top(by_order, h)
        mark = sign * he
        best = None
        for entry in pool:
            if not (mark - entry[0]) & guard:
                if best is None or entry[3] < best[3]:
                    best = entry
        if best is None:
            break
        while by_degree[0][1] not in h:
            heapq.heappop(by_degree)
        h_ecart = -by_degree[0][0] - degree(he)
        if best[3] > h_ecart:
            pool.append((mark, he, h[he], h_ecart, cls._raw(dict(h)),
                         (cls._raw(dict(unit)),
                          [cls._raw(dict(q)) for q in quots])))
        _, eg, cg, _, g, prov = best
        a, b = _ratio(-h[he], cg)
        if b != 1:
            for d in [h, unit] + quots:
                _rescale(d, b)
            lam *= b
        # m is minus the quotient term, so every update below adds a
        # product into its dict
        m = _mono(cls, he, eg, a)
        for e in op_mul(m, g, h):
            heapq.heappush(by_order, -e)
            heapq.heappush(by_degree, (-degree(e), e))
        if isinstance(prov, int):
            accumulate(quots[prov], ((he - eg, -a),))
        else:
            u_s, q_s = prov
            op_mul(m, u_s, unit)
            for q, qs in zip(quots, q_s):
                if qs.terms:
                    op_mul(m, qs, q)
    if dividend is not p:
        cls, back = p.__class__, packing.unpack_terms
        unit, h, quots = back(unit), back(h), [back(q) for q in quots]
    return MoraResult(_divided(cls, unit, lam),
                      divisors.quotients(cls, quots, lam),
                      _divided(cls, h, lam))


def spair(p, q, order, mul=op_mul):
    """S-pair: cross-multiply to the leading exponents' join and subtract.

    With a/b = c_q/c_p in lowest terms for the leading coefficients, this is
    a m_p p - b m_q q, where the monomials m_p and m_q lift the two leading
    exponents to their join.  For int leads a = c_q/d and b = c_p/d with
    d = gcd(c_p, c_q); for monic p and q both are 1.  Both products are
    added into one dict, the second with its monomial negated.  Packed
    operands give a packed S-pair; others are packed for it and it is
    unpacked."""
    pp, qq = _packed(p, order), _packed(q, order)
    (ep, cp), (eq, cq) = pp.leading(order), qq.leading(order)
    join = order.packing.join(ep, eq)
    a, b = _ratio(cq, cp)
    data = {}
    mul(_mono(pp.__class__, join, ep, a), pp, data)
    mul(_mono(qq.__class__, join, eq, -b), qq, data)
    s = pp.__class__._raw(data)
    return s if pp is p else s.unpacked()


def _buchberger_loop(gens, order, reduce_fn, mul, select_key):
    """Shared Buchberger skeleton; reduce_fn maps an S-pair and the basis
    to a remainder, and select_key a pair's join, an exponent tuple, to its
    selection key.

    The basis is one sympoly._Divisors that grows by append(): each nonzero
    generator and remainder joins it packed, as its primitive multiple, and
    every reduction divides by it as it stands.  Returns its elements,
    packed."""
    packing = order.packing
    sign, guard = packing.sign, packing.guard
    basis = _Divisors((), order)
    for g in gens:
        if g.terms:
            basis.append(_primitive(_packed(g, order), order))
    elements = basis.copies
    if not elements:
        raise InputError("all generators are zero")
    # the leads as exponent tuples, for the joins; the chain criterion's
    # divisibility test reads their sign * K from basis.leads
    leads = basis.leads
    exps = [packing.unpack(key) for key, _, _ in leads]

    # (select_key(lcm), i, j, sign * K(lcm)) per open pair; (key, i, j) is
    # unique, so the heap never compares two joins and pops in (key, i, j)
    # order.  Under buchberger_global the selection key is K(lcm) itself,
    # so the join is packed once.
    queue = []
    own_key = select_key == packing.pack

    def add_pairs(j):
        for i in range(j):
            lcm = tuple(map(max, exps[i], exps[j]))
            key = select_key(lcm)
            join = key if own_key else packing.pack(lcm)
            heapq.heappush(queue, (key, i, j, sign * join))

    for j in range(len(elements)):
        add_pairs(j)
    done = set()
    while queue:
        _, i, j, join = heapq.heappop(queue)
        # chain criterion: some k already paired off against both i and j
        # inside the join.
        skip = False
        for k, (_, mark, _) in enumerate(leads):
            if k == i or k == j or (join - mark) & guard:
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True
                break
        done.add((i, j))
        if skip:
            continue
        s = spair(elements[i], elements[j], order, mul)
        if not s.terms:
            continue
        r = reduce_fn(s, basis)
        if not r.terms:
            continue
        basis.append(_primitive(r, order))
        exps.append(packing.unpack(leads[-1][0]))
        add_pairs(len(elements) - 1)
    return elements


def _minimalize(basis, order):
    """Drop elements whose leading exponent another element's divides, and
    sort the rest by lead.  The elements are packed under the order."""
    packing = order.packing
    leads = [g.le(order) for g in basis]
    keep = []
    for i, g in enumerate(basis):
        redundant = False
        for j in range(len(basis)):
            if i == j:
                continue
            if packing.divides(leads[j], leads[i]):
                if leads[j] != leads[i] or j < i:
                    redundant = True
                    break
        if not redundant:
            keep.append((leads[i], g))
    keep.sort(key=lambda kept: kept[0])
    return [g for _, g in keep]


def _monic(g, order):
    """The packed g divided by its leading coefficient, unpacked."""
    return _divided(g.__class__, g.terms, g.leading(order)[1]).unpacked()


def buchberger_mora(gens, order):
    """Groebner basis under a local order via Mora-reduced Buchberger.

    The loop's elements are primitive; the minimal basis is made monic."""
    def reduce_fn(s, basis):
        return mora_div(s, basis, order).remainder

    tie_key = MatrixOrder(rows=(), tie=order.tie,
                          arity=order.arity).packing.pack
    basis = _buchberger_loop(gens, order, reduce_fn, op_mul, tie_key)
    return GroebnerBasis([_monic(g, order)
                          for g in _minimalize(basis, order)], order)


def reduce_global(p, divisors, order, mul=op_mul):
    """Full normal form under a well-order: every term ends up irreducible.

    Pseudo-division: when the quotient term's coefficient a/b (in lowest
    terms) is not an integer, the dividend h and the remainder so far are
    multiplied by b first, so ints stay ints; the result is divided by the
    product of those factors, so it is the exact normal form over Q.  It
    runs packed, and a p that was not packed gets its result unpacked.
    The divisors are divided by as given, except that a sympoly._Divisors
    prepared under this order, such as Buchberger's growing basis, gives
    its primitive copies and the leads it keeps."""
    packing = order.packing
    sign, guard = packing.sign, packing.guard
    dividend = _packed(p, order)
    cls = dividend.__class__
    # (K, sign * K, coefficient) of each divisor's lead, and the divisor
    if isinstance(divisors, _Divisors) and divisors.order is order:
        leads, gs = divisors.leads, divisors.copies
    else:
        gs = [_packed(g, order) for g in divisors]
        leads = [(k, sign * k, c)
                 for k, c in (g.leading(order) for g in gs)]
    remainder = {}
    scale = 1
    # lazy max-heap over the exponents of h, kept as in mora_div
    h = dict(dividend.terms)
    heap = [-k for k in dividend.terms]
    heapq.heapify(heap)
    while h:
        he = _top(heap, h)
        mark = sign * he
        for (eg, lead_mark, cg), g in zip(leads, gs):
            if not (mark - lead_mark) & guard:
                a, b = _ratio(h[he], cg)
                if b != 1:
                    for d in (h, remainder):
                        _rescale(d, b)
                    scale *= b
                for e in mul(_mono(cls, he, eg, -a), g, h):
                    heapq.heappush(heap, -e)
                break
        else:
            remainder[he] = h.pop(he)
    if dividend is not p:
        cls, remainder = p.__class__, packing.unpack_terms(remainder)
    if scale != 1:
        return _divided(cls, remainder, scale)
    return cls._raw(remainder)


def buchberger_global(gens, order, mul=op_mul):
    """Buchberger under a well-order, with a final full interreduction.

    The loop's elements are primitive; the interreduced ones are monic."""
    def reduce_fn(s, basis):
        return reduce_global(s, basis, order, mul)

    basis = _buchberger_loop(gens, order, reduce_fn, mul,
                             order.packing.pack)
    # no lead divides another, so each element keeps its lead and the list
    # keeps _minimalize's order
    basis = _minimalize(basis, order)
    return [_monic(reduce_global(g, basis[:i] + basis[i + 1:], order, mul),
                   order) for i, g in enumerate(basis)]


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
    basis = [_packed(_dehomogenize(h), order) for h in hbasis]
    return GroebnerBasis([_monic(g, order)
                          for g in _minimalize(basis, order)], order)


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
