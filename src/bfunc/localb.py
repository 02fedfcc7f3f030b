"""Local b-function of a polynomial at the origin.

The pipeline: compute annihilator generators of the symbolic power f^s by
elimination, adjoin f, take a Groebner basis under the operator division
order, then search for the minimal monic polynomial b(s) in the ideal.  The
search computes approximate normal forms of the powers of s, each chained
from the one before (NF(s^(i+1)) is the normal form of s * NF(s^i), see
s_power_nfs) and exact only below the truncation degree, and looks for an
exact rational dependency among their truncations (one echelon per
truncation degree, see find_generator).  Each division is an exact
identity, so the chain itself decides most candidates: it accepts one
with a polynomial certificate of unit 1, or proves it outside the ideal.
Mora division decides only the rest.  A rejected candidate raises the
truncation degree.  A division that cut nothing off
(OpDivisionResult.exact) runs the same steps at every larger degree, so
the chain is kept up to its first inexact division and chained again only
from there.

When f is weighted homogeneous with an isolated singularity at the origin,
its annihilator has a closed form (the Euler and Koszul operators, see
_yano_generators) and local_b_function skips the elimination; ann_fs
itself always eliminates.
"""

import itertools
import math
from dataclasses import dataclass

from .errors import BfuncError, InputError, ResourceLimitError
from .groebner import (GroebnerBasis, MoraResult, buchberger_global,
                       check_strategy, groebner_basis, mora_div)
from .linalg import add_column, nullspace
from .opdiv import op_approx_div
from .orders import MatrixOrder, elimination_order, operator_order
from .rationals import Rational
from .sympoly import _Division, accumulate
from .weyl import DiffOp, apply_to_fs, base_arity, from_symbol, op_mul


def _poly_in_s(coeffs, arity):
    mid = (arity - 1) // 2
    return DiffOp(((0,) * mid + (i,) + (0,) * mid, c)
                  for i, c in enumerate(coeffs))


# -- annihilator of the symbolic power ----------------------------------------

def ann_fs(f, tie="grevlex"):
    """Generators of the annihilator ideal of the symbolic power of f.

    Works in an enlarged operator session with a graph variable t and two
    inverse scaling variables u, v: the ideal generated by t - u*f, the
    chain-rule operators d_i + u*(df/dx_i)*d_t, and u*v - 1 is intersected
    with the u,v-free subalgebra by an elimination Groebner basis, under a
    global order of the plain (not homogenized) Weyl algebra.  The session
    has the n + 3 base slots t, x_1..x_n, u, v, then s, then d_t,
    d_1..d_n, d_u, d_v; the tie order breaks ties in that slot order.
    Every surviving element is homogeneous for the (t, d_t)-weight; after
    shifting each to weight zero, t^a d_t^a rewrites to
    (-1)^a (s+1)...(s+a), giving operators in x, d and s that annihilate
    the symbolic power.
    """
    n = base_arity(f)
    ne = n + 3  # t, x_1..x_n, u, v
    arity = 2 * ne + 1
    u_slot, v_slot, dt_slot = n + 1, n + 2, ne + 1
    t, u, v, dt = (DiffOp.variable(k, arity)
                   for k in (0, u_slot, v_slot, dt_slot))

    def lift(p):  # x-only p: t = 0 before x; u, v, s and the d's after
        return DiffOp._raw({(0,) + e[:n] + (0,) * (ne + 3): c
                            for e, c in p.terms.items()})

    gens = ([t - u * lift(f)]
            + [DiffOp.variable(dt_slot + 1 + i, arity)
               + u * lift(f.partial(i)) * dt for i in range(n)]
            + [u * v - DiffOp.constant(1, arity)])
    eliminated = (u_slot, v_slot, ne + 1 + u_slot, ne + 1 + v_slot)
    order = operator_order(n, tie)
    result = []
    for g in buchberger_global(
            gens, elimination_order(ne, (u_slot, v_slot), tie)):
        if any(e[k] for e in g.terms for k in eliminated):
            continue
        weights = {e[0] - e[dt_slot] for e in g.terms}
        if len(weights) != 1:
            raise BfuncError("elimination produced a weight-inhomogeneous element")
        w = weights.pop()
        if w:  # times d_t^w, or t^(-w) when w < 0
            g = DiffOp.variable(dt_slot if w > 0 else 0, arity, abs(w)) * g
        g = _shift_to_s(g, n)
        if g.terms:
            g = g.monic(order)
            if all(g.terms != r.terms for r in result):
                result.append(g)
    _check_annihilates(result, f)
    return result


def _check_annihilates(gens, f):
    for g in gens:
        if not apply_to_fs(g, f).is_zero():
            raise BfuncError("annihilator candidate fails to annihilate")


def _yano_generators(f):
    """Annihilator of f^s in closed form, or None when f does not qualify.

    For f weighted homogeneous with positive weights w (f = sum w_i x_i f_i)
    and an isolated singularity at the origin, the annihilator is generated
    by the Euler operator sum w_i x_i d_i - s and the Koszul operators
    f_i d_j - f_j d_i, i < j (Yano 1978; Torrelli 2004).  w must be the one
    solution of w . alpha = 1 over the support of f, and positive.  The
    Jacobian ideal is then weighted homogeneous, so its zero set is a cone
    and the singularity is isolated exactly when every x_i has a power in
    it: some leading exponent of its Groebner basis (the partials commute,
    so the global Buchberger loop computes it) is a pure power of x_i, or
    is 1 when f is smooth.
    """
    n, arity = base_arity(f), f.arity
    kernel = nullspace([e[:n] + (-1,) for e in f.terms], n + 1)
    if len(kernel) != 1 or not kernel[0][n]:
        return None
    w = [c / kernel[0][n] for c in kernel[0][:n]]
    if not all(c > 0 for c in w):
        return None
    partials = [from_symbol(f.partial(i)) for i in range(n)]
    order = MatrixOrder(rows=(), tie="grevlex", arity=arity)
    leads = [g.le(order) for g in buchberger_global(partials, order)]
    # each x_i needs a lead free of the other variables
    if not all(any(not any(e[:i] + e[i + 1:]) for e in leads)
               for i in range(n)):
        return None
    d = [DiffOp.variable(n + 1 + i, arity) for i in range(n)]
    euler = sum((DiffOp.variable(i, arity, coeff=c) * d[i]
                 for i, c in enumerate(w)), -DiffOp.variable(n, arity))
    gens = [euler] + [partials[i] * d[j] - partials[j] * d[i]
                      for i, j in itertools.combinations(range(n), 2)]
    _check_annihilates(gens, f)
    return gens


def _shift_to_s(g, n):
    """Rewrite a weight-zero element of ann_fs's session in x, d and s:
    t^a d_t^a -> (-1)^a (s+1)..(s+a).  t is slot 0 and d_t slot n + 4."""
    pairs = []
    for exp, coeff in g.terms.items():
        a = exp[0]
        if exp[n + 4] != a:
            raise BfuncError("weight-zero element with unbalanced t, d_t powers")
        sprod = [1]  # coefficients of (-s-1)(-s-2)...(-s-a)
        for j in range(1, a + 1):
            sprod = [-j * c - d for c, d in zip(sprod + [0], [0] + sprod)]
        x_part, d_part = exp[1:1 + n], exp[n + 5:2 * n + 5]
        for k, c in enumerate(sprod):
            pairs.append((x_part + (k,) + d_part, coeff * c))
    return DiffOp(pairs)


# -- normal forms and the dependency search -----------------------------------

def approx_nf(p, gb, bound):
    """Approximate normal form of p at truncation degree bound: the division
    of p by the basis (an OpDivisionResult whose remainder is the normal
    form), through the division set-up the basis keeps
    (GroebnerBasis._divisors)."""
    return op_approx_div(p, gb._divisors, bound, gb.order)


def s_power_nfs(gb, bound, prev=None):
    """Divisions (approx_nf) of 1, s, s^2, ... at truncation degree bound,
    or of the powers of s past the one whose normal form prev is.

    Chained: NF(1) = approx_nf(1) and NF(s^(i+1)) = approx_nf(s * NF(s^i)).
    Division leaves an exact identity s^i = sum(q_j g_j) + NF(s^i), and s is
    central, so s * NF(s^i) lies in the coset of s^(i+1); below bound the
    remainder of any member of a coset is the same.  Only the part below
    bound is exact, unless the division is exact (OpDivisionResult.exact):
    then NF(s^i) is the remainder at every larger bound too, and so is the
    start of the chain past it.  Multiplying by s shifts the s slot of each
    exponent.
    """
    arity = gb.order.arity
    mid = (arity - 1) // 2
    p = DiffOp.constant(1, arity)
    while True:
        if prev is not None:
            p = DiffOp._raw({e[:mid] + (e[mid] + 1,) + e[mid + 1:]: c
                             for e, c in prev.terms.items()})
        div = approx_nf(p, gb, bound)
        prev = div.remainder
        yield div


def dependency_kernel(nfs, bound):
    """Exact kernel of the truncated normal forms, as coefficient vectors.

    Vectors (a_0..a_d) with sum a_i * truncate(nfs[i], bound) = 0, from
    linalg.nullspace on the dense table; find_generator checks its echelon's
    dependency against this.
    """
    truncated = [nf.truncate(bound) for nf in nfs]
    support = sorted(set().union(*(t.exps() for t in truncated)))
    rows = [[t.coeff(exp) for t in truncated] for exp in support]
    return nullspace(rows, len(truncated))


def _check_bounds(n0, nmax):
    if n0 < 1:
        raise InputError(
            f"starting truncation degree n0={n0} must be at least 1")
    if n0 > nmax:
        raise InputError(
            f"starting truncation degree n0={n0} exceeds nmax={nmax}")


def find_generator(gb, n0, nmax):
    """Minimal monic polynomial in s inside the ideal of the basis.

    Returns (coefficients ascending, final truncation degree, certificate).
    Searches candidate degrees upward; a degree with trivial kernel stays
    ruled out when the truncation degree grows, so after a rejected
    candidate only the truncation degree is raised.  The chain of
    normal forms (s_power_nfs) is kept across degrees up to its first
    inexact division (OpDivisionResult.exact): the divisions before it are
    those of every larger degree, term for term, so only the rest is
    chained again, at the new degree, from the last one kept.  At each
    truncation degree one echelon is kept: each truncated
    normal form, a sparse column, is reduced against the pivots of the ones
    before it (linalg.add_column), and normal forms are pulled until one
    past the last ruled-out degree vanishes.  dependency_kernel then
    eliminates that table once more, and its single monic kernel vector, the
    candidate, must equal the echelon's dependency.  That cross-check
    repeats the echelon's work; it stays until the benchmark-only change on
    ROADMAP.md (item 6) replaces the benchmark's linalg.nullspace.cells
    counter, which perfbench/test_perfbench.py requires to be positive on
    the b(s) search workload, with a count of echelon reductions.

    The chain's own divisions decide most candidates (_chain_verdict).  An
    accepted one is certified by the chain's summed quotients
    (_chain_certificate): a polynomial relation with unit 1.  Mora division
    decides only the candidates they cannot, and certifies the accepted
    ones among them with its own unit.  All normal forms (approx_nf) and
    every certification divide through the one division set-up the basis
    keeps (GroebnerBasis._divisors).  Truncation degrees run from n0 up to
    nmax; n0 < 1 or n0 > nmax is an InputError.
    """
    _check_bounds(n0, nmax)
    # the division of each power of s
    d, chain = 0, []
    for bound in range(n0, nmax + 1):
        chain = list(itertools.takewhile(lambda div: div.exact, chain))
        pulled = s_power_nfs(gb, bound, chain[-1].remainder if chain else None)
        pivots = []
        for i in itertools.count():
            if i == len(chain):
                chain.append(next(pulled))
            dependency = add_column(
                pivots, chain[i].remainder.truncate(bound).terms, i)
            if i >= d and len(pivots) <= i:
                break
        d = i
        kernel = dependency_kernel([div.remainder for div in chain], bound)
        # s^0..s^(d-1) are independent, so both eliminations find one
        # dependency, monic in s^d
        if kernel != [dependency]:
            raise BfuncError("dependency kernel is not the echelon's single "
                             "monic vector")
        candidate = tuple(dependency)
        verdict = _chain_verdict(gb, candidate, chain, bound)
        if verdict:
            return candidate, bound, _chain_certificate(gb, candidate, chain)
        if verdict is None:
            cert = mora_div(_poly_in_s(candidate, gb.order.arity),
                            gb._divisors, gb.order)
            if cert.remainder.is_zero():
                return candidate, bound, cert
    raise ResourceLimitError(
        f"truncation degree exceeded {nmax} before certification",
        candidate=candidate, n_used=nmax)


def _ints(coeffs):
    """(d, the ints d * c) for the rationals coeffs, d the lcm of their
    denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _chain_verdict(gb, candidate, chain, bound):
    """Whether the chain's divisions prove the candidate b in the ideal
    (True) or outside it (False); None when they cannot tell.

    Link i of the chain is an exact identity s^i = sum_j Q_ij g_j + r_i
    (see _chain_certificate), so b - R lies in the ideal for the residual
    R = sum a_i r_i.  Below bound R vanishes, as the candidate is the
    dependency of the truncated r_i, so only the terms at degree >= bound
    are summed, on the divisions' int dicts over one lcm of their scales.
    R = 0 proves b in the ideal.  A nonzero R whose leading term no lead
    of the basis divides proves b outside it, as a nonzero remainder of
    Mora division does: the basis is a standard basis, so b in the ideal
    would put R there and its lead in the ideal of leads.  The test is the
    guard-bit divisibility test mora_div makes.
    """
    packing = gb.order.packing
    degree = packing.degree
    den, ints = _ints(candidate)
    scale = math.lcm(*(div._scale for div in chain))
    residual = {}
    for a, div in zip(ints, chain):
        if a:
            m = a * (scale // div._scale)
            accumulate(residual, ((k, m * c) for k, c in div._rbar.items()
                                  if degree(k) >= bound))
    if not residual:
        return True
    mark, guard = packing.sign * max(residual), packing.guard
    if any(not (mark - lead_mark) & guard
           for _, lead_mark, _ in gb._divisors.leads):
        return None
    return False


def _chain_certificate(gb, candidate, chain):
    """The relation b = sum_j (sum_i a_i Q_ij) g_j of a candidate whose
    residual vanishes (_chain_verdict), as a MoraResult with unit 1 and
    remainder 0.

    Link 0 divides 1 and link i divides s * r_(i-1), with quotients q_ij,
    so s^i = sum_j Q_ij g_j + r_i for the chained Q_ij = s Q_(i-1)j + q_ij
    (s is central).  The sums run on the int dicts of the copies'
    quotients over one lcm of their scales, keyed by K, where the shift by
    s adds K(s); they leave through a sympoly._Division by the basis's
    set-up, as every local division does.
    """
    order = gb.order
    shift = order.packing.slots[(order.arity - 1) // 2]
    den, ints = _ints(candidate)
    scale = math.lcm(*(div._scale for div in chain))
    chained = [{} for _ in gb.elements]
    sums = [{} for _ in gb.elements]
    for a, div in zip(ints, chain):
        m = scale // div._scale
        chained = [accumulate({k + shift: c for k, c in q.items()},
                              ((k, m * c) for k, c in qbar.items()))
                   for q, qbar in zip(chained, div._qbars)]
        if a:
            for total, q in zip(sums, chained):
                accumulate(total, ((k, a * c) for k, c in q.items()))
    division = _Division(DiffOp, gb._divisors, sums, {}, den * scale)
    return MoraResult(DiffOp.constant(1, order.arity), division.quotients,
                      division.remainder)


# -- rational roots ------------------------------------------------------------

def _eval_poly(coeffs, x, m):
    """coeffs (ascending) at x modulo m, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _deflate(p, root):
    """p / (v*s - u) for a root u/v of the primitive int polynomial p: by
    Gauss's lemma the quotient is integral, primitive and positive-led."""
    u, v = root.numerator, root.denominator
    out = [0] * (len(p) - 1)
    acc = 0
    for i in range(len(p) - 1, 0, -1):
        acc = (p[i] + u * acc) // v
        out[i - 1] = acc
    return out


def _primitive_ints(p):
    g = math.gcd(*p)
    return [c // g for c in p] if g else p


def _vanishes(p, root):
    """Whether the int polynomial p (ascending) of degree d vanishes at the
    rational root u/v: v^d p(u/v) = sum p_i u^i v^(d-i) by Horner's rule on
    ints."""
    u, v = root.numerator, root.denominator
    acc, power = 0, 1
    for c in reversed(p):
        acc = acc * u + c * power
        power *= v
    return not acc


def _pseudo_divmod(a, b):
    """Integer q, r with b[-1]^e * a = q*b + r, e = len(a) - len(b) + 1.

    Ascending integer lists with len(a) >= len(b); r has fewer terms than
    b and no trailing zeros.  The scaled dividend divides exactly: every
    quotient coefficient of b[-1]^e * a by b over Q is an integer.
    """
    e, n = len(a) - len(b) + 1, len(b) - 1
    r, q = [c * b[-1] ** e for c in a], [0] * e
    for k in range(e - 1, -1, -1):
        q[k] = c = r[k + n] // b[-1]
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
    r = r[:n]
    while r and not r[-1]:
        r.pop()
    return q, r


def _squarefree_ints(p):
    """Primitive integer polynomial, up to sign, with p's distinct roots.

    p is a primitive integer polynomial of degree at least 1.  Over the
    integers this is p / gcd(p, p'): the gcd is the last nonzero term of
    the primitive pseudo-remainder sequence of p and p', and the division
    is exact.
    """
    g, h = p, _primitive_ints([i * c for i, c in enumerate(p)][1:])
    while h:
        g, h = h, _primitive_ints(_pseudo_divmod(g, h)[1])
    return _primitive_ints(_pseudo_divmod(p, g)[0])


def _candidates(p):
    """Rationals that include every rational root of p (Loos 1983).

    p is a square-free integer polynomial of degree d >= 1 with leading
    coefficient a.  A rational root of p is y/a for an integer root y of
    the monic P(y) = a^(d-1) p(y/a), and |y| <= B = |a| + max|p_i|
    (Cauchy).  The prime q is the first at which every root of P mod q is
    simple.  Newton's step, carrying each root and the inverse of P' there,
    lifts it to the one root of P mod m = q^(2^k) above it, until m > 2B.
    Each lift's symmetric residue, over a, is a candidate, so every
    integer y is found.  Lifts of the other roots mod q give candidates
    that are not roots of p; the exact test in rational_roots drops them.
    """
    a, d = p[-1], len(p) - 1
    monic = [c * a ** (d - 1 - i) for i, c in enumerate(p[:-1])] + [1]
    slope = [i * c for i, c in enumerate(monic)][1:]
    bound = 2 * (abs(a) + max(map(abs, p)))
    q = 2
    while True:
        small = [c % q for c in monic]
        roots = [y for y in range(q) if not _eval_poly(small, y, q)]
        if all(_eval_poly(slope, y, q) for y in roots):
            break
        q = next(k for k in itertools.count(q + 1)
                 if all(k % j for j in range(2, math.isqrt(k) + 1)))
    lifts = [(y, pow(_eval_poly(slope, y, q), -1, q)) for y in roots]
    m = q
    while m <= bound:
        m *= m
        small, dsmall = [c % m for c in monic], [c % m for c in slope]
        for i, (y, inv) in enumerate(lifts):
            y = (y - _eval_poly(small, y, m) * inv) % m
            lifts[i] = y, inv * (2 - _eval_poly(dsmall, y, m) * inv) % m
    return [Rational(y - m if 2 * y > m else y, a) for y, _ in lifts]


def rational_roots(coeffs):
    """All rational roots with multiplicity, plus the unfactored cofactor.

    coeffs are ascending and the polynomial must be monic.  No integer is
    factored: zero roots are stripped, the square-free part is taken on
    integers (_squarefree_ints), and one p-adic lifting pass yields at most
    one candidate per root of it modulo a prime, among them every rational
    root (_candidates).  Each candidate is tested on the primitive integer
    multiple of the polynomial (_vanishes); one that is a root is deflated
    out of it exactly, on ints (_deflate), and retested for multiplicity.
    What stays, made monic, is the irrational cofactor.
    """
    work = [Rational(c) for c in coeffs]
    if not work or work[-1] != 1:
        raise InputError("expected a monic polynomial")
    roots = []
    while len(work) > 1 and not work[0]:
        roots.append(Rational(0))
        work = work[1:]
    ints = _primitive_ints(_ints(work)[1])
    if len(ints) > 1:
        for cand in sorted(_candidates(_squarefree_ints(ints))):
            while len(ints) > 1 and _vanishes(ints, cand):
                roots.append(cand)
                ints = _deflate(ints, cand)
    grouped = []
    for r in sorted(set(roots)):
        grouped.append((r, roots.count(r)))
    return grouped, tuple(Rational(c, ints[-1]) for c in ints)


# -- the pipeline ---------------------------------------------------------------

@dataclass(frozen=True)
class BFunctionResult:
    """Local b-function at the origin with its certification data.

    b holds ascending monic coefficients; roots pairs each rational root with
    its multiplicity; n_final is the truncation degree at certification; the
    certificate is a relation unit * b(s) = sum(q_i * g_i) over the basis,
    with remainder zero: the chain's polynomial relation with unit 1 when
    the search's own divisions accept b(s), Mora division's otherwise (see
    find_generator).
    """

    b: tuple
    roots: list
    n_final: int
    certificate: MoraResult
    gb: GroebnerBasis


def local_b_function(f, gb_strategy="mora", n0=None, nmax=64, tie="grevlex",
                     ann_gens=None):
    """Local b-function of the polynomial f at the origin.

    Parameters
    ----------
    f : SymbolPoly in the base variables only, nonzero
    gb_strategy : "mora" or "lazard"
    n0 : starting truncation degree; default 2 * (2n + 1)
    nmax : largest truncation degree tried before giving up
    tie : tie-breaking term order name
    ann_gens : optional sequence of DiffOp generating the annihilator of f^s,
        bypassing both the closed form and the elimination (each must
        annihilate f^s)

    Without ann_gens, a weighted homogeneous f with an isolated singularity
    at the origin takes its annihilator in closed form (_yano_generators);
    every other f takes it from the elimination in ann_fs.

    For a non-unit f, a b(s) that breaks a theorem every local b-function
    obeys (see _check_roots) raises BfuncError.
    """
    n = base_arity(f)
    arity = f.arity
    if n0 is None:
        n0 = 2 * arity
    check_strategy(gb_strategy)
    _check_bounds(n0, nmax)
    if ann_gens is not None:
        ann_gens = list(ann_gens)
        for g in ann_gens:
            if not apply_to_fs(g, f).is_zero():
                raise InputError("supplied generator does not annihilate f^s")
    order = operator_order(n, tie)
    if f.coeff((0,) * arity):
        # f is a unit in the series ring: the ideal is everything.
        one = DiffOp.constant(1, arity)
        cert = MoraResult(one, [one], DiffOp.zero())
        return BFunctionResult((Rational(1),), [], 0, cert,
                               GroebnerBasis([one], order))

    if ann_gens is None:
        ann_gens = _yano_generators(f) or ann_fs(f, tie)
    gb = groebner_basis(ann_gens + [from_symbol(f)], order, gb_strategy)
    coeffs, n_final, cert = find_generator(gb, n0, nmax)
    roots, cofactor = rational_roots(coeffs)
    _check_roots(roots, cofactor, n)
    return BFunctionResult(tuple(coeffs), roots, n_final, cert, gb)


def _check_roots(roots, cofactor, n):
    """Theorems every local b-function of a non-unit f obeys.

    Its roots are rational (Kashiwara), -1 is one of them, and every root
    of b(s)/(s+1) lies in (-n, 0) (M. Saito 1994).
    """
    if cofactor != (1,):
        raise BfuncError("b(s) has roots that are not rational")
    rest = dict(roots)
    if not rest.get(-1):
        raise BfuncError("-1 is not a root of b(s)")
    rest[-1] -= 1
    if any(m and not -n < r < 0 for r, m in rest.items()):
        raise BfuncError(f"a root of b(s)/(s+1) lies outside (-{n}, 0)")


def verify_certificate(result):
    """Recompute the certificate of a BFunctionResult exactly.

    Checks that unit * b(s) - sum(q_i * g_i) - r is zero, with one quotient
    per basis element, that r is zero, and that the unit is a unit of the
    series ring: free of s and d, with a nonzero constant term.  Raises
    BfuncError naming the failed check.
    """
    cert, gb = result.certificate, result.gb
    arity = gb.order.arity
    n = (arity - 1) // 2
    if any(any(e[n:]) for e in cert.unit.terms):
        raise BfuncError("certificate unit involves s or d")
    if not cert.unit.coeff((0,) * arity):
        raise BfuncError("certificate unit has a zero constant term")
    if len(cert.quotients) != len(gb.elements):
        raise BfuncError("certificate quotients do not match the basis")
    if not cert.remainder.is_zero():
        raise BfuncError("certificate remainder is nonzero")
    residual = op_mul(cert.unit, _poly_in_s(result.b, arity)) - cert.remainder
    for q, g in zip(cert.quotients, gb.elements):
        residual = residual - op_mul(q, g)
    if not residual.is_zero():
        raise BfuncError("certificate relation unit*b = sum q_i*g_i + r fails")
