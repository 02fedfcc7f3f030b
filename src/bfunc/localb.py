"""Local b-function of a polynomial at the origin.

The pipeline: compute annihilator generators of the symbolic power f^s by
elimination, adjoin f, take a Groebner basis under the operator division
order, then search for the minimal monic polynomial b(s) in the ideal.  The
search computes approximate normal forms of the powers of s, each chained
from the one before (NF(s^(i+1)) is the normal form of s * NF(s^i), see
s_power_nfs) and exact only below the truncation degree, looks for an
exact rational dependency among their truncations (one echelon per
truncation degree, see find_generator), and certifies each
candidate by Mora division; failed certifications raise the truncation
degree and chain the normal forms afresh.

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
    """Approximate normal form: remainder of dividing p by the basis,
    through the division set-up the basis keeps (GroebnerBasis._divisors)."""
    return op_approx_div(p, gb._divisors, bound, gb.order).remainder


@dataclass(frozen=True)
class NFTable:
    """Normal forms of 1, s, s^2, ... at a common truncation degree.

    They come from s_power_nfs, so each is chained from the one before and
    exact only below bound: compare them after truncate(bound).
    """

    nfs: list
    bound: int


def s_power_nfs(gb, bound):
    """Approximate normal forms of 1, s, s^2, ... at truncation degree bound.

    Chained: NF(1) = approx_nf(1) and NF(s^(i+1)) = approx_nf(s * NF(s^i)).
    Division leaves an exact identity s^i = sum(q_j g_j) + NF(s^i), and s is
    central, so s * NF(s^i) lies in the coset of s^(i+1); below bound the
    remainder of any member of a coset is the same.  Only the part below
    bound is exact.  Multiplying by s shifts the s slot of each exponent.
    """
    arity = gb.order.arity
    mid = (arity - 1) // 2
    nf = approx_nf(DiffOp.constant(1, arity), gb, bound)
    while True:
        yield nf
        shifted = DiffOp._raw({e[:mid] + (e[mid] + 1,) + e[mid + 1:]: c
                               for e, c in nf.terms.items()})
        nf = approx_nf(shifted, gb, bound)


def nf_table(gb, top_power, bound):
    return NFTable(list(itertools.islice(s_power_nfs(gb, bound),
                                         top_power + 1)), bound)


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
    ruled out when the truncation degree grows, so after a failed
    certification only the truncation degree is raised and the normal forms
    are chained afresh at the new degree (s_power_nfs): they are exact only
    below it.  At each truncation degree one echelon is kept: each truncated
    normal form, a sparse column, is reduced against the pivots of the ones
    before it (linalg.add_column), and normal forms are pulled until one
    past the last ruled-out degree vanishes.  dependency_kernel then
    eliminates that table once more, and its single monic kernel vector, the
    candidate, must equal the echelon's dependency.  That cross-check
    repeats the echelon's work; it stays until the benchmark-only change on
    ROADMAP.md (item 6) replaces the benchmark's linalg.nullspace.cells
    counter, which perfbench/test_perfbench.py requires to be positive on
    the b(s) search workload, with a count of echelon reductions.  All
    normal forms divide through the one division set-up the basis keeps
    (approx_nf).  Truncation degrees run
    from n0 up to nmax; n0 < 1 or n0 > nmax is an InputError.
    """
    _check_bounds(n0, nmax)
    d = 0
    for bound in range(n0, nmax + 1):
        nfs, pivots = [], []
        for nf in s_power_nfs(gb, bound):
            dependency = add_column(pivots, nf.truncate(bound).terms, len(nfs))
            nfs.append(nf)
            if len(nfs) > d and len(pivots) < len(nfs):
                break
        d = len(nfs) - 1
        kernel = dependency_kernel(nfs, bound)
        # s^0..s^(d-1) are independent, so both eliminations find one
        # dependency, monic in s^d
        if kernel != [dependency]:
            raise BfuncError("dependency kernel is not the echelon's single "
                             "monic vector")
        candidate = tuple(dependency)
        cert = mora_div(_poly_in_s(candidate, gb.order.arity), gb.elements,
                        gb.order)
        if cert.remainder.is_zero():
            return candidate, bound, cert
    raise ResourceLimitError(
        f"truncation degree exceeded {nmax} before certification",
        candidate=candidate, n_used=nmax)


# -- rational roots ------------------------------------------------------------

def _eval_poly(coeffs, x):
    acc = Rational(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deflate(coeffs, root):
    """Divide by (s - root); exact for an actual root."""
    m = len(coeffs) - 1
    out = [Rational(0)] * m
    out[m - 1] = coeffs[m]
    for i in range(m - 1, 0, -1):
        out[i - 1] = coeffs[i] + root * out[i]
    return out


def _divmod_poly(a, b):
    """Quotient and remainder of ascending coefficient lists; b[-1] != 0."""
    a, q = list(a), [Rational(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + len(b) - 1] / b[-1]
        for i, bc in enumerate(b):
            a[k + i] -= c * bc
    r = a[:len(b) - 1]
    while r and not r[-1]:
        r.pop()
    return q, r


def _squarefree_ints(work):
    """Primitive integer polynomial with the distinct roots of work."""
    g, h = work, [i * c for i, c in enumerate(work)][1:]
    while h:
        g, h = h, _divmod_poly(g, h)[1]
    sqf = _divmod_poly(work, g)[0]
    scale = math.lcm(*(int(c.denominator) for c in sqf))
    ints = [int(c * scale) for c in sqf]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _taylor_shift(r):
    """r(t + 1), ascending integer coefficients."""
    r = list(r)
    for i in range(len(r) - 1):
        for j in range(len(r) - 2, i - 1, -1):
            r[j] += r[j + 1]
    return r


def _variations(r):
    signs = [c > 0 for c in r if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _zero_between(sign, lo, hi):
    """The integer y in [lo, hi] with sign(y) == 0, or None.

    sign changes at most once over [lo, hi], so bisection keeps it nonzero
    and different at the two ends until they meet or a zero turns up.
    """
    if lo > hi:
        return None
    s_lo, s_hi = sign(lo), sign(hi)
    while s_lo and s_hi:
        if s_lo == s_hi or hi - lo < 2:
            return None
        mid = (lo + hi) // 2
        s_mid = sign(mid)
        if s_mid == s_lo:
            lo = mid
        else:
            hi, s_hi = mid, s_mid
    return hi if s_lo else lo


def _positive_candidates(p):
    """Candidates that include every positive rational root of p.

    p is a primitive square-free integer polynomial with p(0) != 0, and
    2^k0 exceeds its Cauchy root bound.  Descartes-rule bisection (Collins &
    Akritas 1976): each interval 2^k0*(c, c + 1)/2^k on the stack carries a
    polynomial r(t) whose roots in (0, 1) are the roots of p there, and the
    sign variations of (1 + t)^d r(1/(1 + t)) bound their number, exactly
    when 0 or 1.  An exact midpoint root is returned as found and divided
    out of both halves.  An interval (lo, hi) with one root holds a simple
    root of p, across which p changes sign; a rational root is y/a for an
    integer y, with a the leading coefficient, so bisecting over the
    integers a*lo < y < a*hi on the sign of a^d p(y/a) finds it if it is
    rational.
    """
    a = abs(p[-1])
    scaled = [c * a ** (len(p) - 1 - i) for i, c in enumerate(p)]

    def sign(y):  # of a^d p(y/a), by Horner in integers
        acc = 0
        for c in reversed(scaled):
            acc = acc * y + c
        return (acc > 0) - (acc < 0)

    k0 = (-(-max(map(abs, p)) // a)).bit_length()
    found = []
    stack = [([c << (k0 * i) for i, c in enumerate(p)], 0, 0)]
    while stack:
        r, c, k = stack.pop()
        v = _variations(_taylor_shift(r[::-1]))
        if v == 0:
            continue
        if v == 1:
            y = _zero_between(sign, (a * c << k0 >> k) + 1,
                              -(-(a * (c + 1) << k0) >> k) - 1)
            if y is not None:
                found.append(Rational(y, a))
            continue
        d = len(r) - 1
        left = [ci << (d - i) for i, ci in enumerate(r)]  # 2^d r(t/2)
        right = _taylor_shift(left)
        if not right[0]:  # the midpoint is a root
            found.append(Rational((2 * c + 1) << k0, 1 << (k + 1)))
            left, right = _deflate(left, 1), right[1:]
        stack.append((left, 2 * c, k + 1))
        stack.append((right, 2 * c + 1, k + 1))
    return found


def rational_roots(coeffs):
    """All rational roots with multiplicity, plus the unfactored cofactor.

    coeffs are ascending and the polynomial must be monic.  No integer is
    factored: zero roots are stripped, the square-free part is scaled to a
    primitive integer polynomial, and its positive and negative real roots
    are isolated exactly by Descartes-rule bisection, and each isolating
    interval is searched for its one rational candidate by bisection over
    the integer numerators (see _positive_candidates).  Each candidate that
    is a root is deflated out exactly and retested for multiplicity; what
    stays is the irrational cofactor.
    """
    work = [Rational(c) for c in coeffs]
    if not work or work[-1] != 1:
        raise InputError("expected a monic polynomial")
    roots = []
    while len(work) > 1 and not work[0]:
        roots.append(Rational(0))
        work = work[1:]
    if len(work) > 1:
        p = _squarefree_ints(work)
        mirrored = [c if i % 2 == 0 else -c for i, c in enumerate(p)]
        cands = _positive_candidates(p) + [
            -x for x in _positive_candidates(mirrored)]
        for cand in sorted(cands):
            while len(work) > 1 and _eval_poly(work, cand) == 0:
                roots.append(cand)
                work = _deflate(work, cand)
    grouped = []
    for r in sorted(set(roots)):
        grouped.append((r, roots.count(r)))
    return grouped, tuple(work)


# -- the pipeline ---------------------------------------------------------------

@dataclass(frozen=True)
class BFunctionResult:
    """Local b-function at the origin with its certification data.

    b holds ascending monic coefficients; roots pairs each rational root with
    its multiplicity; n_final is the truncation degree at certification; the
    certificate is the Mora relation reducing b(s) to zero by the basis.
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
