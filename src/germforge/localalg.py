"""Standard-basis machinery for local and global monomial orders.

Local answers about an ideal are read from its one `answer_span`.  One
completion loop, Buchberger's under a global order (`_basis_loop`), finds
every basis: the local standard basis of polynomials is its Groebner
basis of the homogenized generators, with the extra variable set to 1
after (Lazard's method, `_local_route`).  That basis gives the own degree
of a polynomial ideal, and it is the answer for infinite codimension.
Division is classical wherever the ring lets it end (`mora_divide`): in
J^k, where the local order has finitely many monomials, and under a global
order, which is a well-order.  Mora's weak normal form (`_weak_nf`: a unit
multiplier, reducers chosen by ecart) remains only for the tails of
`_interreduce` on polynomials under the local order.  Membership under the
local order compares leading ideals (`StandardBasis.contains`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count
from math import prod
from typing import List, Optional

from .jets import (
    BlockOrder,
    GrLexOrder,
    Jet,
    LocalOrder,
    MonomialOrder,
    mdeg,
    mdiv,
    mdivides,
    mlcm,
    mmul,
    monomials_upto,
)
from .linalg import RowSpace, nullspace

class InfiniteCodimensionError(ValueError):
    """The ideal is of infinite codimension."""


@dataclass
class DivisionResult:
    quotients: List[Jet]
    remainder: Jet
    unit: Jet

    def check(self, g: Jet, divisors: List[Jet]) -> bool:
        lhs = self.unit * g
        rhs = self.remainder
        for q, f in zip(self.quotients, divisors):
            rhs = rhs + q * f
        return lhs == rhs


def _weak_nf(g: Jet, G: List[Jet]):
    """Mora's weak normal form under the local order: (h, unit) with
    unit*g - h in <G>, a unit with constant term 1, and either h = 0 or the
    leading monomial of h divisible by no leading monomial of G.  Among the
    reducers whose leading monomial divides h's it takes one of least ecart
    (total degree minus leading degree); when that ecart exceeds h's own,
    h joins the reducers with its unit (Mora's rule), so the loop ends on
    polynomials although the local order is no well-order (Greuel and
    Pfister, A Singular Introduction to Commutative Algebra, section
    1.6)."""
    order = LocalOrder()
    h, unit = g, Jet.constant(1, g.variables, g.degree)
    # reducers: (ecart, position, leading monomial, leading coefficient,
    # jet, unit), where unit*g - jet lies in <G>: 0 for a divisor, and
    # least position first among equal ecarts
    reducers = []

    def join(f, f_unit):
        fm, fc = f.leading_term(order)
        reducers.append((f.total_degree() - mdeg(fm), len(reducers), fm, fc,
                         f, f_unit))

    for f in G:
        join(f, Jet.zero(g.variables, g.degree))
    while not h.is_zero():
        lm, lc = h.leading_term(order)
        candidates = [t for t in reducers if mdivides(t[2], lm)]
        if not candidates:
            break
        ecart, _, fm, fc, f, f_unit = min(candidates)
        if ecart > h.total_degree() - mdeg(lm):
            join(h, unit)
        m, c = mdiv(lm, fm), lc / fc
        h = h - f.term_mul(m, c)
        unit = unit - f_unit.term_mul(m, c)
    return h, unit


def mora_divide(g: Jet, G: List[Jet], order: MonomialOrder,
                k: Optional[int] = None) -> DivisionResult:
    """Divide g by the list G in the ring of g's degree (cut to k when
    given): g = sum(q_i * G_i) + remainder, with the unit 1 and no term of
    the remainder divisible by a divisor's leading monomial.  Classical
    division: the leading term of what is left is cancelled by a divisor
    whose leading monomial divides it, the one of least ecart under the
    local order and the first one under a global order, or else moved to
    the remainder.  Each step lowers the leading monomial, so it ends: a
    global order is a well-order, and the local order needs a truncated
    ring (ValueError otherwise), where it has finitely many monomials; in
    J^k each quotient term m of q_i then has deg m + ord G_i <= k."""
    if any(f.is_zero() for f in G):
        raise ValueError("divisor list must be zero-free")
    variables = g.variables
    if k is not None:
        g = g.truncate(k)
        G = [f.truncate(k) for f in G]
    if order.is_local and g.degree is None:
        raise ValueError("division under a local order needs a degree")
    # divisors: (ecart, index, leading monomial, leading coefficient)
    divisors = []
    for i, f in enumerate(G):
        fm, fc = f.leading_term(order)
        divisors.append((f.total_degree() - mdeg(fm), i, fm, fc))
    # each step lowers the leading monomial, so every quotient monomial and
    # remainder monomial is set once
    quots, remainder, h = [{} for _ in G], {}, g
    while not h.is_zero():
        lm, lc = h.leading_term(order)
        candidates = [t for t in divisors if mdivides(t[2], lm)]
        if candidates:
            _, i, fm, fc = min(candidates) if order.is_local else candidates[0]
            m, c = mdiv(lm, fm), lc / fc
            quots[i][m] = c
            h = h - G[i].term_mul(m, c)
        else:
            remainder[lm] = lc
            h = h - Jet.monomial(lm, variables, lc, h.degree)
    return DivisionResult([Jet(q, variables, g.degree) for q in quots],
                          Jet(remainder, variables, g.degree),
                          Jet.constant(1, variables, g.degree))


@dataclass
class StandardBasis:
    generators: List[Jet]
    order: MonomialOrder
    degree: Optional[int]
    warning: Optional[str] = None

    def leading_monomials(self):
        return [g.leading_monomial(self.order) for g in self.generators]

    def contains(self, f: Jet) -> bool:
        """Under a global order f lies in the ideal exactly when its
        remainder on division by the Groebner basis (`mora_divide`) is 0.
        Under the local order, exactly when <G, f> has the same minimal
        leading monomials as <G>, both read from `_local_route`
        (`_local_leads`): <G> lies in <G, f>, and two ideals, one inside the
        other, with one leading ideal are equal (Greuel and Pfister, A
        Singular Introduction to Commutative Algebra, section 1.6).  With a
        degree that compares span pivots, and without one the Lazard bases;
        Mora's weak normal form of f can stall on untruncated
        polynomials."""
        if not self.order.is_local:
            return mora_divide(f, self.generators, self.order,
                               self.degree).remainder.is_zero()
        G, k = self.generators, self.degree
        return _local_leads(G + [f.truncate(k)], k) == _local_leads(G, k)


def _basis_loop(G: List[Jet], order: MonomialOrder, k: Optional[int]) -> List[Jet]:
    """Buchberger's algorithm under a global order on monic generators,
    cut at degree k when given; `leads` holds each basis element's leading
    monomial and `pairs` each untreated pair's lcm, both taken once on
    entry, and the heap `queue` the untreated pairs by the order's key of
    their lcm, then the pair, which is the order they are taken in.
    Without k a pair is skipped by Buchberger's chain criterion
    (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 2
    section 10): when another leading monomial divides its lcm and both
    pairs it forms with the two are treated.  The degree cut drops pairs
    unreduced, so with k the criterion would not hold."""
    basis, leads, pairs, queue = [], [], {}, []

    def add(f):
        lm, lc = f.leading_term(order)
        new = len(basis)
        basis.append(f.scale(1 / lc))
        leads.append(lm)
        for t in range(new):
            pairs[new, t] = lcm = mlcm(lm, leads[t])
            heappush(queue, (order.key(lcm), (new, t)))

    def chain(i, j, lcm):
        return any(t != i and t != j and mdivides(leads[t], lcm)
                   and (max(i, t), min(i, t)) not in pairs
                   and (max(j, t), min(j, t)) not in pairs
                   for t in range(len(leads)))

    for g in G:
        g = g.truncate(k) if k is not None else g
        if not g.is_zero():
            add(g)
    while queue:
        i, j = heappop(queue)[1]
        lcm = pairs.pop((i, j))
        mi, mj = leads[i], leads[j]
        if lcm == mmul(mi, mj):  # coprime leading terms: S-pair reduces to 0
            continue
        if k is not None and mdeg(lcm) > k:
            continue
        if k is None and chain(i, j, lcm):
            continue
        s = basis[i].term_mul(mdiv(lcm, mi)) - basis[j].term_mul(mdiv(lcm, mj))
        if s.is_zero():
            continue
        r = mora_divide(s, basis, order).remainder
        if not r.is_zero():
            add(r)
    return basis


def _strip_unit_factor(g: Jet) -> Jet:
    """Replace a nonzero g = m * u (monomial times unit) by the monomial m;
    locally they generate the same ideal."""
    monomials = list(g.terms)
    common = tuple(min(m[i] for m in monomials) for i in range(len(g.variables)))
    if common in g.terms:
        # g = common * u, and u has a nonzero constant term
        return Jet.monomial(common, g.variables, Fraction(1), g.degree)
    return g


def _interreduce(basis: List[Jet], order: MonomialOrder, k: Optional[int]) -> List[Jet]:
    # discard generators whose leading monomial is a multiple of another's
    leads = [g.leading_monomial(order) for g in basis]
    kept = [
        g for i, (g, lm) in enumerate(zip(basis, leads))
        if not any(mdivides(lm2, lm) and (lm2 != lm or j < i)
                   for j, lm2 in enumerate(leads) if j != i)
    ]
    # fully reduce each survivor against the others
    out = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        lm, lc = g.leading_term(order)
        lead = Jet.monomial(lm, g.variables, lc, g.degree)
        tail_part = g - lead
        if others and not tail_part.is_zero():
            # unit*tail - r lies in <others>, so lead*unit + r stays in the
            # ideal; local tails (untruncated) can reduce to infinite
            # series, so those are only weak-normalized, and a global
            # division's unit is 1
            if order.is_local:
                r, unit = _weak_nf(tail_part, others)
                g = lead * unit + r
            else:
                g = lead + mora_divide(tail_part, others, order, k).remainder
        g = g.scale(1 / lc)
        if order.is_local:  # not before: lead*unit + r restores the unit
            g = _strip_unit_factor(g)
        out.append((order.key(lm), g))
    out.sort(key=lambda t: t[0], reverse=True)
    return [g for _, g in out]


def least_degree(leads, nvars: int) -> Optional[int]:
    """The least d at which one of the leading monomials `leads` divides
    every monomial of degree d, so M^d lies in the ideal; None without a
    pure power of every variable (infinite codimension)."""
    if not all(any(mdeg(lm) == lm[i] for lm in leads) for i in range(nvars)):
        return None
    return next(d for d in count() if all(
        any(mdivides(lm, m) for lm in leads)
        for m in monomials_upto(nvars, d) if mdeg(m) == d))


def _local_route(G: List[Jet], k: Optional[int]):
    """(span, basis): how <G> is answered under the local order.  With k,
    or a truncated jet in G, span is the `ideal_span` at k, else at the
    least degree of G's jets, and basis is None.  Polynomials G are
    answered exactly from their local standard basis, found once by
    Lazard's homogenization (Greuel and Pfister, A Singular Introduction to
    Commutative Algebra, section 1.7): each f becomes t^(deg f) f(x/t),
    homogeneous in a fresh variable t, and Buchberger's loop runs on them
    under grlex on (t, x, ...).  Between monomials of one total degree
    that order puts the higher power of t first, which is the lower degree
    in x, ..., and then compares the rest lexicographically: on
    homogeneous polynomials it is the local order, and setting t = 1 in
    the Groebner basis gives a local standard basis of <G>.  span is the
    span of <G> at its own degree D = `least_degree` of that basis's
    leading monomials, where M^D lies in <G> so that J^D answers exactly,
    or None for infinite codimension."""
    if not G:
        raise ValueError("empty generating list")
    if k is None:
        k = min((f.degree for f in G if f.degree is not None), default=None)
    if k is not None:
        return ideal_span(G, k), None
    variables = G[0].variables
    homogeneous = (fresh_name("t", variables),) + variables
    lazard = _basis_loop([_homogenize(f, homogeneous) for f in G],
                         GrLexOrder(), None)
    basis = [Jet({m[1:]: c for m, c in h.terms.items()}, variables,
                 _clean=False) for h in lazard]
    d = least_degree([f.leading_monomial(LocalOrder()) for f in basis],
                     len(variables))
    return (None if d is None else ideal_span(G, d)), basis


def _local_leads(G: List[Jet], k: Optional[int]):
    """The minimal leading monomials of <G> under the local order, as
    `_local_route` reads them: the pivots of its span with k (or a
    truncated jet in G), else the leading monomials of its Lazard basis."""
    G = [g for g in G if not g.is_zero()]
    if not G:
        return set()
    span, basis = _local_route(G, k)
    leads = (span.pivots() if basis is None
             else [g.leading_monomial(LocalOrder()) for g in basis])
    return {m for m in leads
            if not any(q != m and mdivides(q, m) for q in leads)}


def _homogenize(f: Jet, variables) -> Jet:
    """The polynomial f made homogeneous of its total degree by powers of
    the first of `variables`, which f does not hold."""
    top = f.total_degree()
    return Jet({(top - mdeg(m),) + m: c for m, c in f.terms.items()},
               variables, _clean=False)


def answer_span(G: List[Jet], k: Optional[int] = None) -> Optional[RowSpace]:
    """The one `ideal_span` that answers for <G> (`_local_route`); None for
    polynomials of infinite codimension."""
    return _local_route(G, k)[0]


def _minimal_rows(span: RowSpace) -> List[Jet]:
    """The reduced rows whose pivot no other pivot divides: for an ideal of
    J^k its reduced local standard basis, since pivots are leading
    monomials, multiples of pivots are pivots and tails hold no pivot."""
    pivots = span.pivots()
    return [h for h, p in zip(span.rows, pivots)
            if not any(q != p and mdivides(q, p) for q in pivots)]


def standard_basis(G: List[Jet], order: Optional[MonomialOrder] = None,
                   k: Optional[int] = None) -> StandardBasis:
    """Reduced standard basis of <G> (Groebner basis for a global order).

    Under the local order it is read from `_local_route`: the
    `_minimal_rows` of its span, untruncated for polynomials G, or the
    route's interreduced basis for polynomials of infinite codimension.  A
    global order with k recomputes the basis at k+1 and warns when the
    leading monomials of degree <= k differ."""
    order = order or LocalOrder()
    if order.is_local:
        span, basis = _local_route(G, k)
        if span is None:
            return StandardBasis(_interreduce(basis, order, None), order, None)
        if basis is None:
            return StandardBasis(_minimal_rows(span), order, span.degree)
        return StandardBasis([h.truncate(None) for h in _minimal_rows(span)],
                             order, None)
    if not G:
        raise ValueError("empty generating list")
    sb = StandardBasis(_interreduce(_basis_loop(G, order, k), order, k),
                       order, k)
    if k is not None and sb.generators:
        lifted = [g.truncate(None).truncate(k + 1) for g in G]
        higher = _interreduce(_basis_loop(lifted, order, k + 1), order, k + 1)
        lt_low = set(sb.leading_monomials())
        lt_high = {h.leading_monomial(order) for h in higher}
        if lt_low != {m for m in lt_high if mdeg(m) <= k}:
            sb.warning = (
                "The truncation degree is not sufficiently high and thus, "
                "the following results might be wrong."
            )
    return sb


def buchberger(G: List[Jet], order: Optional[MonomialOrder] = None) -> List[Jet]:
    """Reduced Groebner basis in the polynomial ring: `standard_basis` under
    a global order, with no truncation."""
    order = order or GrLexOrder()
    if order.is_local:
        raise ValueError("buchberger requires a global order")
    return standard_basis([g.truncate(None) for g in G], order).generators


def fresh_name(base: str, taken) -> str:
    """`base`, with underscores appended until it is not in `taken`: the
    name of an auxiliary variable that must not clash with a user's."""
    while base in taken:
        base += "_"
    return base


def _with_t(f: Jet, tvars) -> Jet:
    return f.truncate(None).rename(tvars)


def ideal_intersection(I: List[Jet], J: List[Jet]) -> List[Jet]:
    """Generators of <I> ∩ <J>, via the t-trick in the polynomial ring."""
    if not I or not J:
        raise ValueError("both generator lists must be nonempty")
    variables = I[0].variables
    tname = fresh_name("_t", variables)
    tvars = (tname,) + variables
    t = Jet.variable(tname, tvars)
    one = Jet.constant(1, tvars)
    gens = [t * _with_t(f, tvars) for f in I]
    gens += [(one - t) * _with_t(g, tvars) for g in J]
    gb = buchberger(gens, BlockOrder(1))
    return [g.restrict(variables) for g in gb
            if all(m[0] == 0 for m in g.terms)]


def colon_ideal(I: List[Jet], g: Jet, k: Optional[int] = None) -> List[Jet]:
    """The reduced local standard basis of the colon ideal I : <g>, each
    generator made primitive with a positive local leading coefficient.

    With the `answer_span` at degree k it is the colon of I + M^(k+1) in
    J^k: the kernel of m -> (m*g modulo the span of I) over the monomials
    m of degree <= k, in reduced echelon form, of which `_minimal_rows`
    are returned.  At the own degree D of polynomials I, M^D lies in I and
    in I : g, so the answer is exact.  A unit g takes this route too.

    For polynomials I of infinite codimension a unit g gives the
    interreduced basis of I from the same `_local_route`, as
    `standard_basis` does, since I : g = I; the t-trick's Buchberger basis,
    in the polynomial ring where g is no unit, can take seconds there.
    For any other g each generator h_i of I ∩ <g> in the polynomial ring
    (the t-trick of `ideal_intersection`) is a multiple of g there, so
    classical division by g under grlex leaves remainder 0 and the
    quotient h_i / g.  The quotients generate I : g, in the polynomial
    ring and so locally, and `standard_basis` reduces them once: to the
    `_minimal_rows` of their own degree's span if the colon has finite
    codimension, else to their interreduced Lazard basis
    (`_interreduce`, with weak normal forms of the tails).  Every basis
    here comes from the one loop, under a global order."""
    if g.is_zero():
        raise ValueError("colon by the zero germ")
    span, basis = _local_route(I, k)
    if span is not None:
        out = _truncated_colon(span, g)
        if basis is not None:  # polynomials I: the answer is exact
            out = [h.truncate(None) for h in out]
    elif g.constant_term() != 0:  # I : u = I for a unit u
        out = _interreduce(basis, LocalOrder(), None)
    else:
        quotients = []
        for h in ideal_intersection(I, [g]):
            res = mora_divide(h, [g], GrLexOrder())
            if not res.remainder.is_zero():
                raise ArithmeticError(
                    "intersection generator not divisible by g; this "
                    "indicates an internal inconsistency")
            quotients.append(res.quotients[0])
        out = standard_basis(quotients).generators if quotients else []
    return [_local_primitive(h) for h in out]


def _local_primitive(h: Jet) -> Jet:
    """h made primitive with a positive coefficient at its local leading
    monomial, the sign in which local answers print."""
    h = h.primitive()
    return -h if h.leading_term(LocalOrder())[1] < 0 else h


def _truncated_colon(span: RowSpace, g: Jet) -> List[Jet]:
    k = span.degree
    g = g.truncate(k)
    monos = monomials_upto(len(g.variables), k)
    residues = [span.residue(g.term_mul(m)) for m in monos]
    columns = {c for r in residues for c in r}
    kernel = RowSpace(g.variables, k)
    for vec in nullspace([[r.get(c, 0) for r in residues] for c in columns],
                         len(monos)):
        kernel.add(Jet(dict(zip(monos, vec)), g.variables, k))
    return _minimal_rows(kernel)


def _quotient(I: List[Jet], k: Optional[int]):
    """(span, normal set): the `answer_span` of <I> and its non-pivot
    monomials in descending local order; raises for infinite
    codimension."""
    span = answer_span(I, k)
    pivots = set(span.pivots() if span is not None else ())
    nvars = len(I[0].variables)
    if least_degree(pivots, nvars) is None:
        raise InfiniteCodimensionError("the ideal is of infinite codimension")
    return span, [m for m in monomials_upto(nvars, span.degree)
                  if m not in pivots]


def normal_set(I: List[Jet], k: Optional[int] = None) -> list:
    """Standard monomials of <I>: the monomial basis of E/<I>, ordered by the
    local order descending (1 first); the non-pivots of one `ideal_span`."""
    return _quotient(I, k)[1]


def codimension(I: List[Jet], k: Optional[int] = None):
    """Number of standard monomials, or None for infinite codimension."""
    try:
        return len(normal_set(I, k))
    except InfiniteCodimensionError:
        return None


def mult_matrix(A: List[Jet], u, k: Optional[int] = None):
    """Matrix of multiplication by the monomial u on E/<A> in the normal-set
    basis (descending local order), column j the residue of u*b_j against
    the span.  Returns (matrix, basis)."""
    span, basis = _quotient(A, k)
    index = {m: i for i, m in enumerate(basis)}
    n = len(basis)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for j, b in enumerate(basis):
        prod = Jet.monomial(mmul(tuple(u), b), span.variables)
        for m, c in span.residue(prod).items():
            matrix[index[m]][j] = c
    return matrix, basis


def ideal_span(G: List[Jet], k: int) -> RowSpace:
    """The ideal <G> in the jet space J^k = E/M^(k+1): the coefficient span
    of {m*f : f in G, deg(m*f) <= k}, from which local answers are read.
    Its pivots are the leading monomials of <G> of degree <= k (the
    leading-form lemma, Greuel and Pfister, section 1.7: an f of order <= k
    in <G> + M^(k+1) is i + m with i in <G>, m in M^(k+1), so f and i have
    the same leading monomial)."""
    space = RowSpace(G[0].variables, k)
    for f in G:
        space.add_multiples(f)
    return space


def poly_ring(names, integer: bool = False):
    """sympy's sparse polynomial ring QQ[names] (ZZ[names] with `integer`)
    in lex order, with the generators in the order given."""
    from sympy.polys.domains import QQ, ZZ
    from sympy.polys.orderings import lex
    from sympy.polys.rings import PolyRing

    return PolyRing(list(names), ZZ if integer else QQ, lex)


def _qq(R, c):
    c = Fraction(c)
    return R.domain(c.numerator, c.denominator)


def to_ring(f: Jet, R):
    """f as an element of the ring R over QQ, whose generators include f's
    variables: the exponent slots are permuted by name (Jet.rename)."""
    g = f.rename(str(s) for s in R.symbols)
    return R.from_dict({m: _qq(R, c) for m, c in g.terms.items()})


def from_ring(p, names) -> Jet:
    """The ring element p (over QQ or ZZ) as an untruncated Jet over
    `names`, which must include every generator that occurs in p
    (Jet.restrict)."""
    terms = {m: Fraction(int(c.numerator), int(c.denominator))
             for m, c in p.items()}
    return Jet(terms, (str(s) for s in p.ring.symbols)).restrict(names)


def to_integer_ring(p, names):
    """The element p of a ring over QQ, which involves only the generators
    `names`, as the primitive polynomial in ZZ[names] that is a positive
    rational multiple of p: denominators cleared, then the integer content
    divided out."""
    p = p.clear_denoms()[1].set_ring(poly_ring(names, integer=True))
    return p.primitive()[1]


def _square_free(p, names) -> Jet:
    """The square-free part of the element p of a ring over QQ, which
    involves only `names`, computed in ZZ[names] (`to_integer_ring`) and
    made primitive (Jet.primitive).  By Gauss's lemma it is the answer over
    QQ times a nonzero rational, so the normalized result is the same."""
    return from_ring(to_integer_ring(p, names).sqf_part(), names).primitive()


def coprime(f: Jet, g: Jet) -> bool:
    """Whether f and g, jets in the same variables, have no common factor
    of positive degree: their gcd over QQ is a constant."""
    R = poly_ring(f.variables)
    return to_ring(f, R).gcd(to_ring(g, R)).is_ground


def odd_part(f: Jet):
    """(sign, odd) with f = sign * c * odd * h^2 for a rational c > 0 and a
    polynomial h: odd is the product of the factors of odd multiplicity in
    the square-free decomposition of f over ZZ (`to_integer_ring`), each
    primitive with a positive lexicographically first coefficient, so by
    Gauss's lemma odd is too; sign is 1 or -1, and 0 for the zero jet."""
    names = f.variables
    p = to_integer_ring(to_ring(f, poly_ring(names)), names)
    content, factors = p.sqf_list()
    odd = prod((q for q, k in factors if k % 2), start=p.ring.one)
    return (content > 0) - (content < 0), from_ring(odd, names)


def eliminate(F: List[Jet], drop, saturate: Optional[Jet] = None) -> List[Jet]:
    """Polynomials cutting out the Zariski closure of the projection of V(F)
    onto the variables not in `drop`.

    Method: a lex Groebner basis of <F> (sympy's f5b on sparse `PolyRing`
    elements) with generators ordered [t] + drop (in the caller's order) +
    kept, kept in the order of `F[0].variables`.  By the Elimination and
    Closure theorems (Cox, Little, O'Shea, Ideals, Varieties, and
    Algorithms, ch. 3) the basis elements free of the dropped variables
    generate the elimination ideal, whose variety is the closure of the
    projection.  Each is returned as its square-free part, taken over ZZ
    straight from the basis element (`_square_free`).  With nothing
    dropped, one polynomial f gives its square-free part alone, since the
    basis of <f> is f made monic.  The order of `drop` does not change the
    result, only the time the basis takes.

    With `saturate=q` (a polynomial in the variables of F) the Rabinowitsch
    equation t*q - 1 joins F and t is eliminated first: the result is the
    closure of the projection of V(F) minus V(q), i.e. of the saturation
    <F> : q^infinity.  The name of t is chosen away from F's variables.

    Returns [] when the projection is dense and [1] when V(F) (minus V(q))
    is empty."""
    from sympy.polys.groebnertools import groebner

    variables = F[0].variables
    drop = list(drop)
    kept = [n for n in variables if n not in drop]
    empty = [Jet.constant(1, tuple(kept), None)]
    F = [f for f in F if not f.is_zero()]
    if any(f.total_degree() == 0 for f in F):
        return empty
    if not F:
        return []
    head = drop if saturate is None else [fresh_name("t", variables)] + drop
    R = poly_ring(head + kept)
    polys = [to_ring(f, R) for f in F]
    if saturate is not None:
        polys.append(R.gens[0] * to_ring(saturate, R) - 1)
    out = []
    for g in groebner(polys, R, method="f5b"):
        if any(any(e[:len(head)]) for e in g.itermonoms()):
            continue
        p = _square_free(g, kept)
        if p.total_degree() == 0:
            return empty
        if p not in out:
            out.append(p)
    return out
