"""The singularity-theory tower for scalar bifurcation germs g(x, lambda):
restricted tangent spaces, tangent spaces, high- and low-order terms, normal
forms, universal unfoldings, recognition conditions, and the transformation
solver for contact equivalences f = S * g(X, Lambda)."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice
from math import gcd
from typing import Callable, List, Optional, Tuple

from .intrinsic import (
    IntrinsicIdeal,
    intrinsic_from_members,
    mrt_span,
    smallest_intrinsic,
    working_degree,
)
from .jets import Jet, LocalOrder, compose_all, mdeg, monomials_upto
from .linalg import RowSpace, solve_linear

# most monomial complements of T that `universal_unfolding` lists
LIST_CAP = 40

NOT_CANONICAL_WARNING = ("no positive rational scaling brings the principal "
                         "part's coefficients to +-1, so this normal form is "
                         "not canonical")

_LOCAL = LocalOrder()


class NotEquivalentError(ValueError):
    """The transformation solver gives no contact transformation.  The
    message says "not equivalent" only where an invariant proves it (the
    orders or the Newton vertices differ, exactly one germ is zero, or, in
    `transform` without a degree, the truncation degrees differ);
    otherwise no witness was found."""


class ParameterCountError(ValueError):
    """A recognition matrix asked for p parameters outside [codim T(g),
    dim E/Itr(T(g))]: fewer than codim T cannot unfold g universally, and
    more than dim E/Itr(T) do not fit in the square matrix."""

    def __init__(self, codim, n, p):
        if p < codim:
            message = ("a universal unfolding needs at least codim T = %d "
                       "parameters, not %d" % (codim, p))
        else:
            message = ("the recognition matrix takes at most dim E/Itr(T) = "
                       "%d parameters, not %d" % (n, p))
        super().__init__(message)


class ZeroGermError(ValueError):
    """The germ's jet at the working degree is zero, so there is nothing to
    classify or unfold."""

    def __init__(self, k):
        super().__init__("the germ is zero up to degree %d" % k)


def require_nonzero(g: Jet) -> Jet:
    """g itself; ZeroGermError when g is the zero jet."""
    if g.is_zero():
        raise ZeroGermError(g.degree)
    return g


@dataclass
class SpanSpace:
    """A subspace of the degree-<=k jet space presented as its largest
    intrinsic ideal plus finitely many extra spanning vectors."""

    intrinsic: IntrinsicIdeal
    extra: List[Jet]
    space: RowSpace = field(repr=False)

    def __str__(self) -> str:
        parts = []
        if not self.intrinsic.is_zero:
            parts.append(str(self.intrinsic))
        if self.extra:
            parts.append("{%s}" % ", ".join(str(f) for f in self.extra))
        return " + ".join(parts) if parts else "0"


def _ideal_space(ideal: IntrinsicIdeal, variables, k: int) -> RowSpace:
    """The span of the degree-<=k monomials of an intrinsic ideal."""
    space = RowSpace(variables, k)
    for m in ideal.monomials_upto(k):
        space.add(Jet.monomial(m, variables, 1, k))
    return space


def _span_to_spanspace(space: RowSpace) -> SpanSpace:
    """Every monomial of the intrinsic part is a reduced row of its own, and
    the other rows vanish at those pivots: the extras are the other rows."""
    k = space.degree
    intr = intrinsic_from_members(space.monomials(), k)
    extra = [row for row in space.rows if not intr.contains(row)]
    return SpanSpace(intr, extra, space)


def _tangent_spans(g: Jet, mrt: Optional[RowSpace] = None):
    """M*RT(g) in RT(g) in T(g) at g's degree: one RowSpace, yielded after
    each stage as it grows in place.  M*RT(g) = M{g} + M^2{g_x} is `mrt`
    when the caller holds it (`intrinsic.verify_germ`'s span, which this
    grows), else `mrt_span(g, g.degree)`; RT(g) = E{g} + M{g_x} adds g,
    x*g_x and lambda*g_x; T(g) = E{g, g_x} + E_lambda{g_lambda} adds g_x
    and E_lambda{g_lambda}.  ValueError when g is untruncated."""
    if g.degree is None:
        raise ValueError("the tangent spaces need a truncated jet, not the "
                         "untruncated %s" % g)
    space = mrt_span(g, g.degree) if mrt is None else mrt
    yield space
    gx, glam = g.diff(g.variables[0]), g.diff(g.variables[1])
    for f in (g, gx.term_mul((1, 0)), gx.term_mul((0, 1))):
        space.add(f)
    yield space
    for f in [gx] + [glam.term_mul((0, j)) for j in range(g.degree + 1)]:
        space.add(f)
    yield space


def _t_span(g: Jet, mrt: Optional[RowSpace] = None) -> RowSpace:
    *_, t = _tangent_spans(g, mrt)
    return t


def _complement(space: RowSpace) -> list:
    """tangent_perp's greedy monomial complement, chosen on a copy of the
    span."""
    trial = space.copy()
    k = space.degree
    # within a degree prefer lambda-heavy monomials, so ties between a pure
    # x power and a mixed monomial resolve toward the mixed one
    monos = sorted(monomials_upto(2, k), key=lambda m: (mdeg(m), m[0]))
    return [m for m in monos
            if trial.add(Jet.monomial(m, space.variables, 1, k))]


def restricted_tangent(g: Jet) -> SpanSpace:
    """RT(g) = E{g} + M{g_x} on jets of g's degree."""
    _mrt, rt = islice(_tangent_spans(g), 2)
    return _span_to_spanspace(rt)


def tangent_space(g: Jet) -> SpanSpace:
    """T(g) = E{g, g_x} + E_lambda{g_lambda} on jets of g's degree."""
    return _span_to_spanspace(_t_span(g))


def tangent_perp(g: Jet) -> list:
    """Monomial basis of a complement of T(g), greedily chosen from the
    lowest local-order monomials (so 1 comes first when possible)."""
    return _complement(_t_span(g))


def s_perp(g: Jet) -> list:
    """The low-order monomials: every monomial outside S(g)."""
    S = smallest_intrinsic(g)
    bound = max(kk + ll for kk, ll in S.blocks)
    out = [m for m in monomials_upto(2, bound)
           if not S.contains_monomial(m)]
    return out


def intrinsic_gens(g: Jet) -> list:
    """Block generator monomials of S(g)."""
    return smallest_intrinsic(g).generators()


@dataclass
class AlgObjects:
    rt: SpanSpace
    t: SpanSpace
    p: IntrinsicIdeal
    e_over_t: list
    s: IntrinsicIdeal
    s_perp: list
    intrinsic_generators: list


def alg_objects(g: Jet, mrt: Optional[RowSpace] = None) -> AlgObjects:
    """The algebraic objects of g at g's degree.  P, RT and T come from one
    span grown through M*RT(g) in RT(g) in T(g), from `mrt` when the caller
    holds M*RT(g) (see `_tangent_spans`)."""
    spans = _tangent_spans(g, mrt)
    p = intrinsic_from_members(next(spans).monomials(), g.degree)
    rt = _span_to_spanspace(next(spans).copy())
    t = next(spans)
    return AlgObjects(
        rt=rt,
        t=_span_to_spanspace(t),
        p=p,
        e_over_t=_complement(t),
        s=smallest_intrinsic(g),
        s_perp=s_perp(g),
        intrinsic_generators=intrinsic_gens(g),
    )


# ----------------------------------------------------------- transformations


def _rational_root(q: Fraction, n: int) -> Optional[Fraction]:
    """The positive rational q^(1/n) for q > 0 and n != 0, or None when it
    is irrational: Newton's iteration on integers, from above, for the
    numerator and the denominator."""
    if n < 0:
        q, n = 1 / q, -n
    roots = []
    for m in (q.numerator, q.denominator):
        x = 1 << -(-m.bit_length() // n)
        while (y := ((n - 1) * x + m // x ** (n - 1)) // n) < x:
            x = y
        if x ** n != m:
            return None
        roots.append(x)
    return Fraction(*roots)


def _solve_scaling(ratios: dict):
    """Positive rationals (s, a, c) with s * a^i * c^j = ratios[(i, j)] > 0
    for every listed monomial, or None when there are none.

    Divided by the first equation, each reads a^di * c^dj = q.  Unimodular
    column operations (Euclid on the two columns) bring the integer rows
    (di, dj) to column echelon form, so with (a, c) = t^U each pivot row
    fixes one new unknown t_k as an exact rational root; a column with no
    pivot is free and t_k = 1.  The solution is unique up to the free
    columns, so a failed root or a failed final check means there is
    none."""
    (i0, j0), r0 = next(iter(ratios.items()))
    # cols[k] holds the exponents of t_k in (a, c)
    cols = [[1, 0], [0, 1]]
    t = [Fraction(1), Fraction(1)]
    pivots = 0
    for (i, j), r in ratios.items():
        e = [(i - i0) * u[0] + (j - j0) * u[1] for u in cols]
        if pivots == 0:
            while e[1]:
                f = e[0] // e[1]
                cols[0] = [x - f * y for x, y in zip(cols[0], cols[1])]
                cols.reverse()
                e = [e[1], e[0] - f * e[1]]
        if pivots == 2 or e[pivots] == 0:
            continue
        # t[0] is still 1 while the first pivot is being solved
        t[pivots] = _rational_root(r / r0 / t[0] ** e[0], e[pivots])
        if t[pivots] is None:
            return None
        pivots += 1
    a = t[0] ** cols[0][0] * t[1] ** cols[1][0]
    c = t[0] ** cols[0][1] * t[1] ** cols[1][1]
    s = r0 / (a ** i0 * c ** j0)
    if any(s * a ** i * c ** j != r for (i, j), r in ratios.items()):
        return None
    return s, a, c


def _vertex(g: Jet):
    """The Newton vertex (d, e) of a nonzero jet g: lambda^e is the largest
    power of lambda that divides g, and d is the order of (g/lambda^e)(x, 0).
    Lambda^e/lambda^e is a unit, so (d, e) is a contact invariant of g."""
    e = min(m[1] for m in g.terms)
    return min(m[0] for m in g.terms if m[1] == e), e


def _shift(g: Jet, d: int, e: int):
    """(phi, g(x + phi, lambda)) for the jet phi(lambda), phi(0) = 0, that
    removes every x^(d-1)*lambda^j term of g/lambda^e (a Tschirnhaus shift).
    The x^(d-1) coefficient H of g(x + phi, lambda)/lambda^e has derivative
    d*g_(d,e) != 0 in phi, so each chord step phi -= H/(d*g_(d,e)) raises
    the order of H."""
    x = g.variables[0]
    phi = Jet.zero(g.variables, g.degree)
    shifted = g
    while True:
        H = {(0, j - e): c for (i, j), c in shifted.terms.items()
             if i == d - 1}
        if not H:
            return phi, shifted
        phi = phi - Jet(H, g.variables, g.degree).scale(
            1 / (d * g.terms[(d, e)]))
        shifted = g.compose({x: Jet.variable(x, g.variables, g.degree)
                             + phi})


def _principal(g: Jet, d: int, e: int):
    """((w_x, w_lambda), top, principal part) of g at its Newton vertex (d, e):
    the integer weights of the Newton polygon's edge at (d, e), or (1, 1)
    when no term has an x exponent below d, and the terms of g of the least
    weight, top = w_x*d + w_lambda*e."""
    left = [m for m in g.terms if m[0] < d]
    w = (1, 1)
    if left:
        i, j = min(left, key=lambda m: Fraction(m[1] - e, d - m[0]))
        n = gcd(j - e, d - i)
        w = ((j - e) // n, (d - i) // n)
    top = w[0] * d + w[1] * e
    return w, top, {m: c for m, c in g.terms.items()
                    if w[0] * m[0] + w[1] * m[1] == top}


@dataclass
class TransformationTriple:
    X: Jet
    L: Jet
    S: Jet

    def apply(self, g: Jet) -> Jet:
        names = g.variables
        return self.S * g.compose({names[0]: self.X, names[1]: self.L})

    def residual(self, g: Jet, f: Jet) -> Jet:
        return f - self.apply(g)


def transformation(g: Jet, f: Jet, k: int) -> TransformationTriple:
    """Jets X, Lambda, S with f - S*g(X, Lambda) in M^k, subject to
    S(0) > 0, X_x(0) > 0, Lambda'(0) > 0.

    Only terms below degree k matter, so g, f, X, Lambda and S are
    (k-1)-jets.  Each germ is shifted (`_shift`) so that g/lambda^e has no
    x^(d-1) term at its Newton vertex (d, e).  The principal parts at the
    vertex (`_principal`) must then agree up to positive scalings of x,
    lambda and the germ, which `_solve_scaling` fixes.  Each Newton step
    solves every residual row of weight in [D, 2D - top), D the residual's
    least weight: products of two corrections weigh at least 2D - top, so
    the weight rises at every step.  The shifts are undone at the end.
    Raises NotEquivalentError: "not equivalent" when the orders or the
    Newton vertices differ, or exactly one germ is zero, "no contact
    transformation found" when the principal parts do not match or a step
    is infeasible."""
    variables = g.variables
    x, lam = variables
    # the witness is a (k-1)-jet that keeps its linear terms when k = 1
    n = max(k - 1, 1)
    X, L = (Jet.variable(v, variables, n) for v in variables)
    S = Jet.constant(1, variables, n)
    g, f = g.truncate(k - 1), f.truncate(k - 1)
    if g.is_zero() or f.is_zero():
        if g.is_zero() and f.is_zero():
            return TransformationTriple(X, L, S)
        raise NotEquivalentError("not equivalent up to degree %d" % k)
    d, e = vertex = _vertex(g)
    if (f.order(), _vertex(f)) != (g.order(), vertex):
        raise NotEquivalentError("not equivalent up to degree %d" % k)
    not_found = "no contact transformation found up to degree %d" % k
    phi_g, g = _shift(g, d, e)
    phi_f, f = _shift(f, d, e)
    w, top, gp = _principal(g, d, e)
    fw, ftop, fp = _principal(f, d, e)
    if (fw, ftop) != (w, top) or fp.keys() != gp.keys():
        raise NotEquivalentError(not_found)
    ratios = {m: fp[m] / c for m, c in gp.items()}
    # positive scalings cannot flip a sign
    scaling = min(ratios.values()) > 0 and _solve_scaling(ratios)
    if not scaling:
        raise NotEquivalentError(not_found)
    s0, a0, c0 = scaling
    X, L, S = X.scale(a0), L.scale(c0), S.scale(s0)

    def weight(m):
        return w[0] * m[0] + w[1] * m[1]

    monos = monomials_upto(2, k - 1)
    derivatives = (g.diff(x), g.diff(lam))
    while True:
        # g, g_x and g_lambda composed through one table of powers of X, L;
        # the derivatives only when the residual asks for a step
        composed = compose_all((g,) + derivatives, {x: X, lam: L})
        SG = S * next(composed)
        r = f - SG
        if r.is_zero():
            break
        D = min(map(weight, r.terms))
        end = 2 * D - top
        SGx, SGlam = (S * h for h in composed)
        # an unknown m of S, X or Lambda adds a column of weight at least
        # weight(m) + top minus 0, w_x or w_lambda
        fields = ((SG, 0, monos), (SGx, w[0], monos),
                  (SGlam, w[1], [m for m in monos if not m[0]]))
        unknowns = [(kind, m, h.term_mul(m))
                    for kind, (h, shift, ms) in enumerate(fields) for m in ms
                    if D <= weight(m) + top - shift < end]
        rows = [m for m in monos if D <= weight(m) < end]
        sol = solve_linear([[u[2].terms.get(m, 0) for u in unknowns]
                            for m in rows], [r.terms.get(m, 0) for m in rows])
        if sol is None:
            raise NotEquivalentError(not_found)
        steps = ({}, {}, {})
        for c, (kind, m, _column) in zip(sol, unknowns):
            steps[kind][m] = c
        dS, dX, dL = (Jet(t, variables, n) for t in steps)
        S, X, L = S + S * dS, X + dX, L + dL
        if end > (k - 1) * max(w):
            break  # the residual's weight exceeds every degree below k
    if phi_f:
        S, X = compose_all((S, X), {x: Jet.variable(x, variables, n)
                                    - phi_f})
    if phi_g:
        X = X + phi_g.compose({lam: L})
    return TransformationTriple(X, L, S)


def equivalent(g: Jet, f: Jet, k: int) -> bool:
    try:
        transformation(g, f, k)
        return True
    except NotEquivalentError:
        return False


# ------------------------------------------------------------- normal forms


@dataclass
class NormalForm:
    germ: Jet
    warnings: List[str] = field(default_factory=list)


def normal_form(expand: Callable[[int], Jet],
                k: Optional[int] = None) -> NormalForm:
    """Normal form pipeline: expand, shift (`_shift`), delete high-order
    terms, greedily eliminate the terms outside the principal part
    (`_principal`) via the transformation solver, and scale the principal
    part's coefficients to +-1 where a positive rational scaling does it;
    where none does, the form is not canonical and says so in a warning.
    The normal form's degree is the working degree
    (`intrinsic.working_degree`), and P is read from the truncation
    search's span, or from M*RT(g) at k + 1 for a given k; where
    `verify_germ` found no degree, the germ's jet there is returned with
    the warning.  A zero jet at the working degree raises ZeroGermError."""
    k, span, warnings = working_degree(expand, k)
    g = require_nonzero(expand(k))
    if warnings:
        return NormalForm(g, warnings)
    if span is None:
        span = mrt_span(g, k + 1)
    P = intrinsic_from_members(span.monomials(), k + 1)
    d, e = _vertex(g)
    _phi, g = _shift(g, d, e)
    _w, _top, principal = _principal(g, d, e)
    current = Jet({m: c for m, c in g.terms.items()
                   if not P.contains_monomial(m)}, g.variables, k)
    for m, c in current.sorted_terms(_LOCAL):
        if m in principal:
            continue
        candidate = current - Jet.monomial(m, current.variables, c, k)
        if equivalent(g, candidate, k + 1):
            current = candidate
    # want s * a^i * c^j * coeff = +-1 on the principal part
    scaling = _solve_scaling({m: 1 / abs(c) for m, c in principal.items()})
    if scaling is None:
        return NormalForm(current, [NOT_CANONICAL_WARNING])
    s, a, c = scaling
    return NormalForm(Jet({m: v * s * a ** m[0] * c ** m[1]
                           for m, v in current.terms.items()}, g.variables, k))


# -------------------------------------------------------------- unfoldings


@dataclass
class UnfoldingGerm:
    body: Jet          # in variables (x, lam, a1..ap)
    params: Tuple[str, ...]

    def __post_init__(self):
        names = self.body.variables
        for name in names:
            if names.count(name) > 1:
                raise ValueError("%r is named twice in the unfolding's "
                                 "variables %s" % (name, ", ".join(names)))

    def base(self) -> Jet:
        """The body at alpha = 0: its terms with no alpha."""
        return self._alpha_terms(None)

    def direction(self, i: int) -> Jet:
        """d(body)/d(alpha_i) at alpha = 0: its terms whose alpha exponents
        are exactly those of alpha_i, with their coefficients."""
        return self._alpha_terms(i)

    def _alpha_terms(self, i) -> Jet:
        """The body's terms whose alpha exponents are those of alpha_i (of
        no alpha when i is None), as a jet in x and lambda."""
        body = self.body
        alpha = [0] * (len(body.variables) - 2)
        if i is not None:
            alpha[i] = 1
        alpha = tuple(alpha)
        return Jet({m[:2]: c for m, c in body.terms.items() if m[2:] == alpha},
                   body.variables[:2], body.degree, _clean=False)

    def __str__(self) -> str:
        return str(self.body)


def make_unfolding(base: Jet, directions: List[Jet]) -> UnfoldingGerm:
    p = len(directions)
    params = tuple("a%d" % (i + 1) for i in range(p))
    variables = base.variables[:2] + params
    terms = {}
    for m, c in base.terms.items():
        terms[m + (0,) * p] = c
    for i, d in enumerate(directions):
        for m, c in d.terms.items():
            key = m + tuple(1 if j == i else 0 for j in range(p))
            terms[key] = terms.get(key, Fraction(0)) + c
    return UnfoldingGerm(Jet(terms, variables, None), params)


def universal_unfolding(expand: Callable[[int], Jet],
                        k: Optional[int] = None,
                        normalform: bool = False,
                        want_list: bool = False):
    """A universal unfolding of g (or of its normal form): one parameter per
    monomial in a complement of T.  The list option enumerates the monomial
    complements of T, at most LIST_CAP of them; a longer list is cut there
    with a warning.  The degree is the working degree
    (`intrinsic.working_degree`); a zero jet there raises ZeroGermError.
    T grows from the truncation search's span cut to k, when there is one
    and the germ is not replaced by its normal form."""
    mrt = None
    if normalform:
        nf = normal_form(expand, k)
        base, k, warnings = nf.germ, nf.germ.degree, nf.warnings
    else:
        k, span, warnings = working_degree(expand, k)
        base = require_nonzero(expand(k))
        if span is not None:
            mrt = span.truncate(k)
    space = _t_span(base, mrt)
    perp = _complement(space)
    monos = [Jet.monomial(m, base.variables, 1, k) for m in perp]
    main = make_unfolding(base, monos)
    if not want_list:
        return main, warnings
    # enumerate alternative monomial complements
    p = len(perp)
    in_t = space.monomials()
    candidates = [m for m in monomials_upto(2, k) if m not in in_t]
    results = []
    for combo in combinations(candidates, p):
        trial = space.copy()
        ok = all(trial.add(Jet.monomial(m, base.variables, 1, k))
                 for m in combo)
        if ok:
            if len(results) == LIST_CAP:
                warnings.append("only the first %d monomial complements of T "
                                "are listed" % LIST_CAP)
                break
            results.append(make_unfolding(
                base, [Jet.monomial(m, base.variables, 1, k) for m in combo]))
    return results, warnings


def check_universal(G: UnfoldingGerm,
                    k: Optional[int] = None) -> Tuple[str, List[str]]:
    """(\"Yes\" or \"No\", warnings): \"Yes\" when G is a universal
    unfolding of its own base germ, answered at the base germ's working
    degree (`intrinsic.working_degree`), a cut of x and lambda degree that
    leaves the parameters alone.  T grows from the truncation search's span
    cut to k, when there is one."""
    base = G.base()
    k, span, warnings = working_degree(base.truncate, k)
    space = _t_span(base.truncate(k),
                    None if span is None else span.truncate(k))
    p = len(G.params)
    if p != len(monomials_upto(2, k)) - space.rank:
        return "No", warnings
    added = sum(space.add(G.direction(i)) for i in range(p))
    return ("Yes" if added == p else "No"), warnings


# -------------------------------------------------------------- recognition


def _derivative_symbol(name: str, m, param: Optional[int] = None) -> str:
    subs = ["x"] * m[0] + ["lambda"] * m[1]
    if param is not None:
        subs.append("alpha%d" % param)
    if not subs:
        return "%s(0)" % name
    return "%s_{%s}(0)" % (name, ",".join(subs))


@dataclass
class RecognitionConditions:
    zero: List[tuple]     # monomials whose derivative must vanish
    nonzero: List[tuple]  # monomials whose derivative must not vanish

    def render(self) -> str:
        zs = ", ".join("%s=0" % _derivative_symbol("f", m) for m in self.zero)
        ns = ", ".join("%s!=0" % _derivative_symbol("f", m)
                       for m in self.nonzero)
        return "zero condition=[%s], nonzero condition=[%s]" % (zs, ns)


def recognition_normal_form(g: Jet) -> RecognitionConditions:
    S = smallest_intrinsic(g)
    zero = sorted(s_perp(g), key=lambda m: (mdeg(m), m[1]))
    nonzero = sorted(S.generators(), key=lambda m: (mdeg(m), m[1]))
    return RecognitionConditions(zero, nonzero)


@dataclass
class RecognitionMatrix:
    columns: List[tuple]          # derivative monomials (a, b)
    germ_rows: List[Tuple[str, tuple]]   # (label, multiplier monomial)
    entries: List[List[Optional[tuple]]]
    # each entry: None (structural zero) or (coeff, name, monomial, param)

    def render(self) -> List[List[str]]:
        out = []
        for row in self.entries:
            line = []
            for e in row:
                if e is None:
                    line.append("0")
                else:
                    coeff, name, m, param = e
                    s = _derivative_symbol(name, m, param)
                    if coeff != 1:
                        s = "%s*%s" % (coeff, s)
                    line.append(s)
            out.append(line)
        return out


def recognition_unfolding(g: Jet, p: int,
                          mrt: Optional[RowSpace] = None) -> RecognitionMatrix:
    """The universal-unfolding recognition matrix at g's degree: columns are
    derivative functionals dual to a monomial basis of E/Itr(T(g)), of
    dimension n; rows are the first n - p of T(g)'s generators that are
    independent modulo Itr(T), followed by the p unfolding directions.
    Those generators span T/Itr(T), of dimension n - codim T, so any p with
    codim T <= p <= n has its rows; another p raises
    ParameterCountError.  T grows from `mrt` when the caller holds M*RT(g)
    (see `_tangent_spans`)."""
    t = _t_span(g, mrt)
    k = g.degree
    monos = monomials_upto(2, k)
    codim = len(monos) - t.rank
    itr = intrinsic_from_members(t.monomials(), k)

    def column_key(m):
        # evaluation first, then pure lambda derivatives, then pure x,
        # then mixed ones
        a, b = m
        if a == 0 and b == 0:
            group = 0
        elif a == 0:
            group = 1
        elif b == 0:
            group = 2
        else:
            group = 3
        return (group, mdeg(m), a)

    columns = sorted((m for m in monos if not itr.contains_monomial(m)),
                     key=column_key)
    n = len(columns)
    if not codim <= p <= n:
        raise ParameterCountError(codim, n, p)
    # zero conditions of the germ: derivatives indexed by S-perp monomials
    zero_set = set(s_perp(g))
    # T's generators m*g_x, lambda^j*g_lambda and m*g: g_x, g_lambda and g,
    # the g_x and g_lambda multiples of degree 1-2, then 3 to k, then m*g;
    # each label names its jet and that jet's derivative monomial of g
    bases = {"g_x": (g.diff(g.variables[0]), (1, 0)),
             "g_lambda": (g.diff(g.variables[1]), (0, 1)), "g": (g, (0, 0))}
    candidates = [("g_x", (0, 0)), ("g_lambda", (0, 0)), ("g", (0, 0))]
    for low, high in ((1, 2), (3, k)):
        candidates += [("g_x", m) for m in monos if low <= mdeg(m) <= high]
        candidates += [("g_lambda", (0, j)) for j in range(low, high + 1)]
    candidates += [("g", m) for m in monos[1:]]
    covered = _ideal_space(itr, g.variables, k)
    germ_rows = list(islice((c for c in candidates
                             if covered.add(bases[c[0]][0].term_mul(c[1]))),
                            n - p))
    entries = []
    for label, mult in germ_rows:
        base_m = bases[label][1]
        row = []
        for col in columns:
            # functional d^col applied to mult * (d^base_m g): nonzero only
            # when col >= mult componentwise
            if col[0] < mult[0] or col[1] < mult[1]:
                row.append(None)
                continue
            eff = (col[0] - mult[0] + base_m[0], col[1] - mult[1] + base_m[1])
            coeff = Fraction(1)
            for total, used in ((col[0], mult[0]), (col[1], mult[1])):
                for i in range(used):
                    coeff *= total - i
            if eff in zero_set:
                row.append(None)  # vanishes by the recognition conditions
            else:
                row.append((coeff, "g", eff, None))
        entries.append(row)
    for i in range(1, p + 1):
        entries.append([(Fraction(1), "G", col, i) for col in columns])
    return RecognitionMatrix(columns, germ_rows, entries)
