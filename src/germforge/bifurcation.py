"""Transition sets, boundary non-persistence, persistent-diagram region
catalogs, zero-set tracing, and SVG/CSV emission for unfolded germs
G(x, lambda, alpha)."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from itertools import product
from math import copysign, inf, isfinite, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .jets import Jet, compose_all
from .localalg import coprime, eliminate, fresh_name, odd_part
from .singularity import UnfoldingGerm

TOL = 1e-9

# `_line_signs` evaluates a line of degree >= 2 at the first of each block
# of _BLOCK grid points, and at the others only where that value does not
# certify the block's sign
_BLOCK = 8
_SAFETY = 1.0 + 2.0 ** -20  # covers the rounding of `_line_signs`' bound

COLORS = {
    # interior transition set (the figure convention)
    "B": "#0000FF",
    "H": "#008000",
    "D": "#FF0000",
    # boundary families reuse the interior colors where they coincide and a
    # documented palette of warm shades otherwise
    "L_B": "#0000FF",
    "L_H": "#008000",
    "G_D": "#FF0000",
    "L_C": "#CC2200",
    "L_SH": "#E05500",
    "L_SV": "#B22222",
    "L_T": "#FF6347",
    "G_1": "#8B0000",
    "G_2": "#FF4500",
}


@dataclass
class SideCondition:
    poly: Jet
    relation: str  # ">=" or "<="

    def holds(self, point: dict) -> bool:
        v = self.poly.evaluate(point)
        return v >= 0 if self.relation == ">=" else v <= 0

    def __str__(self) -> str:
        return "%s %s 0" % (self.poly, self.relation)


@dataclass
class Component:
    """One named transition-set component: a union of conjunctive polynomial
    systems in the unfolding parameters, with optional side conditions."""

    name: str
    systems: List[List[Jet]] = field(default_factory=list)
    side_conditions: List[SideCondition] = field(default_factory=list)
    note: Optional[str] = None  # "dense" when the projection fills space

    @property
    def is_empty(self) -> bool:
        return not self.systems and self.note != "dense"

    def polys(self) -> List[Jet]:
        return [p for system in self.systems for p in system]

    def __str__(self) -> str:
        if self.is_empty:
            return "%s: empty" % self.name
        if self.note == "dense":
            return "%s: whole parameter space" % self.name
        parts = []
        for system in self.systems:
            conj = ", ".join("%s = 0" % p for p in system)
            parts.append("{%s}" % conj)
        txt = "%s: %s" % (self.name, " union ".join(parts))
        if self.side_conditions:
            txt += " with " + ", ".join(str(s) for s in self.side_conditions)
        return txt


@dataclass
class TransitionSet:
    components: Dict[str, Component]
    params: Tuple[str, ...]
    warnings: List[str] = field(default_factory=list)

    def all_polys(self) -> List[Jet]:
        return [p for comp in self.components.values() for p in comp.polys()]

    def __str__(self) -> str:
        return "\n".join(str(self.components[n]) for n in self.components)


def _component_from_elimination(name: str, polys: List[Jet]) -> Component:
    """The component an `eliminate` result cuts out: [] is dense and [1]
    is empty."""
    if not polys:
        return Component(name, note="dense")
    if len(polys) == 1 and polys[0].total_degree() == 0:
        return Component(name)  # empty variety
    return Component(name, systems=[polys])


def _family(name: str, systems, drop) -> Component:
    """The union of the components that `eliminate(system, drop)` cuts out
    for each system of the iterable `systems`, decoded as
    `_component_from_elimination` does.  It is dense as soon as one is, and
    then the systems after it are not eliminated; a system with the same
    polynomials as one already kept is added once."""
    comp = Component(name)
    for system in systems:
        end = _component_from_elimination(name, eliminate(system, drop))
        if end.note == "dense":
            return end
        comp.systems += [s for s in end.systems
                         if set(s) not in map(set, comp.systems)]
    return comp


def truncate_xlam(body: Jet, k: int) -> Jet:
    """Truncate the state-variable degree (x and lambda slots) at k, leaving
    the parameter slots alone."""
    terms = {m: c for m, c in body.terms.items() if m[0] + m[1] <= k}
    return Jet(terms, body.variables, None)


# ----------------------------------------------------------- interior sets


def _double_limit_system(body: Jet):
    """The double-limit-point equations in s = x1 + x2 and w = (x1 - x2)^2.
    With x1,2 = (s +- d)/2 and h in {F, F_x}, both h(x1) + h(x2) and
    (h(x1) - h(x2))/d are even in d, so d^(2j) is rewritten as w^j."""
    variables = body.variables
    s, w, d = (fresh_name(n, variables) for n in ("s", "w", "d"))
    names = (s, w) + variables[1:]
    sd = (d, s) + variables[1:]
    half_s = Jet.variable(s, sd).scale(Fraction(1, 2))
    half_d = Jet.variable(d, sd).scale(Fraction(1, 2))
    eqs = []
    hs = (body, body.diff(variables[0]))
    for h1, h2 in zip(compose_all(hs, {variables[0]: half_s + half_d}),
                      compose_all(hs, {variables[0]: half_s - half_d})):
        # h1 - h2 is odd in d: shifting its exponents by one divides by d
        for e, shift in ((h1 + h2, 0), (h1 - h2, 1)):
            terms = {}
            for m, c in e.terms.items():
                k = m[0] - shift
                if k % 2:
                    raise ValueError("double-limit equation is not even in d")
                terms[(m[1], k // 2) + m[2:]] = c
            eqs.append(Jet(terms, names, None))
    return eqs, names


def _realness_conditions(in_w: List[Jet], d_polys: List[Jet], params):
    """D's realness side conditions from the basis elements of D's ideal in
    (w, params) that involve w.  A pair is real where w >= 0; an element
    a*w - b whose coefficient a is coprime to D's single polynomial gives
    w = b/a on D, hence the condition a*b >= 0, written with the
    odd-multiplicity factors of a*b's square-free decomposition as one
    sign-normalized polynomial.
    Returns [] when a*b >= 0 holds everywhere and None when no element
    gives a condition."""
    if len(d_polys) != 1:
        return None
    for p in in_w:
        if any(m[0] > 1 for m in p.terms):
            continue
        a = Jet({m[1:]: c for m, c in p.terms.items() if m[0]}, params)
        b = -Jet({m[1:]: c for m, c in p.terms.items() if not m[0]}, params)
        if not coprime(a, d_polys[0]):
            continue
        sign, norm = odd_part(a * b)
        if norm.total_degree() == 0:
            # a*b >= 0 everywhere, or nowhere off the zeros of the square
            return [] if sign > 0 else None
        return [SideCondition(norm, ">=" if sign > 0 else "<=")]
    return None


def transition_set(G: UnfoldingGerm) -> TransitionSet:
    """The interior transition set of G as given (the CLI cuts --degree
    before it is called): bifurcation B (fold meets G_lambda = 0),
    hysteresis H (degenerate fold), and double limit points D, each the
    closure of a projection computed by `eliminate`, B and H by `_family`.
    D is eliminated to (w, params) with w = (x1 - x2)^2 saturated away,
    which removes the diagonal x1 = x2 (where the double-limit equations
    describe H instead); the basis elements free of w generate D, and one
    linear in w gives its realness side condition."""
    body = G.body
    params = body.variables[2:]
    xn, ln = body.variables[0], body.variables[1]
    Fx = body.diff(xn)

    comps: Dict[str, Component] = {}
    comps["B"] = _family("B", [[body, Fx, body.diff(ln)]], [xn, ln])
    comps["H"] = _family("H", [[body, Fx, Fx.diff(xn)]], [xn, ln])

    eqs, names = _double_limit_system(body)
    basis = eliminate(eqs, [ln, names[0]],
                      saturate=Jet.variable(names[1], names))
    # lex order puts w before the parameters, so the elements free of w
    # generate D's ideal ([1] when D is empty, none when it is dense)
    d_polys = [p.restrict(params) for p in basis
               if all(m[0] == 0 for m in p.terms)]
    in_w = [p for p in basis if any(m[0] for m in p.terms)]
    comp_d = _component_from_elimination("D", d_polys)
    warnings: List[str] = []
    if in_w:
        conditions = _realness_conditions(in_w, d_polys, params)
        if conditions is None:
            warnings.append(
                "D: no exact realness condition was found; D may include "
                "points whose double limit points are complex")
        else:
            comp_d.side_conditions = conditions
    comps["D"] = comp_d
    return TransitionSet(comps, params, warnings)


# ----------------------------------------------------------- boundary sets


def _divided_difference(body: Jet, u: Fraction) -> Jet:
    """(body(x) - body(u))/(x - u) in the x slot (slot 0), exact: each term
    c*x^m*r contributes c*r*sum_{j<m} x^j*u^(m-1-j).  A body free of x gives
    the zero jet."""
    out = {}
    for m, c in body.terms.items():
        for j in range(m[0]):
            key = (j,) + m[1:]
            out[key] = out.get(key, Fraction(0)) + c * u ** (m[0] - 1 - j)
    return Jet(out, body.variables, None)


def nonpersistent_sets(F: UnfoldingGerm, U, L, vertical: bool = False,
                       horizontal: bool = False) -> TransitionSet:
    """Transition set of F as given (the CLI cuts --degree before it is
    called) restricted to the box U x L: the interior sources L_B, L_H,
    G_D (B, H, D of `transition_set`) plus the boundary sources, each a
    `_family` over the ends u of U or l of L of the projection of its
    system onto the parameters:

    - L_C:  F(u, l) = 0 at each corner (u, l), nothing eliminated;
    - L_SH: F(u, lam) = F_x(u, lam) = 0, lam eliminated;
    - L_T:  F(u, lam) = F_lam(u, lam) = 0, lam eliminated;
    - L_SV: F(x, l) = F_x(x, l) = 0, x eliminated;
    - G_1:  F(u, lam) = DD(x, lam) = F_x(x, lam) = 0, x and lam eliminated,
      where DD = (F(x, lam) - F(u, lam))/(x - u) is the exact divided
      difference; off x = u it vanishes with F(x, lam), at x = u it equals
      F_x(u, lam), so the zeros are those of F(u) = F = F_x = 0;
    - G_2:  F(u_lo, lam) = F(u_hi, lam) = 0, lam eliminated, one system.

    `vertical` keeps only the x-boundary families, `horizontal` only the
    lambda-boundary ones; interior components always remain."""
    body = F.body
    params = body.variables[2:]
    xn, ln = body.variables[0], body.variables[1]
    us = (Fraction(U[0]), Fraction(U[1]))
    ls = (Fraction(L[0]), Fraction(L[1]))
    fx = body.diff(xn)
    flam = body.diff(ln)

    def x_is(v):  # images that set x to v, into the ring of F(v, lam)
        return {xn: Jet.constant(v, body.variables[1:])}

    def lam_is(v):  # images that set lambda to v, into the ring of F(x, v)
        return {ln: Jet.constant(v, (xn,) + params)}

    want_x = not horizontal
    want_l = not vertical
    comps: Dict[str, Component] = {}
    if want_x and want_l:
        comps["L_C"] = _family("L_C", (
            [body.compose({xn: Jet.constant(u, params),
                           ln: Jet.constant(v, params)})]
            for u in us for v in ls), [])
    if want_x:
        comps["L_SH"] = _family("L_SH", (
            list(compose_all((body, fx), x_is(u))) for u in us), [ln])
        comps["L_T"] = _family("L_T", (
            list(compose_all((body, flam), x_is(u))) for u in us), [ln])
    if want_l:
        comps["L_SV"] = _family("L_SV", (
            list(compose_all((body, fx), lam_is(v))) for v in ls), [xn])
    if want_x:
        comps["G_1"] = _family("G_1", (
            [body.compose(x_is(u)).rename(body.variables),
             _divided_difference(body, u), fx] for u in us), [xn, ln])
        comps["G_2"] = _family(
            "G_2", [[body.compose(x_is(u)) for u in us]], [ln])

    interior = transition_set(F)
    for inner, outer in (("B", "L_B"), ("H", "L_H"), ("D", "G_D")):
        comps[outer] = replace(interior.components[inner], name=outer)
    return TransitionSet(comps, params, interior.warnings)


# ------------------------------------------------------ region classification


@dataclass
class RegionCatalog:
    representatives: List[Tuple[tuple, tuple, str]]  # (point, signs, tag)
    warnings: List[str] = field(default_factory=list)


def _check_size(name: str, n: int) -> None:
    """Refuse a grid or resolution below 1."""
    if n < 1:
        raise ValueError("%s must be at least 1, not %d" % (name, n))


def _grid_points(box, n):
    """An iterator over the n^p grid points of the box in grid order, the
    last axis fastest: point (i_1, ..., i_p) has coordinate
    lo + (hi - lo) * i / (n - 1) on each axis, or the axis midpoint when
    n == 1."""
    axes = []
    for lo, hi in box:
        lo, hi = Fraction(lo), Fraction(hi)
        axes.append([lo + (hi - lo) * i / (n - 1) for i in range(n)]
                    if n > 1 else [(lo + hi) / 2])
    return product(*axes)


def _flood_regions(ids, grid, p):
    """The region label of each flat index of the table `ids` of vector ids
    over a grid of `grid` points on each of p axes: the first flat index of
    its connected component of indices with one nonzero id, joined by steps
    of +-1 on one grid index, which are steps of +-grid^k in flat order
    (k = 0 on the last axis).  A step never crosses an axis end: +grid^k off
    the axis's last index would land on the next row's first, and -grid^k
    off its first index on the table's far end.  An index of id 0 lies on
    the transition set and is labelled -1."""
    strides = [grid ** k for k in range(p)]
    region = array("q", [-1]) * len(ids)
    stack = array("q")
    for start, vec in enumerate(ids):
        if vec == 0 or region[start] >= 0:
            continue
        region[start] = start
        stack.append(start)
        while stack:
            cur = stack.pop()
            for step in strides:
                i = cur // step % grid
                for nxt, inside in ((cur - step, i > 0),
                                    (cur + step, i < grid - 1)):
                    if inside and region[nxt] < 0 and ids[nxt] == vec:
                        region[nxt] = start
                        stack.append(nxt)
    return region


def classify_regions(sigma: TransitionSet, box=None, grid: int = 41,
                     granularity: str = "complete") -> RegionCatalog:
    """Pick persistent representatives off the transition set.  Grid points
    are numbered by their flat index in grid order (last parameter
    fastest).  The sign table holds, for each flat index, the id of the
    vector of signs of every polynomial there, counted from 1 in order of
    first appearance, or 0 where a polynomial is exactly 0.  One pass over
    it in grid order keeps the first index of each key: the product of the
    signs (short), the sign vector (intermediate), or the region of
    same-sign indices connected by steps of one on one grid index
    (complete).  `box` has one (lo, hi) pair per parameter."""
    if granularity not in ("short", "intermediate", "complete"):
        raise ValueError("unknown granularity %r" % granularity)
    _check_size("grid", grid)
    params = sigma.params
    if box is None:
        box = [(-1, 1)] * len(params)
    box = [(Fraction(lo), Fraction(hi)) for lo, hi in box]
    if len(box) != len(params):
        raise ValueError("box has %d (lo, hi) pairs for %d parameters"
                         % (len(box), len(params)))
    polys = sigma.all_polys()
    if not polys:
        center = tuple((lo + hi) / 2 for lo, hi in box)
        return RegionCatalog([(center, (), granularity)])

    # a polynomial that components share is evaluated once; each sign
    # vector is spread back to one entry per component polynomial at the end
    distinct = list(dict.fromkeys(polys))
    # two bytes per point while the 2^len(distinct) possible ids fit in them
    ids = array("H" if len(distinct) < 16 else "q")
    vecs = {}
    for pt in _grid_points(box, grid):
        env = dict(zip(params, pt))
        vec = []
        for poly in distinct:
            v = poly.evaluate(env)
            if v == 0:
                ids.append(0)
                break
            vec.append(1 if v > 0 else -1)
        else:
            ids.append(vecs.setdefault(tuple(vec), len(vecs) + 1))
    where = [distinct.index(poly) for poly in polys]
    vectors = [()] + [tuple(vec[i] for i in where) for vec in vecs]
    warnings = ["grid may be too coarse: %s keeps one sign on the grid" % poly
                for i, poly in enumerate(distinct)
                if len({vec[i] for vec in vecs}) == 1]
    if not vecs:
        warnings.append("grid may be too coarse: no grid point lies off the "
                        "transition set")

    if granularity == "complete":
        key = _flood_regions(ids, grid, len(params))
    elif granularity == "intermediate":
        key = ids
    else:
        key = array("b", (prod(vectors[i]) for i in ids))
    firsts = {}
    for f, pt in enumerate(_grid_points(box, grid)):
        if ids[f]:
            firsts.setdefault(key[f], (pt, vectors[ids[f]], granularity))
    return RegionCatalog(sorted(firsts.values()), warnings)


# ------------------------------------------------------------ diagrams


@dataclass
class Diagram:
    curves: List[List[Tuple[float, float]]]  # polylines of (lambda, x)
    window: Tuple[Tuple[float, float], Tuple[float, float]]


def _restriction(lists):
    """The function t -> [sum(c * t ** k for k, c in terms) for terms in
    lists]: a polynomial's coefficients, lowest degree first, on the grid
    line where its other variable is t.  A list whose powers k are all 0 is
    summed once, here, by that same expression at t = 1.0: t ** 0 is 1.0
    at every float t, so the sum is the same float at every t.  Only the
    other lists are summed at each t."""
    sums = [sum(c * 1.0 ** k for k, c in terms) for terms in lists]
    moving = [(i, terms) for i, terms in enumerate(lists)
              if any(k for k, _c in terms)]

    def at(t):
        coeffs = sums.copy()
        for i, terms in moving:
            coeffs[i] = sum(c * t ** k for k, c in terms)
        return coeffs

    return at


class _PlanePoly:
    """A polynomial in floats on the plane of two of its variables, v
    (vertical) and h (horizontal), the others fixed; called as g(v, h).
    On a line h = const or v = const it is a polynomial in one variable,
    whose coefficients `column(h)` and `line(v)` return, lowest degree
    first (`_restriction`)."""

    def __init__(self, poly: Jet, v: str, h: str, fixed: dict):
        iv, ih = poly.variables.index(v), poly.variables.index(h)
        merged = {}
        for m, c in poly.terms.items():
            scale = float(c)
            for name, e in zip(poly.variables, m):
                if e and name != v and name != h:
                    scale *= float(Fraction(fixed[name])) ** e
            key = (m[iv], m[ih])
            merged[key] = merged.get(key, 0.0) + scale
        terms = [(i, j, c) for (i, j), c in merged.items() if c != 0.0]
        vdeg = max((i for i, _j in merged), default=0)
        hdeg = max((j for _i, j in merged), default=0)
        # cols[i]: the (j, c) terms of the coefficient of v^i, a poly in h;
        # lines[j]: the (i, c) terms of the coefficient of h^j, a poly in v
        self.cols = [[(j, c) for i2, j, c in terms if i2 == i]
                     for i in range(vdeg + 1)]
        self.lines = [[(i, c) for i, j2, c in terms if j2 == j]
                      for j in range(hdeg + 1)]
        self.column = _restriction(self.cols)  # coefficients in v at h
        self.line = _restriction(self.lines)  # coefficients in h at v

    def __call__(self, v, h):
        """g(v, h), by Horner's rule on the column at h."""
        coeffs = self.column(h)
        val = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            val = val * v + c
        return val


def _crossing(coeffs, t0, t1, positive):
    """The crossing of the polynomial with coefficients coeffs (lowest
    degree first) on the grid edge [t0, t1], where the grid's sign is
    `positive` (g > 0) at t0 and the other one at t1.

    Both ends are evaluated once.  If either gives 0.0 or a sign other
    than the grid's (the grid may have read that vertex along the other
    axis, and where g is exactly 0 the two evaluations can round apart),
    the ends keep the grid's signs and each step halves the bracket.
    Otherwise a linear edge's crossing is -c0/c1 if that lies strictly
    inside the edge, else each step halves the bracket; any other edge
    takes regula falsi steps, but a step after one that failed to halve
    the bracket halves it (a bisection guard, as in Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4).  The first step's
    point where |value| <= TOL is returned, else after 80 steps the last
    bracket's midpoint.  Every value is Horner's rule, run inline on the
    coefficients below the top one, highest degree first."""
    top, rest = coeffs[-1], coeffs[-2::-1]
    f0 = f1 = top
    for c in rest:
        f0, f1 = f0 * t0 + c, f1 * t1 + c
    agree = f0 != 0.0 and f1 != 0.0 and (f0 > 0) == positive != (f1 > 0)
    if not agree:
        f0 = 1.0 if positive else -1.0
    elif len(coeffs) == 2:
        t = -coeffs[0] / coeffs[1]
        if t0 < t < t1:
            return t
    secant = falsi = agree and len(coeffs) > 2
    for _ in range(80):
        width = t1 - t0
        t = (t0 + t1) / 2.0
        if falsi:
            cut = t0 - f0 * width / (f1 - f0)
            if t0 < cut < t1:
                t = cut
        ft = top
        for c in rest:
            ft = ft * t + c
        if abs(ft) <= TOL:
            return t
        if (ft > 0) == (f0 > 0):
            t0, f0 = t, ft
        else:
            t1, f1 = t, ft
        falsi = secant and t1 - t0 <= width / 2.0
    return (t0 + t1) / 2.0


def _line_signs(coeffs, points):
    """The signs of the polynomial with coefficients coeffs (lowest degree
    first) at the ascending floats points, one byte per point (1 where it
    is > 0), and the indices of the points where it is exactly the float
    0.0.  The values are those of Horner's rule at each point.  Of degree
    <= 1 with finite coefficients, that value c1 * t + c0 is monotone in t,
    because rounding to nearest is monotone: rising (or constant) when
    c1 >= 0, falling when c1 < 0.  Its positive points are then one end of
    the line and its zeros one run [lo, hi) before them (rising) or after
    them (falling).  A plain binary search places the float root -c0/c1
    among the points (an infinity where the quotient overflows, and the
    end of the line past which a constant line would change sign), and
    that same expression, evaluated at the four points around it, gives
    lo and hi, as long as the value just before lo and the one at hi are
    among them or lie past the line's ends.  Otherwise (a run of zeros
    longer than that, or a root rounded far off) two binary searches on
    the expression over the whole line find them.

    Any other line, of degree d >= 2 (or with a non-finite coefficient),
    is cut into blocks of _BLOCK points, and evaluated by the same Horner
    expression at the first point a of each block [a, b] and at every
    point of a block that a does not certify.  With p the polynomial of
    the float coefficients c_i, T = max(1, |t| over the line), u = 2^-53
    and g = 2du / (1 - 2du), Horner's float value fl p(t) differs from
    p(t) by at most g * S with S = sum |c_i| T^i wherever |t| <= T
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002, section 5.1, eq. 5.3), and p moves by at most (b - a) * S' on
    [a, b], S' = sum i |c_i| T^(i - 1).  So a block is certified when

        |fl p(a)| > 2 g S + (b - a) S' + E:

    then |p(t)| > g S at every t in [a, b], so fl p(t) is nonzero there
    and has the sign of p(t), which is p(a)'s (p has no root in [a, b])
    and fl p(a)'s, and the block's points take that sign without being
    evaluated.  E = 4 (d + 1) T^d 2^-1074 covers the absolute errors of
    underflow, which the relative bound leaves out: in gradual underflow a
    product can lose up to 2^-1075, which Horner's rule carries at most
    T^(d - 1) further, and the bound's own products can lose it too.  The
    whole bound is multiplied by 1 + 2^-20, far above its own rounding
    error of about (2d + 10) u.  T is at least 1 so that no power of it
    underflows, and so that S bounds every intermediate value of Horner's
    rule on the line: when 2 S + S' is not finite (a non-finite
    coefficient, or a bound that overflows) no block is certified, and
    nothing overflows in a certified block.  Nor is a block of a line
    shorter than 4 blocks, or whose first value is NaN.
    The signs and zeros are those of Horner's rule at every point, at
    about one evaluation in _BLOCK away from the line's roots."""
    n = len(points)
    if len(coeffs) <= 2 and all(map(isfinite, coeffs)):
        c0, c1 = coeffs[0], coeffs[1] if len(coeffs) == 2 else 0.0
        falling = c1 < 0

        def key(t):
            return -(c1 * t + c0) if falling else c1 * t + c0

        root = -c0 / c1 if c1 else copysign(inf, -c0)
        a = max(bisect_left(points, root) - 2, 0)
        near = [key(t) for t in points[a:a + 4]]
        lo, hi = a + bisect_left(near, 0.0), a + bisect_right(near, 0.0)
        if lo == a > 0 or hi == a + len(near) < n:
            lo = bisect_left(points, 0.0, key=key)
            hi = bisect_right(points, 0.0, lo, key=key)
        signs = (b"\1" * lo + bytes(n - lo) if falling
                 else bytes(hi) + b"\1" * (n - hi))
        return signs, range(lo, hi)
    top, rest = coeffs[-1], coeffs[-2::-1]

    def horner(ts):
        vals = [top] * len(ts)
        for c in rest:
            vals = [a * t + c for a, t in zip(vals, ts)]
        return vals

    firsts = points[::_BLOCK]
    heads = horner(firsts)
    sure = [False] * len(heads)
    if n >= 4 * _BLOCK:
        d = len(coeffs) - 1
        powers, t_max = [1.0], max(1.0, -points[0], points[-1])
        for _ in range(d):  # T^i, each by one more product
            powers.append(powers[-1] * t_max)
        size = sum(abs(c) * p for c, p in zip(coeffs, powers))
        slope = _SAFETY * sum(i * abs(c) * p for i, c, p
                              in zip(range(1, d + 1), coeffs[1:], powers))
        u, tiny = 2.0 ** -53, 2.0 ** -1074  # unit roundoff, least float
        g = 2 * d * u / (1 - 2 * d * u)
        err = _SAFETY * (2 * g * size + 4 * (d + 1) * powers[-1] * tiny)
        if isfinite(2 * size + slope):
            lasts = points[_BLOCK - 1::_BLOCK] + points[-1:]
            sure = [abs(f) > err + (b - a) * slope
                    for f, a, b in zip(heads, firsts, lasts)]
    block = (bytes(_BLOCK), b"\1" * _BLOCK)  # a certified block's signs
    signs = bytearray(b"".join([block[f > 0] for f in heads]))
    del signs[n:]
    runs = []  # [lo, hi) of each run of blocks not certified
    for lo, ok in zip(range(0, n, _BLOCK), sure):
        if ok:
            continue
        if runs and runs[-1][1] == lo:
            runs[-1][1] = min(lo + _BLOCK, n)
        else:
            runs.append([lo, min(lo + _BLOCK, n)])
    zeros = []
    for lo, hi in runs:
        vals = horner(points[lo:hi])
        signs[lo:hi] = bytes(map((0.0).__lt__, vals))
        if 0.0 in vals:
            zeros += [lo + i for i, val in enumerate(vals) if val == 0.0]
    return bytes(signs), zeros


def plot_window(box):
    """The first two (lo, hi) pairs of box as floats, refused unless each
    axis has finite bounds in the float range with lo < hi; the one window
    check of diagrams, slices and `persistent --window`."""
    try:
        window = tuple((float(Fraction(lo)), float(Fraction(hi)))
                       for lo, hi in box[:2])
        bounded = all(lo < hi and isfinite(hi - lo) for lo, hi in window)
    except (OverflowError, ValueError):  # an infinite or NaN bound
        bounded = False
    if not bounded:
        raise ValueError("a plot window needs finite bounds in the float "
                         "range with lo < hi on each axis")
    return window


def _march(g, window, n):
    """Marching-squares polylines of {g = 0} on an n x n cell grid over
    window = ((hlo, hhi), (vlo, vhi)) as `plot_window` returns it, as lists
    of (h, v) points.

    g is read along the axis in which it has the lower degree: row by row
    (v fixed, a polynomial in h) when its degree in h is lower, else (a
    tie too) column by column.  Each grid line keeps only its signs, one
    byte per vertex (1 where g > 0), and the vertices where g is exactly
    the float 0.0 (`_line_signs`): a line of degree <= 1 takes them from
    its float root's place on the grid, since its float values are
    monotone along the ascending grid, and any other line from Horner's
    rule at the first vertex of each block of _BLOCK, and at each vertex
    of a block whose sign that value does not certify (by a bound on
    Horner's rounding error).  A zero vertex counts as negative, and is itself
    the crossing on its edges to positive vertices, so the curve through
    it is kept.  With two adjacent lines' bytes read as integers a and b,
    the cells between them whose corners differ in sign are the nonzero
    bytes of (a ^ a >> 8) | (b ^ b >> 8) | (a ^ b); no other cell is
    visited, and these are visited column by column.  A cell reads its
    corner signs from the bytes of its two lines, and each crossing from
    one of two edge tables, `along` and `across` a line, keyed by the
    edge's lower vertex and filled on the edge's first use (`fill`).
    Crossings other than zero vertices are rooted there by `_crossing`,
    from the grid's signs at the edge's ends, on the edge's restriction of
    g, a polynomial in the one coordinate that moves: on a vertical edge
    the coefficients in v of its grid column, on a horizontal edge those in
    h of its grid line, each computed once.  So every crossing lies exactly
    on its grid line.  A saddle cell is split by the sign of g at its
    centre.  Segments meet at identical endpoints and are chained through
    a dict keyed by endpoint."""
    _check_size("resolution", n)
    (hlo, hhi), (vlo, vhi) = window
    dh, dv = (hhi - hlo) / n, (vhi - vlo) / n
    hs = [hlo + j * dh for j in range(n + 1)]
    vs = [vlo + i * dv for i in range(n + 1)]
    by_rows = len(g.lines) < len(g.cols)

    @cache
    def row(i):
        return g.line(vs[i])

    @cache
    def column(j):
        return g.column(hs[j])

    # signs[k]: the signs on grid line k (row k by h, or column k by v), at
    # the points ts; the lines themselves lie at ss, and a crossing across
    # two lines is rooted on the restriction `cross` of g at its point of ts
    coeffs, cross, ss, ts = ((row, column, vs, hs) if by_rows
                             else (column, row, hs, vs))

    def xy(s, t):
        return (t, s) if by_rows else (s, t)

    signs, zeros = [], set()
    for k in range(n + 1):
        line, line_zeros = _line_signs(coeffs(k), ts)
        signs.append(line)
        zeros.update((k, m) for m in line_zeros)

    # byte m of a ^ a >> 8 is 1 where line a changes sign between vertices
    # m and m + 1, and of a ^ b where the lines differ at m; the mask drops
    # byte n, past the last cell
    cells, mask = [], (1 << 8 * n) - 1
    b = int.from_bytes(signs[0], "little")
    for k in range(n):
        a, b = b, int.from_bytes(signs[k + 1], "little")
        changes = ((a ^ a >> 8) | (b ^ b >> 8) | (a ^ b)) & mask
        if changes:
            flags = changes.to_bytes(n, "little")
            m = flags.find(1)
            while m >= 0:
                cells.append((k, m))
                m = flags.find(1, m + 1)
    if by_rows:  # column by column: m = j, then k = i
        cells.sort(key=lambda cell: cell[1])

    along, across = {}, {}  # crossings keyed by their edge's lower vertex

    def fill(table, k, m):
        """The crossing on the edge from vertex m of line k to vertex m + 1
        (table along) or to vertex m of line k + 1 (table across)."""
        k1, m1 = (k, m + 1) if table is along else (k + 1, m)
        if (k, m) in zeros:
            pt = xy(ss[k], ts[m])
        elif (k1, m1) in zeros:
            pt = xy(ss[k1], ts[m1])
        elif table is along:
            pt = xy(ss[k], _crossing(coeffs(k), ts[m], ts[m1],
                                     bool(signs[k][m])))
        else:
            pt = xy(_crossing(cross(m), ss[k], ss[k1], bool(signs[k][m])),
                    ts[m])
        table[k, m] = pt
        return pt

    segments = []
    for k, m in cells:
        # corners (k, m), (k, m + 1), (k + 1, m + 1), (k + 1, m) in turn,
        # which is the (h, v) order (j, i), (j + 1, i), (j + 1, i + 1),
        # (j, i + 1) by rows and its reverse by columns, so pts is reversed
        a, b = signs[k], signs[k + 1]
        s0, s1, s2, s3 = a[m], a[m + 1], b[m + 1], b[m]
        pts = []
        if s0 != s1:
            pts.append(along.get((k, m)) or fill(along, k, m))
        if s1 != s2:
            pts.append(across.get((k, m + 1)) or fill(across, k, m + 1))
        if s2 != s3:
            pts.append(along.get((k + 1, m)) or fill(along, k + 1, m))
        if s3 != s0:
            pts.append(across.get((k, m)) or fill(across, k, m))
        if not by_rows:
            pts.reverse()
        if len(pts) == 4:
            # saddle: the curve cuts off corners 1 and 3 when the centre
            # has corner 0's sign, else corners 0 and 2
            h, v = xy((ss[k] + ss[k + 1]) / 2, (ts[m] + ts[m + 1]) / 2)
            if (g(v, h) > 0) != s0:
                pts.append(pts.pop(0))
        if pts[0] != pts[1]:
            segments.append(pts[:2])
        if len(pts) == 4 and pts[2] != pts[3]:
            segments.append(pts[2:])

    at = {}
    for idx, (a, b) in enumerate(segments):
        at.setdefault(a, []).append(idx)
        at.setdefault(b, []).append(idx)
    used = [False] * len(segments)

    def walk(pt):
        path = []
        while True:
            nxt = next((idx for idx in at[pt] if not used[idx]), None)
            if nxt is None:
                return path
            used[nxt] = True
            a, b = segments[nxt]
            pt = b if a == pt else a
            path.append(pt)

    curves = []
    for idx, (a, b) in enumerate(segments):
        if not used[idx]:
            used[idx] = True
            forward = walk(b)
            backward = walk(a)
            curves.append(backward[::-1] + [a, b] + forward)
    return curves


def bifurcation_diagram(G: UnfoldingGerm, alpha: Sequence,
                        window=((-1.0, 1.0), (-1.0, 1.0)),
                        resolution: int = 400) -> Diagram:
    """Marching-squares trace of {G(x, lambda, alpha) = 0} in the
    (lambda, x) window, each crossing rooted on its grid edge
    (`_crossing`)."""
    window = plot_window(window)
    g = _PlanePoly(G.body, G.body.variables[0], G.body.variables[1],
                   dict(zip(G.params, alpha)))
    return Diagram(_march(g, window, resolution), window)


# -------------------------------------------------------------- rendering


_SVG_SIZE = 480


def _write_plot(path: str, window, header: str, curves,
                row=lambda point: point) -> List[str]:
    """Write the (label, color, polyline) curves over window = ((hlo, hhi),
    (vlo, vhi)) as an SVG with the axes through the origin, and one CSV line
    label,row(vertex) per polyline vertex under `header`.  The files are
    path's base (without .svg) with .svg and .csv; returns both paths."""
    (hlo, hhi), (vlo, vhi) = window
    width, height = hhi - hlo, vhi - vlo
    svg = ['<?xml version="1.0" encoding="UTF-8"?>\n'
           '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
           'viewBox="0 0 %d %d">\n' % ((_SVG_SIZE,) * 4)]
    if hlo < 0 < hhi:
        x0 = _SVG_SIZE * (0 - hlo) / width
        svg.append('<line x1="%.2f" y1="0" x2="%.2f" y2="%d" '
                   'stroke="#CCCCCC" stroke-width="1"/>\n'
                   % (x0, x0, _SVG_SIZE))
    if vlo < 0 < vhi:
        y0 = _SVG_SIZE * (1 - (0 - vlo) / height)
        svg.append('<line x1="0" y1="%.2f" x2="%d" y2="%.2f" '
                   'stroke="#CCCCCC" stroke-width="1"/>\n'
                   % (y0, _SVG_SIZE, y0))
    csv = [header + "\n"]
    fields = ",%.12g" * header.count(",") + "\n"  # the columns after label
    for label, color, curve in curves:
        svg.append('<polyline fill="none" stroke="%s" stroke-width="1.5" '
                   'points="%s"/>\n' % (color, " ".join([
                       "%.3f,%.3f" % (_SVG_SIZE * (h - hlo) / width,
                                      _SVG_SIZE * (1 - (v - vlo) / height))
                       for h, v in curve])))
        csv += [label + fields % row(pt) for pt in curve]
    svg.append("</svg>\n")
    base = path[:-4] if path.endswith(".svg") else path
    paths = [base + ".svg", base + ".csv"]
    for target, lines in zip(paths, (svg, csv)):
        with open(target, "w") as fh:
            fh.write("".join(lines))
    return paths


def render_diagram(diagram: Diagram, path: str) -> List[str]:
    """Write the diagram as SVG plus a CSV of polyline vertices."""
    return _write_plot(path, diagram.window, "curve_id,lambda,x",
                       [(str(cid), "#000000", curve)
                        for cid, curve in enumerate(diagram.curves)])


def _cut_point(inside, outside, holds):
    """Bisect the segment from a point where holds is true to one where it
    is false, until the bracket is shorter than TOL on both axes or 80
    halvings; returns the bracket's end where holds is true."""
    (h0, v0), (h1, v1) = inside, outside
    for _ in range(80):
        if abs(h1 - h0) <= TOL and abs(v1 - v0) <= TOL:
            break
        mid = ((h0 + h1) / 2.0, (v0 + v1) / 2.0)
        if holds(mid):
            h0, v0 = mid
        else:
            h1, v1 = mid
    return (h0, v0)


def _pieces_where(curve, holds):
    """The pieces of the polyline curve on which holds is true: each vertex
    is decided by holds, and a segment whose ends are decided apart is cut
    at `_cut_point`.  Pieces of fewer than two distinct points are
    dropped."""
    pieces, piece = [], []
    prev, prev_in = None, False
    for pt in curve:
        inside = holds(pt)
        if prev is not None and inside != prev_in:
            cut = (_cut_point(prev, pt, holds) if prev_in
                   else _cut_point(pt, prev, holds))
            if cut not in piece[-1:]:
                piece.append(cut)
            if prev_in:
                if len(piece) > 1:
                    pieces.append(piece)
                piece = []
        if inside and pt not in piece[-1:]:
            piece.append(pt)
        prev, prev_in = pt, inside
    if len(piece) > 1:
        pieces.append(piece)
    return pieces


def render_transition_slice(sigma: TransitionSet, path: str,
                            free: Optional[Tuple[str, str]] = None,
                            fixed: Optional[dict] = None,
                            box=((-1, 1), (-1, 1)),
                            resolution: int = 200) -> List[str]:
    """SVG of a two-parameter slice of the transition set (components in
    their documented colors) plus a CSV of curve vertices.  A component
    with side conditions is drawn only where they all hold: its traced
    polylines are cut between vertices decided apart (`_pieces_where`)."""
    params = sigma.params
    fixed = dict(fixed or {})
    if free is None:
        free = tuple(n for n in params if n not in fixed)[:2]
    if len(free) != 2:
        raise ValueError("transition-set plots need exactly 2 free "
                         "parameters")
    for n in params:
        if n not in free and n not in fixed:
            fixed[n] = 0

    window = plot_window(box)
    curves = []
    for name, comp in sigma.components.items():
        color = COLORS.get(name, "#444444")

        def holds(point, conditions=comp.side_conditions):
            values = dict(fixed)
            values.update(zip(free, map(Fraction, point)))
            return all(c.holds(values) for c in conditions)

        for poly in comp.polys():
            g = _PlanePoly(poly, free[1], free[0], fixed)
            for curve in _march(g, window, resolution):
                pieces = (_pieces_where(curve, holds)
                          if comp.side_conditions else [curve])
                curves += [(name, color, piece) for piece in pieces]

    values = {n: float(v) for n, v in fixed.items()}

    def row(point):
        values.update(zip(free, point))
        return tuple(values[n] for n in params)

    return _write_plot(path, window, "component," + ",".join(params), curves,
                       row)
