"""Exact truncated polynomial (jet) arithmetic over Q.

A jet is a sparse multivariate polynomial with Fraction coefficients and an
explicit truncation degree: terms of total degree above the bound are absent.
A bound of None means "no truncation" (plain polynomial arithmetic).
Monomials are exponent tuples indexed by the jet's ordered variable list.

Invariant: a Jet's `terms` hold only nonzero `Fraction` coefficients, on
monomials of degree <= its bound.  The constructor establishes it for
arbitrary input; the arithmetic keeps it as it builds each result (a
coefficient that cancels is deleted, terms above the result's bound are
never stored), so results skip the cleaning pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm
from operator import add, sub
from typing import Optional


Monomial = tuple  # tuple of non-negative ints, one slot per variable


def mdeg(m: Monomial) -> int:
    return sum(m)


def mmul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mdivides(a: Monomial, b: Monomial) -> bool:
    """True when a | b."""
    return all(i <= j for i, j in zip(a, b))


def mdiv(a: Monomial, b: Monomial) -> Monomial:
    """a / b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mlcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(i, j) for i, j in zip(a, b))


def monomials_upto(nvars: int, k: int) -> list:
    """All exponent tuples of total degree <= k in descending local order
    (`LocalOrder`): degree ascending, then the earlier variables heavier
    first.  RowSpace pivots, the truncated colon ideal, `s_perp` and the
    recognition rows rely on this order.  The list is the caller's own to
    modify."""
    return list(_monomials_upto(nvars, k))


@lru_cache(maxsize=None)
def _monomials_upto(nvars, k):
    out = []

    def gen(slots, budget):
        if slots == 0:
            yield ()
            return
        for e in range(budget, -1, -1):
            for rest in gen(slots - 1, budget - e):
                yield (e,) + rest

    for d in range(k + 1):
        for e in gen(nvars, d):
            if sum(e) == d:
                out.append(e)
    return tuple(out)


class MonomialOrder:
    """Total order on monomials.  Bigger key means bigger monomial."""

    is_local = False

    def key(self, m: Monomial):
        raise NotImplementedError


class LocalOrder(MonomialOrder):
    """Anti-graded lexicographic: lower total degree is bigger; ties broken
    lexicographically by the variable list (earlier-variable-heavy wins)."""

    is_local = True

    def key(self, m: Monomial):
        return (-mdeg(m), m)


class GrLexOrder(MonomialOrder):
    """Graded lexicographic (global)."""

    def key(self, m: Monomial):
        return (mdeg(m), m)


class LexOrder(MonomialOrder):
    """Pure lexicographic (global)."""

    def key(self, m: Monomial):
        return m


class BlockOrder(MonomialOrder):
    """Eliminates the first `nblock` variables: monomials are compared on that
    prefix first, then on the remainder, both graded lex (global)."""

    def __init__(self, nblock: int):
        self.nblock = nblock

    def key(self, m: Monomial):
        head, rest = m[: self.nblock], m[self.nblock :]
        return ((mdeg(head), head), (mdeg(rest), rest))


class Jet:
    """Immutable truncated polynomial over Q."""

    __slots__ = ("terms", "variables", "degree")

    def __init__(self, terms, variables, degree=None, _clean=True):
        self.variables = tuple(variables)
        self.degree = degree
        if _clean:
            cleaned = {}
            for m, c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c == 0:
                    continue
                if degree is not None and mdeg(m) > degree:
                    continue
                cleaned[m] = c
            self.terms = cleaned
        else:
            self.terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables, degree=None):
        return cls({}, variables, degree, _clean=False)

    @classmethod
    def constant(cls, c, variables, degree=None):
        c = Fraction(c)
        n = len(tuple(variables))
        if c == 0:
            return cls.zero(variables, degree)
        return cls({(0,) * n: c}, variables, degree, _clean=False)

    @classmethod
    def variable(cls, name, variables, degree=None):
        variables = tuple(variables)
        i = variables.index(name)
        m = tuple(1 if j == i else 0 for j in range(len(variables)))
        if degree is not None and degree < 1:
            return cls.zero(variables, degree)
        return cls({m: Fraction(1)}, variables, degree, _clean=False)

    @classmethod
    def monomial(cls, m, variables, coeff=1, degree=None):
        return cls({tuple(m): Fraction(coeff)}, variables, degree)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def order(self) -> int:
        """Lowest total degree present; raises on the zero jet."""
        if not self.terms:
            raise ValueError("order of the zero jet")
        return min(mdeg(m) for m in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(mdeg(m) for m in self.terms)

    def leading_term(self, order: MonomialOrder):
        """(monomial, coefficient) maximal under `order`; raises on zero."""
        if not self.terms:
            raise ValueError("leading term of the zero jet")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        return self.leading_term(order)[0]

    # -- arithmetic ---------------------------------------------------------

    def _joint_degree(self, other) -> Optional[int]:
        if self.degree is None:
            return other.degree
        if other.degree is None:
            return self.degree
        return min(self.degree, other.degree)

    def _check_vars(self, other):
        if self.variables != other.variables:
            raise ValueError(
                "variable mismatch: %r vs %r" % (self.variables, other.variables)
            )

    def _within(self, deg) -> dict:
        """A copy of the terms of degree <= deg."""
        if deg is None or (self.degree is not None and self.degree <= deg):
            return dict(self.terms)
        return {m: c for m, c in self.terms.items() if mdeg(m) <= deg}

    def _sum(self, other, negate):
        self._check_vars(other)
        deg = self._joint_degree(other)
        terms = self._within(deg)
        for m, c in other._within(deg).items():
            v = terms.get(m)
            if v is None:
                terms[m] = -c if negate else c
            else:
                v = v - c if negate else v + c
                if v:
                    terms[m] = v
                else:
                    del terms[m]
        return Jet(terms, self.variables, deg, _clean=False)

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        return Jet({m: -c for m, c in self.terms.items()}, self.variables,
                   self.degree, _clean=False)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_vars(other)
        deg = self._joint_degree(other)
        left, lden = integer_terms(self.terms)
        right, rden = integer_terms(other.terms)
        return _from_numerators(_convolve(left, right, deg), lden * rden,
                                self.variables, deg)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return Jet.zero(self.variables, self.degree)
        return Jet({m: c * v for m, v in self.terms.items()}, self.variables,
                   self.degree, _clean=False)

    def term_mul(self, m: Monomial, c=1):
        """Multiply by a single term c * x^m."""
        one = c == 1
        if not one:
            c = Fraction(c)
            if not c:
                return Jet.zero(self.variables, self.degree)
        room = None if self.degree is None else self.degree - mdeg(m)
        terms = {}
        for m1, c1 in self.terms.items():
            if room is None or mdeg(m1) <= room:
                terms[tuple(map(add, m1, m))] = c1 if one else c1 * c
        return Jet(terms, self.variables, self.degree, _clean=False)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative jet power")
        result = Jet.constant(1, self.variables, self.degree)
        for _ in range(n):
            result = result * self
        return result

    def truncate(self, k: Optional[int]):
        if k is None:
            return Jet(dict(self.terms), self.variables, None, _clean=False)
        terms = {m: c for m, c in self.terms.items() if mdeg(m) <= k}
        return Jet(terms, self.variables, k, _clean=False)

    def diff(self, var: str):
        i = self.variables.index(var)
        terms = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            m2 = m[:i] + (m[i] - 1,) + m[i + 1 :]
            terms[m2] = c * m[i]
        return Jet(terms, self.variables, self.degree, _clean=False)

    def invert(self):
        """Multiplicative inverse of a unit jet, mod the truncation degree."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ValueError("jet is not a unit (zero constant term)")
        if self.degree is None:
            if len(self.terms) == 1:
                return Jet.constant(1 / c0, self.variables, None)
            raise ValueError("cannot invert a non-constant untruncated polynomial")
        # Geometric series in u = 1 - f/c0, which is nilpotent mod M^(k+1).
        u = Jet.constant(1, self.variables, self.degree) - self.scale(1 / c0)
        return power_series(lambda n: 1, u).scale(1 / c0)

    def compose(self, images: dict):
        """Substitute jets for variables.  `images` maps variable name -> Jet
        (all in a common target ring, whose degree the result takes);
        unmapped variables keep themselves only if present in the target
        ring.  The single-jet case of `compose_all`."""
        return next(compose_all((self,), images))

    def evaluate(self, point: dict):
        """Evaluate at a rational point given as {var: value}."""
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v, e in zip(self.variables, m):
                if e:
                    val *= Fraction(point[v]) ** e
            total += val
        return total

    def rename(self, variables):
        """Reinterpret over a variable list that contains self's variables."""
        variables = tuple(variables)
        idx = [variables.index(v) for v in self.variables]
        n = len(variables)
        terms = {}
        for m, c in self.terms.items():
            m2 = [0] * n
            for pos, e in zip(idx, m):
                m2[pos] = e
            terms[tuple(m2)] = c
        return Jet(terms, variables, self.degree, _clean=False)

    def restrict(self, variables):
        """Project onto a sub-list of variables; terms involving dropped
        variables must be absent."""
        variables = tuple(variables)
        drop = [i for i, v in enumerate(self.variables) if v not in variables]
        idx = [self.variables.index(v) for v in variables]
        terms = {}
        for m, c in self.terms.items():
            if any(m[i] for i in drop):
                raise ValueError("jet involves dropped variable")
            terms[tuple(m[i] for i in idx)] = c
        return Jet(terms, variables, self.degree, _clean=False)

    # -- normalization and display -------------------------------------------

    def primitive(self):
        """Clear denominators, divide by integer content, make the leading
        coefficient (earliest monomial lexicographically) positive."""
        if not self.terms:
            return self
        pairs, den = integer_terms(self.terms)
        scaled = self.scale(Fraction(den, gcd(*(v for _, v in pairs))))
        first = max(scaled.terms)  # lexicographically first monomial
        if scaled.terms[first] < 0:
            scaled = -scaled
        return scaled

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def sorted_terms(self, order: Optional[MonomialOrder] = None):
        order = order or LocalOrder()
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]),
                      reverse=True)

    def __str__(self):
        return format_terms(self.sorted_terms(), self.variables)

    def __repr__(self):
        return "Jet(%s)" % self


def power_series(coefficient, u: Jet) -> Jet:
    """The sum of coefficient(n) * u^n over n >= 0, for a truncated jet u
    with no constant term.  u^(k+1) vanishes for u's degree k, so the sum
    stops at the first power of u that vanishes."""
    acc = Jet.constant(coefficient(0), u.variables, u.degree)
    power = Jet.constant(1, u.variables, u.degree)
    for n in range(1, u.degree + 1):
        power = power * u
        if power.is_zero():
            break
        c = coefficient(n)
        if c:
            acc = acc + (power if c == 1 else power.scale(c))
    return acc


# -- integer numerators ------------------------------------------------------
#
# A product or a composition clears each operand's denominators once
# (`integer_terms`, which `primitive` and `linalg.RowSpace` use too), works
# on integer numerators over one common denominator and builds one Fraction
# per result term.


def integer_terms(terms) -> tuple:
    """(pairs, den): the Fraction `terms` over their least common
    denominator den, as a list of (monomial, integer numerator)."""
    den = 1
    for c in terms.values():
        d = c.denominator
        if den % d:
            den = den * d // gcd(den, d)
    if den == 1:
        return [(m, c.numerator) for m, c in terms.items()], 1
    return [(m, c.numerator * (den // c.denominator))
            for m, c in terms.items()], den


def _convolve(left, right, deg) -> dict:
    """The product of two lists of (monomial, int) as {monomial: int},
    without the monomials of degree above deg (None: no bound).  Entries
    that cancel stay, as zeros."""
    top = inf if deg is None else deg
    right = sorted((mdeg(m), m, v) for m, v in right)
    acc = {}
    get = acc.get
    for m1, v1 in left:
        room = top - mdeg(m1)
        for d2, m2, v2 in right:
            if d2 > room:
                break
            m = tuple(map(add, m1, m2))
            acc[m] = get(m, 0) + v1 * v2
    return acc


def _nonzero(acc) -> list:
    return [(m, v) for m, v in acc.items() if v]


def _from_numerators(acc, den, variables, degree) -> Jet:
    """The jet with terms acc[m] / den, zeros dropped."""
    if den == 1:
        terms = {m: Fraction(v) for m, v in acc.items() if v}
    else:
        terms = {m: Fraction(v, den) for m, v in acc.items() if v}
    return Jet(terms, variables, degree, _clean=False)


def compose_all(jets, images: dict):
    """Yield each of `jets` with `images` substituted, as `Jet.compose`
    does; all of them share one table of powers of the images.

    A jet's terms are grouped by their exponents of every variable but the
    first.  A group is a linear combination of powers of the first
    variable's image times the image of the group's remaining monomial, so
    it costs one product.  Powers and monomial images are computed once, on
    integer numerators, and kept for the later jets."""
    sample = next(iter(images.values()))
    tvars, tdeg = sample.variables, sample.degree
    one = ([((0,) * len(tvars), 1)], 1)
    powers = {}  # variable -> [(pairs, den) of its image^e, e = 0, 1, ...]
    monomials = {(): one}  # ((variable, e), ...) -> (pairs, den) of its image

    def power(v, e):
        cache = powers.get(v)
        if cache is None:
            image = (images[v].truncate(tdeg) if v in images
                     else Jet.variable(v, tvars, tdeg))
            cache = powers[v] = [one, integer_terms(image.terms)]
        while len(cache) <= e:
            (p, d), (p1, d1) = cache[-1], cache[1]
            cache.append((_nonzero(_convolve(p, p1, tdeg)), d * d1))
        return cache[e]

    def monomial(key):
        # each prefix of the key once, without recursion: a recursive
        # closure is a reference cycle that would keep the tables alive
        got = one
        for i in range(1, len(key) + 1):
            nxt = monomials.get(key[:i])
            if nxt is None:
                p, d = power(*key[i - 1])
                nxt = (_nonzero(_convolve(got[0], p, tdeg)), got[1] * d)
                monomials[key[:i]] = nxt
            got = nxt
        return got

    for f in jets:
        for v in f.variables:
            # ValueError when a variable has neither an image nor a place in
            # the target ring
            power(v, 1)
        first, others = f.variables[0], f.variables[1:]
        groups = {}
        for m, c in f.terms.items():
            groups.setdefault(m[1:], []).append((power(first, m[0]), c))
        parts = []
        for rest, column in groups.items():
            den = lcm(*(c.denominator * d for (_, d), c in column))
            combo = {}
            get = combo.get
            for (pairs, d), c in column:
                s = c.numerator * (den // (c.denominator * d))
                for m, v in pairs:
                    combo[m] = get(m, 0) + s * v
            key = tuple((v, e) for v, e in zip(others, rest) if e)
            if key:
                p, d = monomial(key)
                combo = _convolve(_nonzero(combo), p, tdeg)
                den *= d
            parts.append((combo, den))
        den = lcm(*(d for _, d in parts))
        out = {}
        get = out.get
        for combo, d in parts:
            s = den // d
            for m, v in combo.items():
                out[m] = get(m, 0) + s * v
        yield _from_numerators(out, den, tvars, tdeg)


def format_monomial(m: Monomial, variables) -> str:
    factors = []
    for v, e in zip(variables, m):
        if e == 1:
            factors.append(v)
        elif e > 1:
            factors.append("%s^%d" % (v, e))
    return "*".join(factors) if factors else "1"

def format_term(m: Monomial, c: Fraction, variables, first: bool) -> str:
    mono = format_monomial(m, variables)
    mag = abs(c)
    if mono == "1":
        body = str(mag)
    elif mag == 1:
        body = mono
    else:
        body = "%s*%s" % (mag, mono)
    if first:
        return ("-" if c < 0 else "") + body
    return " %s %s" % ("-" if c < 0 else "+", body)


def format_terms(terms, variables) -> str:
    """The (monomial, coefficient) pairs `terms` written as a sum in the
    order given; "0" for no terms."""
    parts = []
    for m, c in terms:
        parts.append(format_term(m, c, variables, not parts))
    return "".join(parts) or "0"
