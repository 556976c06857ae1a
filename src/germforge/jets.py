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
from math import gcd
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
        right = [(m, c, mdeg(m)) for m, c in other.terms.items()]
        terms = {}
        for m1, c1 in self.terms.items():
            room = None if deg is None else deg - mdeg(m1)
            for m2, c2, d2 in right:
                if room is not None and d2 > room:
                    continue
                m = tuple(map(add, m1, m2))
                v = terms.get(m)
                if v is None:
                    terms[m] = c1 * c2
                else:
                    v += c1 * c2
                    if v:
                        terms[m] = v
                    else:
                        del terms[m]
        return Jet(terms, self.variables, deg, _clean=False)

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
        acc = Jet.constant(1, self.variables, self.degree)
        power = Jet.constant(1, self.variables, self.degree)
        for _ in range(self.degree):
            power = power * u
            if power.is_zero():
                break
            acc = acc + power
        return acc.scale(1 / c0)

    def compose(self, images: dict):
        """Substitute jets for variables.  `images` maps variable name -> Jet
        (all in a common target ring, whose degree the result takes);
        unmapped variables keep themselves only if present in the target
        ring."""
        sample = next(iter(images.values()))
        tvars = sample.variables
        tdeg = sample.degree
        base = {}
        for v in self.variables:
            if v in images:
                base[v] = images[v].truncate(tdeg)
            else:
                base[v] = Jet.variable(v, tvars, tdeg)
        out = Jet.zero(tvars, tdeg)
        power_cache = {v: [Jet.constant(1, tvars, tdeg)] for v in self.variables}

        def vpow(v, e):
            cache = power_cache[v]
            while len(cache) <= e:
                cache.append(cache[-1] * base[v])
            return cache[e]

        for m, c in sorted(self.terms.items()):
            term = Jet.constant(c, tvars, tdeg)
            for v, e in zip(self.variables, m):
                if e:
                    term = term * vpow(v, e)
            out = out + term
        return out

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
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        num = 0
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator * (den // c.denominator)))
        scaled = self.scale(Fraction(den, num))
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
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            parts.append(format_term(m, c, self.variables, not parts))
        return "".join(parts)

    def __repr__(self):
        return "Jet(%s)" % self


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
