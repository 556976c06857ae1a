"""Exact polynomial arithmetic for the benchmark's oracles.

Polynomials are dicts {exponent tuple: Fraction}.  Nothing here imports
germforge: the oracles must not reuse the code they check.  The two-variable
helpers (x, lambda) implement the local-ring objects the germ-algebra oracles
need by brute-force linear algebra on jets of bounded degree.
"""

from fractions import Fraction
import re

_NUM = re.compile(r"^\d+(/\d+)?$")


def add(p, q, scale=1):
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + scale * c
        if v:
            out[m] = Fraction(v)
        else:
            out.pop(m, None)
    return out


def mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: Fraction(c) for m, c in out.items() if c}


def power(p, n, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = mul(out, p)
    return out


def truncate(p, k):
    return {m: c for m, c in p.items() if sum(m) <= k}


def diff(p, i):
    out = {}
    for m, c in p.items():
        if m[i]:
            mm = list(m)
            mm[i] -= 1
            out[tuple(mm)] = c * m[i]
    return out


def compose(p, images, nvars_out):
    """p(images[0], images[1], ...) with every image a polynomial."""
    out = {}
    for m, c in p.items():
        term = {(0,) * nvars_out: Fraction(c)}
        for img, e in zip(images, m):
            if e:
                term = mul(term, power(img, e, nvars_out))
        out = add(out, term)
    return out


def parse(text, names):
    """Parse a rendered polynomial such as ``x^3 - 1/2*x*lambda + 2``."""
    text = text.strip()
    nv = len(names)
    index = {n: i for i, n in enumerate(names)}
    out = {}
    if text == "0":
        return out
    body = text.replace(" - ", " + -").replace(" ", "")
    for term in body.split("+"):
        if not term:
            raise ValueError("empty term in %r" % text)
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        coeff = Fraction(sign)
        mono = [0] * nv
        for factor in term.split("*"):
            if _NUM.match(factor):
                coeff *= Fraction(factor)
                continue
            name, _, exp = factor.partition("^")
            if name not in index:
                raise ValueError("unknown symbol %r in %r" % (name, text))
            mono[index[name]] += int(exp) if exp else 1
        out = add(out, {tuple(mono): coeff})
    return out


def render(p, names):
    """Render in the germ grammar; negative coefficients are parenthesised
    because the grammar rejects ``x + -1``."""
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=lambda m: (sum(m), m)):
        c = p[m]
        factors = []
        if c != 1 or not any(m):
            factors.append("(%s)" % c if c < 0 else str(c))
        for n, e in zip(names, m):
            if e == 1:
                factors.append(n)
            elif e > 1:
                factors.append("%s^%d" % (n, e))
        parts.append("*".join(factors))
    return " + ".join(parts)


# ------------------------------------------------------------ two variables


def monomials(k):
    """Monomials x^i*lambda^j of total degree <= k."""
    return [(i, d - i) for d in range(k + 1) for i in range(d, -1, -1)]


def local_key(m):
    """Anti-graded order: lower degree is bigger, then x-heavy is bigger."""
    return (-sum(m), m)


class Span:
    """Row-echelon span of jets of degree <= k, pivoting on the largest
    monomial in the local order, so the pivots are exactly the leading
    monomials of the span's elements."""

    def __init__(self, k):
        self.k = k
        self.cols = sorted(monomials(k), key=local_key, reverse=True)
        self.pos = {m: i for i, m in enumerate(self.cols)}
        self.rows = {}  # pivot column -> sparse row {col: Fraction}

    def _vector(self, p):
        return {self.pos[m]: Fraction(c) for m, c in p.items()
                if sum(m) <= self.k and c}

    def _reduce(self, vec):
        vec = dict(vec)
        while vec:
            piv = min(vec)
            row = self.rows.get(piv)
            if row is None:
                return vec
            f = vec[piv]
            for col, c in row.items():
                v = vec.get(col, 0) - f * c
                if v:
                    vec[col] = v
                else:
                    vec.pop(col, None)
        return vec

    def add(self, p):
        vec = self._reduce(self._vector(p))
        if not vec:
            return False
        piv = min(vec)
        lead = vec[piv]
        self.rows[piv] = {col: c / lead for col, c in vec.items()}
        return True

    def contains(self, p):
        return not self._reduce(self._vector(p))

    def leading_monomials(self):
        return {self.cols[i] for i in self.rows}

    def dimension(self):
        return len(self.rows)


def mono(m, c=1):
    return {tuple(m): Fraction(c)}


def ideal_span(gens, k):
    """Span of {m*f : f in gens} modulo terms of degree > k."""
    sp = Span(k)
    for f in gens:
        for m in monomials(k):
            sp.add(truncate(mul(mono(m), f), k))
    return sp


def tangent_span(g, k):
    """T(g) = <g, g_x> + R{lambda^j * g_lambda} modulo degree > k."""
    gx, gl = diff(g, 0), diff(g, 1)
    sp = ideal_span([f for f in (g, gx) if f], k)
    for j in range(k + 1):
        sp.add(truncate(mul(mono((0, j)), gl), k))
    return sp


def complements(sp, monos):
    """True when the span plus the given monomials is the whole jet space."""
    trial = Span(sp.k)
    trial.rows = {p: dict(r) for p, r in sp.rows.items()}
    for m in monos:
        trial.add(mono(m))
    return trial.dimension() == len(trial.cols)


def in_block_ideal(m, blocks):
    """Membership of x^a*lambda^b in the sum of blocks M^k<lambda^l>."""
    a, b = m
    return any(b >= l and a + b >= k + l for k, l in blocks)

