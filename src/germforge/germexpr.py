"""Germ expressions: a recursive-descent reader that folds the text into
exact terms as it reads, and exact Taylor expansion into jets.

The reader splits the text once into tokens (integers, names and single
characters, whitespace dropped) and descends over the token list.  Each
chain of '+' and '-' adds into one {monomial: Fraction} dict, and each
product of numbers, variables and their integer powers is built as one
term c*x^a*lambda^b, on an integer numerator and denominator until the term
is stored.  A parenthesised group that folds to one term (such as `(-3/4)`
or `(2*x)`) is such a factor too, and a divisor that folds to a nonzero
number divides the coefficient; one that folds to zero is refused once
the whole text is read.  Only what needs a degree stays a node: a
power or product involving a sum, a function, and division by anything but
a number; `taylor_expand` expands these by `Jet` arithmetic at degree k.

A GermSyntaxError's position is found again from the text only when it is
raised: the start of the offending token, or the end of the text when no
token is left.  Every '/' divides by the one factor after it, left to
right: `x/2/3` is x/6 and `2/3^2` is 2/9, as in sympy.

Grammar (whitespace insignificant):

    expr     := ('+'|'-')? term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' unsigned-int)?
    base     := unsigned-int | ident | '(' expr ')' | func '(' expr ')'
    func     := 'sin' | 'cos' | 'exp'
    ident    := letter (letter|digit|'_')*
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial

from .jets import Jet, mdeg, power_series

# each function a germ may apply, by its Maclaurin coefficients: n -> the
# coefficient of u^n in f(u)
FUNCTIONS = {
    "sin": lambda n: Fraction((-1) ** (n // 2), factorial(n)) if n % 2 else 0,
    "cos": lambda n: 0 if n % 2 else Fraction((-1) ** (n // 2), factorial(n)),
    "exp": lambda n: Fraction(1, factorial(n)),
}


class GermSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownVariableError(ValueError):
    pass


class NonUnitDivisorError(ValueError):
    """Division by a germ vanishing at the origin."""


# Every node has `polynomial`: True when the expression below it is a
# polynomial, with no function and every divisor a number.  The reader sets
# it as it builds each node.


class Sum:
    """A chain of '+' and '-': the folded terms {monomial: Fraction}, all
    nonzero, plus the summands that need a degree (`Product` nodes, each
    carrying its sign in its coefficient).  The whole text's Sum also
    has `variables`, the variable list it was read over."""

    def __init__(self, terms, nodes):
        self.terms = terms
        self.nodes = nodes
        self.polynomial = all(p.polynomial for p in nodes)


class Product:
    """coefficient * x^monomial times each (node, divide) factor: a node
    that multiplies (divide False) or divides (divide True) the term."""

    def __init__(self, coefficient, monomial, factors):
        self.coefficient = coefficient
        self.monomial = monomial
        self.factors = factors
        self.polynomial = all(f.polynomial and not divide
                              for f, divide in factors)


class Pow:
    """A power of a sum that does not fold to one term, or of a function."""

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exponent

    @property
    def polynomial(self) -> bool:
        return self.base.polynomial


class Func:
    polynomial = False

    def __init__(self, name, arg):
        self.name = name
        self.arg = arg


# Integers (decimal digits, as int() reads them), names (a word that does not
# start with a decimal digit) and single characters.  The whitespace between
# them is skipped.
_TOKEN = re.compile(r"\d+|\w+|\S")

_ONE = Fraction(1)


def _division_by_zero():
    return NonUnitDivisorError("division by a germ vanishing at the origin")


class _Parser:
    """Recursive descent over the token list.  The list ends in the sentinel
    "", so a look-ahead is one index; positions are only found again when an
    error is raised."""

    def __init__(self, text: str, variables):
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]
        self.i = 0
        self.variables = tuple(variables)
        self.slot = {v: s for s, v in enumerate(self.variables)}
        self.n = len(self.variables)
        # a divisor that folds to zero is refused once the whole text is
        # read, so that a syntax error or an unknown variable after it is
        # reported first
        self.zero_divisor = False

    def error(self, message):
        """Raise at the start of the current token (the end of the text when
        none is left)."""
        spans = [t.span() for t in _TOKEN.finditer(self.text)]
        if self.i < len(spans):
            position = spans[self.i][0]
        else:
            position = len(self.text)
        raise GermSyntaxError(message, position)

    def expect(self, token):
        if self.tokens[self.i] != token:
            self.error("expected %r" % token)
        self.i += 1

    def parse(self) -> Sum:
        e = self.expr()
        if self.tokens[self.i]:
            self.error("unexpected trailing input")
        if self.zero_divisor:
            raise _division_by_zero()
        e.variables = self.variables
        return e

    def expr(self) -> Sum:
        """A chain of '+' and '-'."""
        tokens = self.tokens
        terms, nodes = {}, []
        term = self.term(self.sign())
        while True:
            num, den, exps, factors = term
            m = tuple(exps)
            if factors:
                nodes.append(Product(Fraction(num, den), m, factors))
            elif num:
                c = _ONE if num == den else Fraction(num, den)
                v = terms.get(m)
                if v is None:
                    terms[m] = c
                elif v + c:
                    terms[m] = v + c
                else:
                    del terms[m]
            t = tokens[self.i]
            if t != "+" and t != "-":
                return Sum(terms, nodes)
            self.i += 1
            term = self.term(t == "-")

    def sign(self) -> bool:
        """Skip a leading sign; True when it is '-'."""
        t = self.tokens[self.i]
        if t == "-" or t == "+":
            self.i += 1
        return t == "-"

    def power(self) -> int:
        """The exponent after '^', which is the current token."""
        self.i += 1
        t = self.tokens[self.i]
        if not t[:1].isdecimal():
            self.error("expected an integer")
        self.i += 1
        return int(t)

    def term(self, negative):
        """One product as (num, den, exps, factors): the coefficient
        num/den, the exponent list, and the (node, divide) pairs of the
        factors that need a degree.  Each factor is a node, or the term
        a/b*x^m (m None for a number) that multiplies or divides the
        product."""
        tokens, slot = self.tokens, self.slot
        num, den = (-1 if negative else 1), 1
        exps = [0] * self.n
        factors = []
        divide = False
        while True:
            t = tokens[self.i]
            self.i += 1
            node = m = None
            a = b = 1
            if t[:1].isdecimal():
                a = int(t)
                if tokens[self.i] == "^":
                    a **= self.power()
            elif t in FUNCTIONS:
                node = self.function(t)
            elif t[:1].isalpha() or t[:1] == "_":
                if t not in slot:
                    raise UnknownVariableError("unknown variable %r" % t)
                e = self.power() if tokens[self.i] == "^" else 1
                if divide:
                    m = [0] * self.n
                    m[slot[t]] = e
                else:
                    exps[slot[t]] += e
            elif t == "(":
                node = self.group()
                if type(node) is tuple:
                    (a, b, m), node = node, None
            else:
                self.i -= 1
                if not t:
                    self.error("unexpected end of input")
                self.error("unexpected character %r" % t[0])
            if node is not None:
                factors.append((node, divide))
            elif not divide:
                num, den = num * a, den * b
                if m is not None:
                    exps = [i + j for i, j in zip(exps, m)]
            elif not a:
                self.zero_divisor = True
            elif m is not None and any(m):
                factors.append((Sum({tuple(m): Fraction(a, b)}, []), True))
            else:
                num, den = num * b, den * a
            t = tokens[self.i]
            if t == "*":
                divide = False
            elif t == "/":
                divide = True
            else:
                return num, den, exps, factors
            self.i += 1

    def function(self, name):
        self.expect("(")
        arg = self.expr()
        self.expect(")")
        node = Func(name, arg)
        return Pow(node, self.power()) if self.tokens[self.i] == "^" else node

    def group(self):
        """'(' expr ')' and its power: (a, b, m) when it folds to one term
        a/b*x^m, else a node."""
        s = self.expr()
        self.expect(")")
        if s.nodes or len(s.terms) > 1:
            return Pow(s, self.power()) if self.tokens[self.i] == "^" else s
        a, b, m = 0, 1, None
        for m, c in s.terms.items():
            a, b = c.numerator, c.denominator
        if self.tokens[self.i] == "^":
            e = self.power()
            a, b = a ** e, b ** e
            if m is not None:
                m = [i * e for i in m]
        return a, b, m


def parse_germ(text: str, variables) -> Sum:
    """Read `text` over the ordered variable list `variables` into its
    folded terms and the nodes that need a degree; `polynomial` says
    whether it is a polynomial.  A divisor that folds to zero raises
    NonUnitDivisorError once the whole text is read."""
    return _Parser(text, variables).parse()


def _series(name: str, u: Jet) -> Jet:
    """Compose a transcendental series with a jet vanishing at the origin."""
    if u.constant_term() != 0:
        raise NonUnitDivisorError(
            "%s() argument must vanish at the origin for exact rational "
            "expansion" % name
        )
    return power_series(FUNCTIONS[name], u)


def taylor_expand(e: Sum, variables, k: int) -> Jet:
    """Degree-<=k Taylor polynomial at the origin, exact over Q, of an
    expression read over `variables`.  Divisors must be unit germs (nonzero
    constant term).  The folded terms are cut at degree k; each node is
    expanded by `Jet` arithmetic at degree k."""
    variables = tuple(variables)
    if variables != e.variables:
        # the monomials are exponent tuples in the order read
        raise ValueError("expression read over %r, not %r"
                         % (e.variables, variables))
    return _expand(e, variables, k)


def _expand(node, variables, k) -> Jet:
    if type(node) is Sum:
        if k is None:
            terms = dict(node.terms)
        else:
            terms = {m: c for m, c in node.terms.items() if mdeg(m) <= k}
        for p in node.nodes:
            for m, c in _expand(p, variables, k).terms.items():
                v = terms.get(m)
                if v is None:
                    terms[m] = c
                elif v + c:
                    terms[m] = v + c
                else:
                    del terms[m]
        return Jet(terms, variables, k, _clean=False)
    if type(node) is Product:
        jet = None
        for f, divide in node.factors:
            b = _expand(f, variables, k)
            if divide:
                if b.constant_term() == 0:
                    raise _division_by_zero()
                b = b.invert()
            jet = b if jet is None else jet * b
        return jet.term_mul(node.monomial, node.coefficient)
    if type(node) is Pow:
        return _expand(node.base, variables, k) ** node.exponent
    return _series(node.name, _expand(node.arg, variables, k))


def parse_and_expand(text: str, variables, k: int) -> Jet:
    return taylor_expand(parse_germ(text, variables), variables, k)
