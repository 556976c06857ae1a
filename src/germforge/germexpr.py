"""Germ expression trees: a small recursive-descent parser and exact Taylor
expansion into jets.

The parser splits the text once into tokens (integers, names and single
characters, whitespace dropped) and descends over the token list.  A
GermSyntaxError's position is found again from the text only when it is
raised: the start of the offending token, the end of the text when no
token is left, or the end of a zero denominator.

Grammar (whitespace insignificant):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' unsigned-int)?
    base     := rational | ident | '(' expr ')' | func '(' expr ')'
    func     := 'sin' | 'cos' | 'exp'
    rational := int ('/' unsigned-int)?
    ident    := letter (letter|digit|'_')*
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Union

from .jets import Jet, mdeg, mmul, power_series

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


# Every node has `polynomial`: True when the tree below it is a polynomial,
# with no function and every divisor a number.  The parser records it on
# each operation as it builds the tree.


@dataclass(frozen=True)
class Num:
    value: Fraction
    polynomial = True


@dataclass(frozen=True)
class Var:
    name: str
    polynomial = True


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"
    polynomial: bool


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int

    @property
    def polynomial(self) -> bool:
        return self.base.polynomial


@dataclass(frozen=True)
class Func:
    name: str
    arg: "Expr"
    polynomial = False


Expr = Union[Num, Var, BinOp, Pow, Func]


# Integers (decimal digits, as int() reads them), names (a word that does not
# start with a decimal digit) and single characters.  The whitespace between
# them is skipped.
_TOKEN = re.compile(r"\d+|\w+|\S")


class _Parser:
    """Recursive descent over the token list.  The list ends in the sentinel
    "", so a look-ahead is one index; positions are only found again when an
    error is raised."""

    def __init__(self, text: str, variables):
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]
        self.i = 0
        self.variables = tuple(variables)

    def error(self, message, after=False):
        """Raise at the start of the current token (the end of the text when
        none is left), or at the end of the previous one if `after`."""
        spans = [t.span() for t in _TOKEN.finditer(self.text)]
        if after:
            position = spans[self.i - 1][1]
        elif self.i < len(spans):
            position = spans[self.i][0]
        else:
            position = len(self.text)
        raise GermSyntaxError(message, position)

    def expect(self, token):
        if self.tokens[self.i] != token:
            self.error("expected %r" % token)
        self.i += 1

    def parse(self) -> Expr:
        e = self.expr()
        if self.tokens[self.i]:
            self.error("unexpected trailing input")
        return e

    def expr(self) -> Expr:
        t = self.tokens[self.i]
        if t == "-":
            self.i += 1
            node = self.term()
            node = BinOp("-", Num(Fraction(0)), node, node.polynomial)
        else:
            if t == "+":
                self.i += 1
            node = self.term()
        while True:
            t = self.tokens[self.i]
            if t != "+" and t != "-":
                return node
            self.i += 1
            right = self.term()
            node = BinOp(t, node, right, node.polynomial and right.polynomial)

    def term(self) -> Expr:
        node = self.factor()
        while True:
            t = self.tokens[self.i]
            if t != "*" and t != "/":
                return node
            self.i += 1
            right = self.factor()
            node = BinOp(t, node, right, node.polynomial and (
                right.polynomial if t == "*" else isinstance(right, Num)))

    def factor(self) -> Expr:
        node = self.base()
        if self.tokens[self.i] == "^":
            self.i += 1
            node = Pow(node, self.unsigned_int())
        return node

    def unsigned_int(self) -> int:
        t = self.tokens[self.i]
        if not t[:1].isdecimal():
            self.error("expected an integer")
        self.i += 1
        return int(t)

    def base(self) -> Expr:
        tokens = self.tokens
        t = tokens[self.i]
        if t == "(":
            self.i += 1
            node = self.expr()
            self.expect(")")
            return node
        if t[:1].isdecimal():
            self.i += 1
            if tokens[self.i] == "/" and tokens[self.i + 1][:1].isdecimal():
                self.i += 1
                den = self.unsigned_int()
                if den == 0:
                    self.error("zero denominator", after=True)
                return Num(Fraction(int(t), den))
            return Num(Fraction(int(t)))
        if t[:1].isalpha() or t[:1] == "_":
            self.i += 1
            if t in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Func(t, arg)
            if t not in self.variables:
                raise UnknownVariableError("unknown variable %r" % t)
            return Var(t)
        if not t:
            self.error("unexpected end of input")
        self.error("unexpected character %r" % t[0])


def parse_germ(text: str, variables) -> Expr:
    """Parse `text` over the ordered variable list `variables`; the tree's
    `polynomial` says whether it is a polynomial."""
    return _Parser(text, variables).parse()


def _series(name: str, u: Jet) -> Jet:
    """Compose a transcendental series with a jet vanishing at the origin."""
    if u.constant_term() != 0:
        raise NonUnitDivisorError(
            "%s() argument must vanish at the origin for exact rational "
            "expansion" % name
        )
    return power_series(FUNCTIONS[name], u)


_ONE = Fraction(1)


def _monomial(node, index):
    """(c, exponents) when the tree is a product of numbers and variable
    powers: '*' chains, division by a nonzero number, the parser's 0 - t
    and powers of such products.  None for any other tree.  A variable's
    coefficient is the shared _ONE, which products and powers pass on
    without Fraction arithmetic."""
    if isinstance(node, Var):
        return _ONE, index[node.name]
    if isinstance(node, Num):
        return node.value, index[None]
    if isinstance(node, Pow):
        base = _monomial(node.base, index)
        if base is None:
            return None
        c, m = base
        e = node.exponent
        return c if c is _ONE else c ** e, tuple(i * e for i in m)
    if not isinstance(node, BinOp):
        return None
    if node.op == "*":
        a = _monomial(node.left, index)
        b = None if a is None else _monomial(node.right, index)
        if b is None:
            return None
        (ca, ma), (cb, mb) = a, b
        if ca is _ONE:
            c = cb
        elif cb is _ONE:
            c = ca
        else:
            c = ca * cb
        return c, mmul(ma, mb)
    if node.op == "/":
        right = node.right
        if not isinstance(right, Num) or not right.value:
            return None
        a = _monomial(node.left, index)
        return None if a is None else (a[0] / right.value, a[1])
    if node.op == "-" and isinstance(node.left, Num) and not node.left.value:
        a = _monomial(node.right, index)
        return None if a is None else (-a[0], a[1])
    return None


def taylor_expand(e: Expr, variables, k: int) -> Jet:
    """Degree-<=k Taylor polynomial of the expression at the origin, exact
    over Q.  Divisors must be unit germs (nonzero constant term).

    Each chain of '+' and '-' accumulates into one dict, and each product of
    numbers and variable powers in it is one term c*x^a*lambda^b; any other
    summand (a power of a sum, a function, a division by a germ) is
    expanded by `Jet` arithmetic."""
    variables = tuple(variables)
    n = len(variables)
    index = {v: tuple(int(i == j) for j in range(n))
             for i, v in enumerate(variables)}
    index[None] = (0,) * n  # a number's exponents
    return _expand(e, variables, index, k)


# _expand and _other are module-level functions, not closures of
# taylor_expand: two closures that call each other form a reference cycle,
# which only the cyclic collector frees


def _expand(node, variables, index, k) -> Jet:
    """One chain of '+' and '-' summed into one dict (see taylor_expand)."""
    terms = {}
    stack = [(1, node)]
    while stack:
        sign, node = stack.pop()
        if isinstance(node, BinOp) and node.op in "+-":
            stack.append((-sign if node.op == "-" else sign, node.right))
            stack.append((sign, node.left))
            continue
        mono = _monomial(node, index)
        if mono is None:
            items = _other(node, variables, index, k).terms.items()
        else:
            c, m = mono
            if k is not None and mdeg(m) > k:
                continue
            items = ((m, c),)
        for m, c in items:
            if sign < 0:
                c = -c
            v = terms.get(m)
            terms[m] = c if v is None else v + c
    return Jet({m: c for m, c in terms.items() if c}, variables, k,
               _clean=False)


def _other(node, variables, index, k) -> Jet:
    """A summand that is not a monomial product, by `Jet` arithmetic."""
    if isinstance(node, Pow):
        return _expand(node.base, variables, index, k) ** node.exponent
    if isinstance(node, Func):
        return _series(node.name, _expand(node.arg, variables, index, k))
    if isinstance(node, BinOp):
        a = _expand(node.left, variables, index, k)
        b = _expand(node.right, variables, index, k)
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b.constant_term() == 0:
                raise NonUnitDivisorError(
                    "division by a germ vanishing at the origin"
                )
            return a * b.invert()
    raise TypeError(node)


def parse_and_expand(text: str, variables, k: int) -> Jet:
    return taylor_expand(parse_germ(text, variables), variables, k)
