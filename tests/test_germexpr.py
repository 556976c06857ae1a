"""Parser and exact Taylor expansion of germ expressions."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge.germexpr import (
    GermSyntaxError,
    NonUnitDivisorError,
    UnknownVariableError,
    parse_and_expand,
    parse_germ,
    taylor_expand,
)
from germforge.jets import Jet

V = ("x", "lam")


def j(text, k=None):
    return parse_and_expand(text, V, k)


def test_basic_polynomials():
    x = Jet.variable("x", V)
    lam = Jet.variable("lam", V)
    assert j("x^2 + lam") == x * x + lam
    assert j("3/2*x - lam^3") == x.scale(Fraction(3, 2)) - lam ** 3
    assert j("-x") == x.scale(-1)
    assert j("(x + lam)^2") == (x + lam) ** 2


def test_precedence_and_whitespace():
    assert j(" 2 * x + lam * x ") == j("2*x+lam*x")
    assert j("2*x^3") == j("2*(x^3)")
    assert j("x - lam - lam") == j("x - 2*lam")


def test_rational_literals():
    assert j("1/2*x").terms[(1, 0)] == Fraction(1, 2)
    assert j("7*x").terms[(1, 0)] == 7


def test_series_expansions():
    # sin u = u - u^3/6 + ..., cos u = 1 - u^2/2 + ..., exp u = 1 + u + ...
    assert j("sin(x)", 5) == j("x - 1/6*x^3 + 1/120*x^5", 5)
    assert j("cos(x)", 4) == j("1 - 1/2*x^2 + 1/24*x^4", 4)
    assert j("exp(lam)", 3) == j("1 + lam + 1/2*lam^2 + 1/6*lam^3", 3)
    assert j("sin(x^3 + lam)", 4) == j("lam + x^3 - 1/6*lam^3", 4)


@pytest.mark.parametrize("text, k, jet", [
    ("cos(x*lam)", 1, "1"),
    ("cos(x)", 0, "1"),
    ("cos(x^2) - 1", 1, "0"),
    ("exp(lam^3)", 2, "1"),
    ("sin(x^2)", 1, "0"),
])
def test_series_of_an_argument_above_the_degree(text, k, jet):
    # the argument's k-jet is zero, so the k-jet is the series' constant
    assert j(text, k) == j(jet, k)


def test_unit_division():
    assert j("1/(1 + x)", 3) == j("1 - x + x^2 - x^3", 3)
    assert j("x/(1 - lam)", 3) == j("x + x*lam + x*lam^2", 3)


def test_nonunit_division_rejected():
    with pytest.raises(NonUnitDivisorError):
        j("1/x", 4)
    with pytest.raises(NonUnitDivisorError):
        j("lam/(x + lam)", 4)


def test_function_argument_must_vanish():
    with pytest.raises(NonUnitDivisorError):
        j("sin(1 + x)", 4)


def test_unknown_variable():
    with pytest.raises(UnknownVariableError):
        j("x + y")


def test_syntax_errors_carry_position():
    with pytest.raises(GermSyntaxError) as e:
        j("x + ")
    assert e.value.position == 4
    with pytest.raises(GermSyntaxError):
        j("x^lam")
    with pytest.raises(GermSyntaxError):
        j("(x + lam")


@pytest.mark.parametrize("text, message, position", [
    ("x lam", "unexpected trailing input", 2),
    ("x + lam)", "unexpected trailing input", 7),
    ("(x + lam", "expected ')'", 8),
    ("sin(x", "expected ')'", 5),
    ("sin x", "expected '('", 4),
    ("x^lam", "expected an integer", 2),
    ("x^ ", "expected an integer", 3),
    # str.isdigit accepts '²', int() does not
    ("x^\u00b2", "expected an integer", 2),
    ("1/0 + x", "zero denominator", 3),
    ("1 / 0", "zero denominator", 5),
    ("x + )", "unexpected character ')'", 4),
    ("\u00b2", "unexpected character '\u00b2'", 0),
    ("x + ", "unexpected end of input", 4),
    ("", "unexpected end of input", 0),
    ("   )", "unexpected character ')'", 3),
    ("  x^ y", "expected an integer", 5),
], ids=repr)
def test_syntax_error_messages_and_positions(text, message, position):
    with pytest.raises(GermSyntaxError) as e:
        parse_germ(text, V)
    assert str(e.value) == "%s (at position %d)" % (message, position)
    assert e.value.position == position


@st.composite
def monomial_texts(draw):
    """(text, plus): c*x^a*lam^b, c a positive rational, spelled as a
    product, as (-c)*... (so plus is False), as a division by a number, or
    a power of such a product."""
    c = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 4)))
    a, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    powers = "*".join(name if e == 1 else "%s^%d" % (name, e)
                      for name, e in (("x", a), ("lam", b)) if e) or "1"
    form = draw(st.sampled_from(["times", "negated", "divided", "raised"]))
    if form == "raised":
        return "(%s*%s)^%d" % (c, powers, draw(st.integers(0, 3))), True
    if form == "divided":
        return "%d*%s/%d" % (c.numerator, powers, c.denominator), True
    if form == "negated":
        return "(-%s)*%s" % (c, powers), False
    return "%s*%s" % (c, powers), True


@st.composite
def polynomial_texts(draw, depth=1):
    """A signed sum of monomials, parenthesized sums and powers of a small
    sum."""
    parts = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["monomial"] * 3 + ["group", "power"]
                                    if depth else ["monomial"]))
        if kind == "monomial":
            text, plus = draw(monomial_texts())
        elif kind == "group":
            text, plus = "(%s)" % draw(polynomial_texts(depth - 1)), True
        else:
            text = "(%s)^%d" % (draw(polynomial_texts(depth - 1)),
                                draw(st.integers(0, 3)))
            plus = True
        plus ^= draw(st.booleans())
        if i:
            parts.append(" + " if plus else " - ")
        elif not plus:
            parts.append("-")
        parts.append(text)
    return "".join(parts)


def sympy_terms(text):
    """The terms of `text` expanded by sympy: the independent reference."""
    x, lam = sympy.symbols("x lam")
    poly = sympy.Poly(sympy.expand(sympy.sympify(text.replace("^", "**"))),
                      x, lam)
    return {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()}


@settings(max_examples=30, deadline=None)
@given(polynomial_texts())
def test_taylor_expand_agrees_with_sympy(text):
    tree, terms = parse_germ(text, V), sympy_terms(text)
    for k in (None, 6):
        jet = taylor_expand(tree, V, k)
        assert jet == Jet(terms, V, k)
        assert jet.degree == k
