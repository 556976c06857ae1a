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


@pytest.mark.parametrize("text, position", [
    ("(-3/4", 5), ("(x + 1 - 1", 10), ("(x - x", 6), ("2*(x*lam", 8),
    ("((x)", 4),
], ids=repr)
def test_an_unclosed_group_that_folds_to_one_term(text, position):
    # a group folds to a number or a monomial only once its ')' is read
    with pytest.raises(GermSyntaxError) as e:
        parse_germ(text, V)
    assert str(e.value) == "expected ')' (at position %d)" % position


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


@pytest.mark.parametrize("text, terms", [
    ("(-3/4)*x^2*lam + 5*lam", {(2, 1): Fraction(-3, 4), (0, 1): 5}),
    ("-2^2*x/(-8) - (x)^3*(2*lam)^2", {(1, 0): Fraction(1, 2), (3, 2): -4}),
    ("x^3/(-2) - lam + 3/2*lam", {(3, 0): Fraction(-1, 2),
                                  (0, 1): Fraction(1, 2)}),
    ("x/(1 + 1) + x/2^2 + x/(4/2)^0 - x", {(1, 0): Fraction(3, 4)}),
    ("(x - x)*lam + lam - lam", {}),
])
def test_products_of_numbers_and_variables_fold_into_terms(text, terms):
    # no node is left for a product of numbers, variables, their powers
    # and number divisors: the reader's dict is the polynomial
    tree = parse_germ(text, V)
    assert tree.polynomial and not tree.nodes
    assert tree.terms == terms


@pytest.mark.parametrize("text, polynomial", [
    ("x^3/(-2) - lam", True),
    ("x/(1+1)", True),
    ("x/2^2", True),
    ("(1 + x)^3*(x - lam)/(-3)", True),
    ("x/(1 + x)", False),
    ("x/(2*x)", False),
    ("sin(x)/2", False),
    ("(1 + sin(x))^2", False),
])
def test_every_number_divisor_keeps_a_polynomial(text, polynomial):
    assert parse_germ(text, V).polynomial is polynomial


@pytest.mark.parametrize("text", ["x/0", "x/(1 - 1)", "lam/(x - x)^2",
                                  "x/0^3", "x/(0*x)", "x/(0*lam)^2",
                                  "1/0 + x", "1 / 0"])
def test_a_divisor_that_folds_to_zero_is_refused(text):
    with pytest.raises(NonUnitDivisorError):
        parse_germ(text, V)


def test_a_zero_divisor_is_refused_after_the_syntax_is_checked():
    with pytest.raises(GermSyntaxError) as e:
        parse_germ("x/0 + )", V)
    assert str(e.value) == "unexpected character ')' (at position 6)"
    with pytest.raises(UnknownVariableError):
        parse_germ("x/0 + y", V)


@pytest.mark.parametrize("variables", [("lam", "x"), ("x",),
                                       ("x", "lam", "a1")], ids=repr)
def test_taylor_expand_needs_the_variables_read_over(variables):
    tree = parse_germ("x^2 + 3*lam", V)
    with pytest.raises(ValueError):
        taylor_expand(tree, variables, 4)
    assert taylor_expand(tree, list(V), 4) == j("x^2 + 3*lam", 4)


@st.composite
def number_divisors(draw):
    """A divisor that folds to a nonzero number: a group, a bare literal,
    a power of a literal, or a chain of such divisions (`x/2/3` is x/6,
    and `2/3^2` is 2/9)."""
    c = draw(st.integers(1, 5))
    return draw(st.sampled_from([
        "(-%d)" % c,
        "(%d - %d/%d)" % (c + 1, draw(st.integers(1, 3)), c + 2),
        "(%d^%d)" % (c, draw(st.integers(0, 2))),
        "(-(%d))" % c,
        "%d" % c,
        "%d^%d" % (c, draw(st.integers(0, 3))),
        "%d/%d" % (c, draw(st.integers(1, 4))),
        "%d^%d/%d^%d" % (c, draw(st.integers(0, 2)), draw(st.integers(1, 4)),
                         draw(st.integers(1, 2))),
    ]))


@st.composite
def reader_texts(draw, depth=2):
    """A '+'/'-' chain of monomials (some over a number divisor), nested
    groups, powers of groups and products of groups."""
    kinds = ["monomial", "monomial", "over"]
    if depth:
        kinds += ["group", "power", "product"]
    parts = []
    for i in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        plus = True
        if kind == "monomial":
            text, plus = draw(monomial_texts())
        elif kind == "over":
            text, plus = draw(monomial_texts())
            text = "%s/%s" % (text, draw(number_divisors()))
        elif kind == "group":
            text = "(%s)" % draw(reader_texts(depth - 1))
        elif kind == "power":
            text = "(%s)^%d" % (draw(reader_texts(depth - 1)),
                                draw(st.integers(0, 2)))
        else:
            text = "(%s)*(%s)" % (draw(reader_texts(depth - 1)),
                                  draw(reader_texts(depth - 1)))
        plus ^= draw(st.booleans())
        if i:
            parts.append(" + " if plus else " - ")
        elif not plus:
            parts.append("-")
        parts.append(text)
    return "".join(parts)


@settings(max_examples=40, deadline=None)
@given(reader_texts())
def test_the_reader_agrees_with_sympy(text):
    tree, terms = parse_germ(text, V), sympy_terms(text)
    assert tree.polynomial
    assert taylor_expand(tree, V, None) == Jet(terms, V)
    assert taylor_expand(tree, V, 4) == Jet(terms, V, 4)
