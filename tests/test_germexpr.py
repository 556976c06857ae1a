"""Parser and exact Taylor expansion of germ expressions."""

from fractions import Fraction

import pytest

from germforge.germexpr import (
    GermSyntaxError,
    NonUnitDivisorError,
    UnknownVariableError,
    parse_and_expand,
    parse_germ,
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
