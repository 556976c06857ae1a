"""Transition sets, boundary non-persistence, region catalogs, diagrams,
and rendering."""

import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from germforge import (
    Jet,
    UnfoldingGerm,
    bifurcation_diagram,
    classify_regions,
    make_unfolding,
    nonpersistent_sets,
    parse_and_expand,
    render_diagram,
    render_transition_slice,
    transition_set,
)
from germforge.bifurcation import (
    TOL,
    Component,
    TransitionSet,
    _crossing,
    _divided_difference,
    _grid_points,
    _horner,
    _line_signs,
    _march,
    _pieces_where,
    _PlanePoly,
    _realness_conditions,
)
from germforge.localalg import _qq, eliminate, poly_ring, to_ring

from boundary_fixtures import BOUNDARY_COMPONENTS

X = ("x", "lam")
A1, A2, A3 = sympy.symbols("a1 a2 a3")
XS, LAM = sympy.symbols("x lam")

# nonzero rational sample values for witness generation
SAMPLES = [sympy.Rational(a, b) for a, b in
           [(1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2), (3, 1),
            (-3, 2), (5, 2), (-5, 3), (4, 3), (-7, 2), (3, 4), (-4, 5),
            (7, 3), (-8, 3), (9, 4), (-9, 5), (11, 4), (-6, 5)]]


def evaluator(body, params, alpha):
    """The float g(x, lambda) of G(x, lambda, alpha) that
    `bifurcation_diagram` traces."""
    return _PlanePoly(body, body.variables[0], body.variables[1],
                      dict(zip(params, alpha)))


def jet(terms):
    return Jet({m: Fraction(c) for m, c in terms.items()}, X, None)


def winged_cusp():
    base = jet({(4, 0): 1, (1, 1): -1})
    return make_unfolding(base, [jet({(0, 0): 1}), jet({(0, 1): 1}),
                                 jet({(2, 0): 1})])


def quintic():
    base = jet({(5, 0): 1, (0, 1): -1})
    return make_unfolding(base, [jet({(1, 0): 1}), jet({(2, 0): 1}),
                                 jet({(3, 0): 1})])


def fold():
    return make_unfolding(jet({(2, 0): 1, (0, 1): -1}),
                          [jet({(0, 0): 1})])


def expr_of(p):
    syms = [sympy.Symbol(n) for n in p.variables]
    total = sympy.Integer(0)
    for m, c in p.terms.items():
        t = sympy.Rational(c)
        for s, e in zip(syms, m):
            t *= s ** e
        total += t
    return sympy.expand(total)


def same_curve(p, q, syms=(A1, A2, A3)):
    """Equality of zero sets for irreducible output: equal up to a nonzero
    rational scalar."""
    pp = sympy.Poly(sympy.expand(p), *syms).primitive()[1]
    qq = sympy.Poly(sympy.expand(q), *syms).primitive()[1]
    return pp == qq or pp == -qq


def fixture_expr(text):
    return sympy.sympify(text.replace("^", "**"),
                         locals={"a1": A1, "a2": A2, "a3": A3})


# the quartic family used both for the interior transition set and for the
# boundary fixtures
FQ = XS ** 4 - LAM * XS + A1 + A2 * LAM + A3 * XS ** 2
FQ_X = sympy.diff(FQ, XS)

FC = XS ** 5 + A1 * XS + A2 * XS ** 2 + A3 * XS ** 3 - LAM
FC_X = sympy.diff(FC, XS)


@pytest.fixture(scope="module")
def wc_sigma():
    return transition_set(winged_cusp())


@pytest.fixture(scope="module")
def quintic_sigma():
    return transition_set(quintic())


@pytest.fixture(scope="module")
def boundary_sigma():
    return nonpersistent_sets(winged_cusp(), (-2, 2), (1, 3))


# ----------------------------------------------------- interior components


def test_winged_cusp_bifurcation_component(wc_sigma):
    comp = wc_sigma.components["B"]
    assert len(comp.systems) == 1 and len(comp.systems[0]) == 1
    assert expr_of(comp.systems[0][0]) == sympy.expand(
        A1 + A2 ** 2 * A3 + A2 ** 4)


def test_winged_cusp_hysteresis_component(wc_sigma):
    comp = wc_sigma.components["H"]
    assert len(comp.systems) == 1 and len(comp.systems[0]) == 1
    expected = 432 * A1 ** 2 + 72 * A1 * A3 ** 2 + 3 * A3 ** 4 \
        + 128 * A2 ** 2 * A3 ** 3
    assert same_curve(expr_of(comp.systems[0][0]), expected)


def test_winged_cusp_double_limit_component(wc_sigma):
    comp = wc_sigma.components["D"]
    assert len(comp.systems) == 1 and len(comp.systems[0]) == 1
    assert same_curve(expr_of(comp.systems[0][0]), A3 ** 2 - 4 * A1)
    assert any(s.relation == "<=" and expr_of(s.poly) == A3
               for s in comp.side_conditions)


def test_quintic_bifurcation_empty(quintic_sigma):
    assert quintic_sigma.components["B"].is_empty


def test_quintic_hysteresis_component(quintic_sigma):
    comp = quintic_sigma.components["H"]
    assert len(comp.systems) == 1 and len(comp.systems[0]) == 1
    expected = (400 * A1 ** 3 - 360 * A1 ** 2 * A3 ** 2
                + 540 * A1 * A2 ** 2 * A3 - 135 * A2 ** 4
                + 81 * A1 * A3 ** 4 - 27 * A2 ** 2 * A3 ** 3)
    assert same_curve(expr_of(comp.systems[0][0]), expected)


def test_quintic_double_limit_component(quintic_sigma):
    comp = quintic_sigma.components["D"]
    assert len(comp.systems) == 1 and len(comp.systems[0]) == 1
    expected = (1600 * A1 ** 3 - 1040 * A1 ** 2 * A3 ** 2
                + 360 * A1 * A2 ** 2 * A3 + 135 * A2 ** 4
                + 224 * A1 * A3 ** 4 - 88 * A2 ** 2 * A3 ** 3
                - 16 * A3 ** 6)
    assert same_curve(expr_of(comp.systems[0][0]), expected)


def test_fold_transition_set_empty():
    sigma = transition_set(fold())
    for name in ("B", "H", "D"):
        assert sigma.components[name].is_empty, name


def test_true_winged_cusp_transition_set():
    # x^3 + lam^2 unfolded by a1 + a2*x + a3*lam*x; each reference is
    # derived here from its defining system, not frozen from the library
    G = make_unfolding(jet({(3, 0): 1, (0, 2): 1}),
                       [jet({(0, 0): 1}), jet({(1, 0): 1}),
                        jet({(1, 1): 1})])
    sigma = transition_set(G)
    g = XS ** 3 + LAM ** 2 + A1 + A2 * XS + A3 * LAM * XS
    gx = sympy.diff(g, XS)
    # B: G = G_x = G_lam = 0, where G_lam = 0 sets lam = -a3*x/2
    (lam,) = sympy.solve(sympy.diff(g, LAM), LAM)
    assert lam == -A3 * XS / 2
    b = sympy.numer(sympy.together(
        sympy.resultant(g.subs(LAM, lam), gx.subs(LAM, lam), XS)))
    comp = sigma.components["B"]
    assert len(comp.systems) == 1 and len(comp.systems[0]) == 1
    assert same_curve(expr_of(comp.systems[0][0]), b)
    # H: G = G_x = G_xx = 0, where G_xx = 0 sets x = 0 and then G_x = 0
    # sets lam = -a2/a3
    (x0,) = sympy.solve(sympy.diff(g, XS, 2), XS)
    (lam,) = sympy.solve(gx.subs(XS, x0), LAM)
    assert (x0, lam) == (0, -A2 / A3)
    h = sympy.numer(sympy.together(g.subs({XS: x0, LAM: lam})))
    comp = sigma.components["H"]
    assert len(comp.systems) == 1 and len(comp.systems[0]) == 1
    assert same_curve(expr_of(comp.systems[0][0]), h)
    assert same_curve(h, A2 ** 2 + A1 * A3 ** 2)
    # D: G is cubic in x, so no lam has two distinct double roots
    assert sigma.components["D"].is_empty


# --------------------------------------------------- interior witnesses
#
# Each witness point is produced straight from the defining equations of the
# component (fold plus an extra degeneracy), independently of the elimination
# route, and must be an exact zero of the computed polynomial.


def test_winged_cusp_bifurcation_witnesses(wc_sigma):
    poly = expr_of(wc_sigma.components["B"].systems[0][0])
    for i in range(20):
        x = SAMPLES[i]
        lam = SAMPLES[(i + 7) % 20]
        a2 = x                               # F_lambda = 0
        a3 = (lam - 4 * x ** 3) / (2 * x)    # F_x = 0
        a1 = sympy.solve(FQ.subs({XS: x, LAM: lam, A2: a2, A3: a3}), A1)[0]
        assert poly.subs({A1: a1, A2: a2, A3: a3}) == 0


def test_winged_cusp_hysteresis_witnesses(wc_sigma):
    poly = expr_of(wc_sigma.components["H"].systems[0][0])
    for i in range(20):
        x = SAMPLES[i]
        a2 = SAMPLES[(i + 11) % 20]
        a3 = -6 * x ** 2                     # F_xx = 0
        lam = 4 * x ** 3 + 2 * a3 * x        # F_x = 0
        a1 = sympy.solve(FQ.subs({XS: x, LAM: lam, A2: a2, A3: a3}), A1)[0]
        assert poly.subs({A1: a1, A2: a2, A3: a3}) == 0


def test_winged_cusp_double_limit_witnesses(wc_sigma):
    comp = wc_sigma.components["D"]
    poly = expr_of(comp.systems[0][0])
    for i in range(20):
        x1 = SAMPLES[i]
        a2 = SAMPLES[(i + 5) % 20]
        # the pair (x1, -x1) is a double limit point at lambda = 0
        a3 = -2 * x1 ** 2
        a1 = x1 ** 4
        point = {A1: a1, A2: a2, A3: a3}
        assert FQ.subs({XS: x1, LAM: 0}).subs(point) == 0
        assert FQ.subs({XS: -x1, LAM: 0}).subs(point) == 0
        assert FQ_X.subs({XS: x1, LAM: 0}).subs(point) == 0
        assert poly.subs(point) == 0
        env = {"a1": Fraction(int(a1.p), int(a1.q)),
               "a2": Fraction(int(a2.p), int(a2.q)),
               "a3": Fraction(int(a3.p), int(a3.q))}
        for side in comp.side_conditions:
            assert side.holds(env)


def test_quintic_hysteresis_witnesses(quintic_sigma):
    poly = expr_of(quintic_sigma.components["H"].systems[0][0])
    for i in range(20):
        x = SAMPLES[i]
        a3 = SAMPLES[(i + 9) % 20]
        a2 = -(20 * x ** 3 + 6 * a3 * x) / 2     # F_xx = 0
        a1 = -(5 * x ** 4 + 2 * a2 * x + 3 * a3 * x ** 2)  # F_x = 0
        assert poly.subs({A1: a1, A2: a2, A3: a3}) == 0


def test_quintic_double_limit_witnesses(quintic_sigma):
    poly = expr_of(quintic_sigma.components["D"].systems[0][0])
    for i in range(20):
        x1 = SAMPLES[i]
        x2 = SAMPLES[(i + 3) % 20]
        if x1 == x2:
            x2 = x2 + 1
        system = [FC.subs(XS, x1), FC.subs(XS, x2),
                  FC_X.subs(XS, x1), FC_X.subs(XS, x2)]
        sols = sympy.solve(system, [LAM, A1, A2, A3], dict=True)
        assert len(sols) == 1
        sol = sols[0]
        assert all(v.is_rational for v in sol.values())
        assert poly.subs(sol) == 0



def test_quintic_double_limit_realness(quintic_sigma):
    # D is the closure of the parameters of real and of complex-conjugate
    # pairs x1,2 = u -+ v and u -+ i*v alike; its side condition keeps
    # exactly the real ones
    comp = quintic_sigma.components["D"]
    poly = expr_of(comp.systems[0][0])
    assert comp.side_conditions
    for i in range(20):
        u, v = SAMPLES[i], abs(SAMPLES[(i + 3) % 20])
        for pair, real in (((u - v, u + v), True),
                           ((u - sympy.I * v, u + sympy.I * v), False)):
            system = [FC.subs(XS, x) for x in pair] \
                + [FC_X.subs(XS, x) for x in pair]
            sol = sympy.solve(system, [LAM, A1, A2, A3], dict=True)[0]
            sol = {s: sympy.expand(val) for s, val in sol.items()}
            assert all(val.is_rational for val in sol.values())
            assert poly.subs(sol) == 0
            env = {str(s): Fraction(int(val.p), int(val.q))
                   for s, val in sol.items() if s != LAM}
            assert all(c.holds(env) for c in comp.side_conditions) == real


def test_quartic_fold_double_limit_realness():
    # the pair +-x at lam = x^4 + a2*x^2 is a double limit pair when a1 = 0,
    # and it is real only when a2 <= 0
    body = parse_and_expand("x^4 - lam + a1*x + a2*x^2", X + ("a1", "a2"),
                            None)
    sigma = transition_set(UnfoldingGerm(body, ("a1", "a2")))
    assert str(sigma.components["D"]) == "D: {a1 = 0} with a2 <= 0"
    assert sigma.warnings == []


def test_double_limit_names_do_not_clash_with_parameters():
    # the elimination's auxiliary variables s and w are renamed away from
    # parameters that carry those names
    body = parse_and_expand("x^4 - lam + s*x + w*x^2", X + ("s", "w"), None)
    sigma = transition_set(UnfoldingGerm(body, ("s", "w")))
    assert str(sigma.components["D"]) == "D: {s = 0} with w <= 0"


def _shape(sigma):
    """A transition set with its parameter names forgotten: exponent tuples,
    coefficients, relations, notes and warnings."""
    def terms(p):
        return sorted(p.terms.items())
    return ({name: ([[terms(p) for p in system] for system in comp.systems],
                    [(terms(c.poly), c.relation)
                     for c in comp.side_conditions], comp.note)
             for name, comp in sigma.components.items()}, sigma.warnings)


@pytest.mark.parametrize("names", [("t", "d"), ("_t", "_d"), ("d", "t")])
def test_auxiliary_names_do_not_clash_with_parameters(names):
    # the saturation variable t and the half-difference d are renamed away
    # from parameters of those names: the sets equal those for a1, a2
    def sets(params):
        text = "x^4 - lam + %s*x + %s*x^2" % params
        G = UnfoldingGerm(parse_and_expand(text, X + params, None), params)
        return (_shape(transition_set(G)),
                _shape(nonpersistent_sets(G, (-2, 2), (1, 3))))
    assert sets(names) == sets(("a1", "a2"))


def test_double_limit_without_realness_condition_warns():
    # D = a1*(3125*a1^4 - 768*a2^5), and every basis element linear in
    # w = (x1 - x2)^2 has a coefficient divisible by a1, so no exact
    # realness condition exists and D is reported with a warning
    body = parse_and_expand("x^6 - lam + a1*x + a2*x^2", X + ("a1", "a2"),
                            None)
    G = UnfoldingGerm(body, ("a1", "a2"))
    sigma = transition_set(G)
    comp = sigma.components["D"]
    assert same_curve(expr_of(comp.systems[0][0]),
                      A1 * (3125 * A1 ** 4 - 768 * A2 ** 5), (A1, A2))
    assert not comp.side_conditions
    assert len(sigma.warnings) == 1 and "complex" in sigma.warnings[0]

# ----------------------------------------------------- boundary components


def test_boundary_reuses_interior_components(boundary_sigma, wc_sigma):
    for inner, outer in (("B", "L_B"), ("H", "L_H"), ("D", "G_D")):
        a = wc_sigma.components[inner]
        b = boundary_sigma.components[outer]
        assert [[str(p) for p in s] for s in a.systems] \
            == [[str(p) for p in s] for s in b.systems]
        assert a.note == b.note
        assert [str(s) for s in a.side_conditions] \
            == [str(s) for s in b.side_conditions]


def test_boundary_components_match_fixtures(boundary_sigma):
    for name, systems in BOUNDARY_COMPONENTS.items():
        comp = boundary_sigma.components[name]
        got = [["".join(str(p).split("  ")) for p in s]
               for s in comp.systems]
        assert got == [[s for s in sys] for sys in systems], name


def test_corner_witnesses(boundary_sigma):
    corners = [(-2, 1), (-2, 3), (2, 1), (2, 3)]
    for (xv, lv), texts in zip(corners, BOUNDARY_COMPONENTS["L_C"]):
        poly = fixture_expr(texts[0])
        for i in range(5):
            a2 = SAMPLES[i]
            a3 = SAMPLES[(i + 4) % 20]
            a1 = sympy.solve(
                FQ.subs({XS: xv, LAM: lv, A2: a2, A3: a3}), A1)[0]
            assert poly.subs({A1: a1, A2: a2, A3: a3}) == 0


def test_side_horizontal_witnesses(boundary_sigma):
    for xv, texts in zip((-2, 2), BOUNDARY_COMPONENTS["L_SH"]):
        poly = fixture_expr(texts[0])
        for i in range(5):
            a2 = SAMPLES[i]
            a3 = SAMPLES[(i + 6) % 20]
            lam = 4 * sympy.Integer(xv) ** 3 + 2 * a3 * xv  # F_x(xv) = 0
            a1 = sympy.solve(
                FQ.subs({XS: xv, LAM: lam, A2: a2, A3: a3}), A1)[0]
            assert poly.subs({A1: a1, A2: a2, A3: a3}) == 0


def test_side_vertical_witnesses(boundary_sigma):
    for lv, texts in zip((1, 3), BOUNDARY_COMPONENTS["L_SV"]):
        poly = fixture_expr(texts[0])
        for i in range(5):
            x = SAMPLES[i]
            a2 = SAMPLES[(i + 8) % 20]
            a3 = (lv - 4 * x ** 3) / (2 * x)  # F_x(x, lv) = 0
            a1 = sympy.solve(
                FQ.subs({XS: x, LAM: lv, A2: a2, A3: a3}), A1)[0]
            assert poly.subs({A1: a1, A2: a2, A3: a3}) == 0


def test_tangency_witnesses(boundary_sigma):
    for xv, texts in zip((-2, 2), BOUNDARY_COMPONENTS["L_T"]):
        polys = [fixture_expr(t) for t in texts]
        for i in range(5):
            a2 = sympy.Integer(xv)          # F_lambda(xv) = 0
            a3 = SAMPLES[i]
            a1 = -16 - 4 * a3               # F(xv, lam) = 0 for all lam
            point = {A1: a1, A2: a2, A3: a3}
            assert FQ.subs({XS: xv}).subs(point).expand() == 0
            for p in polys:
                assert p.subs(point) == 0


def test_gamma1_witnesses(boundary_sigma):
    for xv, texts in zip((-2, 2), BOUNDARY_COMPONENTS["G_1"]):
        poly = fixture_expr(texts[0])
        hits = 0
        for i in range(8):
            x = SAMPLES[i] / 3  # interior fold location
            a2 = SAMPLES[(i + 13) % 20]
            system = [FQ.subs(XS, xv), FQ.subs(XS, x), FQ_X.subs(XS, x)]
            system = [e.subs(A2, a2) for e in system]
            sols = sympy.solve(system, [LAM, A1, A3], dict=True)
            for sol in sols:
                if all(v.is_rational for v in sol.values()):
                    assert poly.subs(A2, a2).subs(sol) == 0
                    hits += 1
        assert hits >= 5


def test_gamma2_witnesses(boundary_sigma):
    poly = fixture_expr(BOUNDARY_COMPONENTS["G_2"][0][0])
    for i in range(5):
        a2 = SAMPLES[i]
        a3 = SAMPLES[(i + 10) % 20]
        sols = sympy.solve([FQ.subs(XS, -2), FQ.subs(XS, 2)],
                           [LAM, A1], dict=True)
        sol = sols[0]
        point = {A1: sol[A1], A2: a2, A3: a3}
        assert sol[LAM] == 0
        assert poly.subs(point).subs({A2: a2, A3: a3}) == 0


def test_vertical_horizontal_flags():
    G = winged_cusp()
    vert = nonpersistent_sets(G, (-2, 2), (1, 3), vertical=True)
    assert "L_SV" not in vert.components and "L_C" not in vert.components
    assert "L_SH" in vert.components and "G_2" in vert.components
    horiz = nonpersistent_sets(G, (-2, 2), (1, 3), horizontal=True)
    assert "L_SH" not in horiz.components and "L_C" not in horiz.components
    assert "L_SV" in horiz.components


def test_linear_germ_corner_set():
    G = make_unfolding(jet({(1, 0): 1, (0, 1): -1}), [jet({(0, 0): 1})])
    sigma = nonpersistent_sets(G, (0, 1), (0, 1))
    lc = sigma.components["L_C"]
    assert len(lc.systems) == 3  # the two corners on the diagonal coincide
    roots = set()
    for system in lc.systems:
        assert len(system) == 1
        p = expr_of(system[0])
        roots.add(sympy.solve(p, A1)[0])
    assert roots == {0, 1, -1}


def test_boundary_systems_that_both_ends_give_are_kept_once():
    # F = x^2*lam - lam^2 + a1 is even in x, so u = -1 and u = 1 give the
    # same corner polynomials and L_SH, L_T and G_1 systems; at l = +-1,
    # F_x = 2*l*x forces x = 0, so both ends give the same L_SV system
    G = make_unfolding(jet({(2, 1): 1, (0, 2): -1}), [jet({(0, 0): 1})])
    sigma = nonpersistent_sets(G, (-1, 1), (-1, 1))
    assert [str(sigma.components[name])
            for name in ("L_C", "L_SH", "L_T", "L_SV", "G_1")] == [
        "L_C: {-2 + a1 = 0} union {a1 = 0}", "L_SH: {a1 = 0}",
        "L_T: {1 + 4*a1 = 0}", "L_SV: {-1 + a1 = 0}", "G_1: {a1 = 0}"]


def test_corner_on_the_zero_set_for_every_parameter_is_dense():
    # G(0, lambda, a1) = 0, so the corners at x = 0 lie on the zero set for
    # every a1 and L_C is the whole parameter space
    G = make_unfolding(jet({(3, 0): 1, (1, 1): -1}), [jet({(1, 0): 1})])
    lc = nonpersistent_sets(G, (0, 1), (-1, 1)).components["L_C"]
    assert lc.note == "dense" and not lc.systems
    assert str(lc) == "L_C: whole parameter space"


# -------------------------------------------------- region classification


def test_classify_regions_empty_set():
    sigma = TransitionSet({"B": Component("B")}, ("a1",))
    cat = classify_regions(sigma)
    assert len(cat.representatives) == 1
    assert cat.representatives[0][0] == (0,)


def test_classify_regions_single_line():
    poly = Jet({(1,): Fraction(1)}, ("a1",), None)
    sigma = TransitionSet({"B": Component("B", systems=[[poly]])}, ("a1",))
    cat = classify_regions(sigma)
    assert len(cat.representatives) == 2
    assert {r[1] for r in cat.representatives} == {(-1,), (1,)}
    assert not cat.warnings
    with pytest.raises(ValueError):
        classify_regions(sigma, granularity="full")


@pytest.mark.parametrize("size", [0, -2])
def test_sampling_sizes_below_one_raise(tmp_path, size):
    # the library refuses sizes that the CLI refuses, before sampling or
    # making a directory
    params = ("a1", "a2", "a3")
    line = Jet({(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1)}, params, None)
    sigma = TransitionSet({"B": Component("B", systems=[[line]])}, params)
    no_polys = TransitionSet({"B": Component("B")}, ("a1",))
    calls = [
        lambda: classify_regions(sigma, grid=size),
        lambda: classify_regions(no_polys, grid=size),
        lambda: bifurcation_diagram(fold(), (0,), resolution=size),
        lambda: render_transition_slice(sigma, str(tmp_path / "s"),
                                        resolution=size),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="at least 1"):
            call()
    assert list(tmp_path.iterdir()) == []


def test_classify_regions_coarse_grid_warning():
    poly = Jet({(2,): Fraction(1)}, ("a1",), None)  # one sign off its zero
    sigma = TransitionSet({"B": Component("B", systems=[[poly]])}, ("a1",))
    cat = classify_regions(sigma, grid=10)
    assert cat.warnings


def test_classify_regions_granularities(wc_sigma):
    short = classify_regions(wc_sigma, grid=9, granularity="short")
    inter = classify_regions(wc_sigma, grid=9, granularity="intermediate")
    comp = classify_regions(wc_sigma, grid=9, granularity="complete")
    assert len(short.representatives) <= len(inter.representatives)
    assert len(inter.representatives) <= len(comp.representatives)
    assert len(comp.representatives) >= 4
    for point, signs, tag in comp.representatives:
        assert tag == "complete"
        env = dict(zip(wc_sigma.params, point))
        for poly in wc_sigma.all_polys():
            assert poly.evaluate(env) != 0


def reference_regions(sigma, box, grid, granularity):
    """classify_regions by brute force: Jet.evaluate at every grid point,
    then a flood fill over index tuples, where a step off an axis end
    leaves the table."""
    polys = sigma.all_polys()
    indices = list(product(range(grid), repeat=len(box)))
    points = dict(zip(indices, _grid_points(box, grid)))
    signs = {}
    for idx, pt in points.items():
        vals = [poly.evaluate(dict(zip(sigma.params, pt))) for poly in polys]
        if all(v != 0 for v in vals):
            signs[idx] = tuple(1 if v > 0 else -1 for v in vals)
    # one warning per distinct polynomial, however many components share it
    warnings = ["grid may be too coarse: %s keeps one sign on the grid" % poly
                for i, poly in enumerate(polys) if poly not in polys[:i]
                and len({vec[i] for vec in signs.values()}) == 1]
    if not signs:
        warnings.append("grid may be too coarse: no grid point lies off the "
                        "transition set")
    firsts = {}
    if granularity == "complete":
        seen = set()
        for idx in indices:
            if idx not in signs or idx in seen:
                continue
            firsts[idx] = idx
            seen.add(idx)
            stack = [idx]
            while stack:
                cur = stack.pop()
                for axis in range(len(cur)):
                    for d in (-1, 1):
                        nxt = cur[:axis] + (cur[axis] + d,) + cur[axis + 1:]
                        if nxt not in seen and signs.get(nxt) == signs[idx]:
                            seen.add(nxt)
                            stack.append(nxt)
    else:
        for idx in indices:
            if idx in signs:
                key = signs[idx]
                if granularity == "short":
                    key = 1
                    for s in signs[idx]:
                        key *= s
                firsts.setdefault(key, idx)
    reps = sorted((points[idx], signs[idx], granularity)
                  for idx in firsts.values())
    return reps, warnings


def with_extra_polys(sigma):
    # a1 - a2*a3 vanishes at many grid points; the other has denominators
    extra = [parse_and_expand("a1 - a2*a3", sigma.params, None),
             parse_and_expand("3/7*a1^2 - a2/5 + a3^3/9 - 1/11",
                              sigma.params, None)]
    comps = dict(sigma.components)
    comps["X"] = Component("X", systems=[extra])
    return TransitionSet(comps, sigma.params)


ASYMMETRIC_BOX = [(Fraction(-1, 3), Fraction(2, 7)),
                  (Fraction(-1), Fraction(1, 2)),
                  (Fraction(0), Fraction(5, 3))]

# a reversed axis (index order against coordinate order) and a zero-width
# axis (grid points that coincide)
REVERSED_FLAT_BOX = [(Fraction(1, 2), Fraction(-1, 3)),
                     (Fraction(1, 4), Fraction(1, 4)),
                     (Fraction(-1), Fraction(1))]


def sigma_of(params, *texts):
    """A transition set with one system per polynomial text."""
    systems = [[parse_and_expand(t, params, None)] for t in texts]
    return TransitionSet({"B": Component("B", systems=systems)}, params)


@pytest.mark.parametrize("granularity", ["short", "intermediate", "complete"])
def test_classify_regions_matches_brute_force(wc_sigma, quintic_sigma,
                                              granularity):
    cube = [(Fraction(-1), Fraction(1))] * 3
    square = [(Fraction(-1), Fraction(1))] * 2
    line = sigma_of(("a1",), "a1^2 - 1/4", "a1 - 1/3")
    four = sigma_of(("a1", "a2", "a3", "a4"), "a1*a2 - a3 + a4/3 - 1/7",
                    "a1^2 + a4^2 - 1/2", "a2 - a3*a4 + 1/5")
    shared = sigma_of(("a1",), "a1 + 1/3", "a1^2 - 1/4", "a1 + 1/3")
    cases = [(wc_sigma, cube, 9), (quintic_sigma, cube, 13),
             (wc_sigma, ASYMMETRIC_BOX, 8), (quintic_sigma, ASYMMETRIC_BOX, 8),
             (with_extra_polys(wc_sigma), cube, 9),
             (with_extra_polys(quintic_sigma), ASYMMETRIC_BOX, 8),
             (wc_sigma, REVERSED_FLAT_BOX, 9),
             (with_extra_polys(quintic_sigma), REVERSED_FLAT_BOX, 8),
             # grid 1 is the center, on the winged cusp's Σ: no region and
             # the warning that no grid point lies off Σ
             (wc_sigma, cube, 1), (wc_sigma, cube, 2),
             (with_extra_polys(quintic_sigma), ASYMMETRIC_BOX, 2),
             (line, [(Fraction(-1), Fraction(1))], 9),
             (line, [(Fraction(-1), Fraction(1))], 1),
             (line, [(Fraction(1, 2), Fraction(-1))], 2),
             (sigma_of(("a1", "a2"), "a1^2 + a2^2 - 1/2", "a1 - a2/3"),
              square, 7),
             (four, [(Fraction(-1), Fraction(1))] * 4, 5),
             (four, [(Fraction(-1), Fraction(1, 2))] * 4, 2),
             # two + bands that meet in flat order across an axis end: the
             # last index of one a2 row and the first of the next, and the
             # first and last a1 rows (-9 from the first wraps to the
             # table's end); a flood that stepped across would merge them
             (sigma_of(("a1", "a2"), "a2^2 - 1/4"), square, 9),
             (sigma_of(("a1", "a2"), "a1^2 - 1/4"), square, 9),
             # a polynomial that two systems share keeps one sign entry for
             # each, and one sign on [1/2, 1]: one warning
             (shared, [(Fraction(-1), Fraction(1))], 9),
             (shared, [(Fraction(1, 2), Fraction(1))], 5)]
    for sigma, box, grid in cases:
        cat = classify_regions(sigma, box=box, grid=grid,
                               granularity=granularity)
        reps, warnings = reference_regions(sigma, box, grid, granularity)
        assert cat.representatives == reps
        assert cat.warnings == warnings


@pytest.mark.parametrize("pairs", [2, 4])
def test_classify_regions_refuses_a_box_of_another_length(quintic_sigma,
                                                           pairs):
    # the quintic family has 3 parameters; the count is checked before
    # anything is evaluated, so a set without polynomials refuses it too
    box = [(-1, 1)] * pairs
    no_polys = TransitionSet({"B": Component("B")}, quintic_sigma.params)
    for sigma in (quintic_sigma, no_polys):
        with pytest.raises(ValueError, match="box has %d .* 3 param" % pairs):
            classify_regions(sigma, box=box, grid=5)


def test_classify_regions_memory_stays_small_at_grid_15():
    # the sign table and region labels are flat arrays of a few bytes per
    # grid point: 3375 points peak near 0.04 MiB, where dicts keyed by
    # index tuples would take about 0.7 MiB
    sigma = sigma_of(("a1", "a2", "a3"), "a1 - 1/3", "a2 + a3/2 - 1/5",
                     "a1*a2 - a3 + 1/7")
    tracemalloc.start()
    try:
        cat = classify_regions(sigma, grid=15)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cat.representatives) == 8 and peak < 2 ** 20 / 4


# ------------------------------------------------------------- diagrams


def traced_root_counts(diagram, lambdas):
    """Number of distinct x-roots read off the traced curves at each lambda
    sample; roots closer than 1e-5 count once."""
    counts = []
    for c in lambdas:
        xs = []
        for curve in diagram.curves:
            for (l0, x0), (l1, x1) in zip(curve, curve[1:]):
                if (l0 - c) * (l1 - c) <= 0 and l0 != l1:
                    t = (c - l0) / (l1 - l0)
                    if 0.0 <= t <= 1.0:
                        xs.append(x0 + t * (x1 - x0))
                elif l0 == l1 == c:
                    xs.extend([x0, x1])
        xs.sort()
        count = 0
        last = None
        for x in xs:
            if last is None or x - last > 1e-5:
                count += 1
            last = x
        counts.append(count)
    return tuple(counts)


def real_root_count(f, lo, hi):
    """Number of distinct real roots of the univariate f in [lo, hi], from
    a Sturm sequence (0 for a constant f)."""
    R = poly_ring(f.variables)
    return R.dup_count_real_roots(to_ring(f, R), _qq(R, lo), _qq(R, hi))


def exact_root_counts(G, alpha, lambdas, xwindow):
    """Sturm-sequence real-root counts of the lambda-slice polynomials."""
    x, lam = plane = G.body.variables[:2]
    body = G.body.compose({a: Jet.constant(v, plane)
                           for a, v in zip(G.body.variables[2:], alpha)})
    return tuple(real_root_count(body.compose({lam: Jet.constant(c, (x,))}),
                                 *xwindow)
                 for c in lambdas)


def test_fold_diagram_root_counts():
    G = fold()
    d = bifurcation_diagram(G, (0,), resolution=100)
    assert traced_root_counts(d, [-0.5, 0.5]) == (0, 2)
    assert exact_root_counts(G, (0,), [Fraction(-1, 2), Fraction(1, 2)],
                             (-1, 1)) == (0, 2)


def test_pitchfork_diagram_root_counts():
    G = make_unfolding(jet({(3, 0): 1, (1, 1): -1}), [jet({(0, 0): 1})])
    d = bifurcation_diagram(G, (0,), resolution=100)
    assert traced_root_counts(d, [-0.5, 0.5]) == (1, 3)
    assert exact_root_counts(G, (0,), [Fraction(-1, 2), Fraction(1, 2)],
                             (-1, 1)) == (1, 3)


def test_diagram_keeps_curve_through_zero_vertex():
    # G = x^5 - lam - x/2 is exactly 0 at the grid vertex (lam, x) = (0, 0)
    G = quintic()
    alpha = (Fraction(-1, 2), 0, 0)
    lambdas = [Fraction(k, 1000) for k in (-3, -1, 1, 3)]
    d = bifurcation_diagram(G, alpha, resolution=100)
    assert evaluator(G.body, G.params, alpha)(0.0, 0.0) == 0.0
    assert traced_root_counts(d, [float(c) for c in lambdas]) \
        == exact_root_counts(G, alpha, lambdas, (-1, 1)) == (3, 3, 3, 3)


def test_quintic_complete_list_diagrams(quintic_sigma):
    G = quintic()
    cat = classify_regions(quintic_sigma, grid=13, granularity="complete")
    assert len(cat.representatives) == 12
    # samples avoid lambda = 0, where several representatives have a fold
    # of the diagram itself (i/27 never equals 1/2)
    lambdas = [Fraction(-6, 5) + Fraction(12, 5) * Fraction(i, 27)
               for i in range(1, 26)]
    signatures = set()
    for point, _signs, _tag in cat.representatives:
        d = bifurcation_diagram(G, point,
                                window=((-1.2, 1.2), (-1.5, 1.5)),
                                resolution=200)
        sig = traced_root_counts(d, [float(c) for c in lambdas])
        exact = exact_root_counts(G, point, lambdas,
                                  (Fraction(-3, 2), Fraction(3, 2)))
        assert sig == exact, point
        signatures.add(sig)
    assert len(signatures) >= 9


@pytest.mark.parametrize("text, params, hysteresis", [
    ("x^3 - x*lam + a1 + a2*x^2", ("a1", "a2"), 27 * A1 - A2 ** 3),
    ("x^3 - lam + a1*x", ("a1",), A1),
])
def test_no_spurious_double_limit_set(text, params, hysteresis):
    # a cubic in x has no two distinct double roots, so D is empty; only the
    # diagonal x1 = x2 (the hysteresis set) solves the double-limit equations
    body = parse_and_expand(text, X + params, None)
    sigma = transition_set(UnfoldingGerm(body, params))
    assert sigma.components["D"].is_empty
    comp = sigma.components["H"]
    assert len(comp.systems) == 1 and len(comp.systems[0]) == 1
    assert same_curve(expr_of(comp.systems[0][0]), hysteresis)


def test_gamma1_has_no_plane_factor(boundary_sigma):
    # (a1, a2, a3) = (0, -2, 0) lies on the plane a2 = -2, but there
    # F(-2, lam) = 16 has no root, so no G_1 point sits above it
    point = {A1: 0, A2: -2, A3: 0}
    assert FQ.subs({XS: -2}).subs(point) == 16
    poly = expr_of(boundary_sigma.components["G_1"].systems[0][0])
    assert poly.subs(point) != 0


XA = X + ("a1",)


def jets_in_x_lam_a1():
    return st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 2)),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        max_size=6).map(lambda terms: Jet(terms, XA, None))


@settings(max_examples=20, deadline=None)
@given(jets_in_x_lam_a1(),
       st.just(Fraction(0)) | st.fractions(min_value=-3, max_value=3,
                                           max_denominator=4))
def test_divided_difference_times_x_minus_u_restores_the_body(F, u):
    # F(x) = F(u) + (x - u)*DD exactly, for every jet and rational u
    at_u = F.compose({"x": Jet.constant(u, XA)})
    x_minus_u = Jet.variable("x", XA) - Jet.constant(u, XA)
    assert x_minus_u * _divided_difference(F, u) + at_u == F
    # the part of F free of x has divided difference zero
    free = Jet({m: c for m, c in F.terms.items() if m[0] == 0}, XA, None)
    assert _divided_difference(free, u).is_zero()


def test_eliminate_drops_zero_generators():
    # G_1 of a body free of x passes a zero divided difference
    F = jet({(0, 1): 1, (0, 2): -1})
    Fx = jet({(1, 0): 1})
    zero = _divided_difference(F, Fraction(2))
    assert zero.is_zero()
    assert eliminate([F, zero, Fx], list(X)) == eliminate([F, Fx], list(X))


def _gamma1_with_a_second_copy_of_f(G, U):
    """G_1 from the system F(u, lam) = F(x, lam) = F_x(x, lam) = 0, each
    boundary value u of U in turn, kept as nonpersistent_sets keeps a
    family's systems."""
    body = G.body
    xn, ln = body.variables[:2]
    systems = []
    for u in U:
        at_u = body.compose({xn: Jet.constant(u, body.variables)})
        polys = eliminate([at_u, body, body.diff(xn)], [xn, ln])
        cuts = polys and not (len(polys) == 1
                              and polys[0].total_degree() == 0)
        if cuts and polys not in systems:
            systems.append(polys)
    return systems


@pytest.mark.parametrize("family, params, U, L", [
    (None, None, (-2, 2), (1, 3)),
    ("x^3 - lam + a1*x", ("a1",), (-1, 2), (-1, 1)),
    ("x^5 - lam + a1*x + a2*x^2", ("a1", "a2"), (-1, 1), (0, 1)),
], ids=["quartic", "hysteresis", "quintic"])
def test_gamma1_equals_the_system_with_a_second_copy_of_f(
        boundary_sigma, family, params, U, L):
    # the divided-difference system and F(u) = F = F_x = 0 have the same
    # zeros, so their projections have the same radical generators
    if family is None:
        G, sigma = winged_cusp(), boundary_sigma
    else:
        G = UnfoldingGerm(parse_and_expand(family, X + params, None), params)
        sigma = nonpersistent_sets(G, U, L, vertical=True)
    systems = sigma.components["G_1"].systems
    assert systems and systems == _gamma1_with_a_second_copy_of_f(G, U)


# ------------------------------------------------------------- rendering


def test_render_diagram_files(tmp_path):
    G = make_unfolding(jet({(3, 0): 1, (1, 1): -1}), [jet({(0, 0): 1})])
    d = bifurcation_diagram(G, (0,), resolution=80)
    paths = render_diagram(d, str(tmp_path / "pitchfork.svg"))
    assert len(paths) == 2
    svg = open(paths[0]).read()
    assert svg.startswith("<?xml") and "<polyline" in svg
    g = evaluator(G.body, G.params, (0,))
    lines = open(paths[1]).read().splitlines()
    assert lines[0] == "curve_id,lambda,x"
    assert len(lines) > 10
    for line in lines[1:]:
        _cid, lam, x = line.split(",")
        assert abs(g(float(x), float(lam))) <= 1e-9


def test_render_transition_slice(wc_sigma, tmp_path):
    paths = render_transition_slice(wc_sigma, str(tmp_path / "slice.svg"),
                                    fixed={"a3": Fraction(-1, 2)})
    svg = open(paths[0]).read()
    assert svg.startswith("<?xml")
    lines = open(paths[1]).read().splitlines()
    assert lines[0] == "component," + ",".join(wc_sigma.params)
    assert len(lines) > 1
    for line in lines[1:]:
        fields = line.split(",")
        name = fields[0]
        env = dict(zip(wc_sigma.params,
                       (Fraction(v) for v in fields[1:])))
        envf = {k: float(v) for k, v in env.items()}
        residual = min(abs(float(expr_of(p).subs(
            {sympy.Symbol(k): v for k, v in envf.items()})))
            for p in wc_sigma.components[name].polys())
        assert residual <= 1e-7, line


def test_transition_slice_needs_two_free_parameters(wc_sigma, tmp_path):
    # fixing two of the winged cusp's three parameters leaves one free
    with pytest.raises(ValueError, match="exactly 2 free parameters"):
        render_transition_slice(wc_sigma, str(tmp_path / "s.svg"),
                                fixed={"a2": 0, "a3": 0})
    with pytest.raises(ValueError, match="exactly 2 free parameters"):
        render_transition_slice(wc_sigma, str(tmp_path / "s.svg"),
                                free=("a1", "a2", "a3"))
    assert list(tmp_path.iterdir()) == []


def test_realness_conditions_of_one_d_polynomial_and_constant_signs():
    params = ("a1", "a2")
    in_w = lambda text: parse_and_expand(text, ("w",) + params, None)
    d = parse_and_expand("a1 - a2", params, None)
    # w - a1*a2 gives w = a1*a2 on D, real where a1*a2 >= 0
    [cond] = _realness_conditions([in_w("w - a1*a2")], [d], params)
    assert (str(cond.poly), cond.relation) == ("a1*a2", ">=")
    # w = a1^2 is real everywhere; w = -a1^2 only on a1 = 0, no condition
    assert _realness_conditions([in_w("w - a1^2")], [d], params) == []
    assert _realness_conditions([in_w("w + a1^2")], [d], params) is None
    # D cut out by two polynomials: no single one to be coprime to
    assert _realness_conditions([in_w("w - a1*a2")], [d, d], params) is None


def test_transition_slice_polylines_are_chained(tmp_path):
    circle = parse_and_expand("a1^2 + a2^2 - 1/4", ("a1", "a2"), None)
    sigma = TransitionSet({"B": Component("B", systems=[[circle]])},
                          ("a1", "a2"))
    paths = render_transition_slice(sigma, str(tmp_path / "circle.svg"))
    svg = open(paths[0]).read()
    assert svg.count("<polyline") == 1
    points = svg.split('points="')[1].split('"')[0].split()
    assert len(points) > 2 and points[0] == points[-1]
    assert len(open(paths[1]).read().splitlines()) == len(points) + 1


def _isola():
    body = parse_and_expand("x^2 + lam^2 - 1/4", X, None)
    return evaluator(body, (), ())


def _circle():
    circle = parse_and_expand("a1^2 + a2^2 - 1/4", ("a1", "a2"), None)
    return _PlanePoly(circle, "a2", "a1", {})


def _zero_vertex():
    # x^5 - lam - x/2 is exactly 0 at the grid vertex (lam, x) = (0, 0)
    G = quintic()
    return evaluator(G.body, G.params, (Fraction(-1, 2), 0, 0))


@pytest.mark.parametrize("plane", [_isola, _circle, _zero_vertex])
def test_march_crossings_lie_on_their_grid_lines(plane):
    # a crossing on a horizontal edge is rooted in h at its grid line's v,
    # one on a vertical edge in v at its grid column's h (by the closed form
    # of a linear edge, regula falsi or bisection): one coordinate is a grid
    # coordinate bit for bit, and g's restriction to that line is within
    # TOL of 0 there; a vertex on both grid lines is an exact zero
    g = plane()
    n, window = 100, ((-1.0, 1.0), (-1.0, 1.0))
    (hlo, hhi), (vlo, vhi) = window
    dh, dv = (hhi - hlo) / n, (vhi - vlo) / n
    hs = {hlo + j * dh for j in range(n + 1)}
    vs = {vlo + i * dv for i in range(n + 1)}
    kinds = {"h": 0, "v": 0}
    for curve in _march(g, window, n):
        for h, v in curve:
            assert h in hs or v in vs
            if h in hs and v in vs:
                assert g(v, h) == 0.0
            elif v in vs:
                kinds["h"] += 1
                assert abs(_horner(g.line(v), h)) <= TOL
            else:
                kinds["v"] += 1
                assert abs(_horner(g.column(h), v)) <= TOL
    # both restrictions were rooted: the curve has degree 2 or more in h
    assert kinds["h"] > 0 and kinds["v"] > 0


@pytest.mark.parametrize("hc, vc", [(0.3, 0.2), (0.3, 0.3)])
def test_march_splits_a_saddle_cell_by_its_centre(hc, vc):
    # g = (v - vc)*(h - hc) crosses itself inside the cell [0, 1/2]^2 of a
    # 4 x 4 grid; the cell gives two segments, each joining the zeros on
    # the two edges at a corner whose sign differs from the centre's (with
    # vc = 0.3 the centre has corner (0, 0)'s sign, with vc = 0.2 not)
    cross = parse_and_expand("(a2 - %s)*(a1 - %s)" % (Fraction(vc),
                                                        Fraction(hc)),
                             ("a1", "a2"), None)
    g = _PlanePoly(cross, "a2", "a1", {})
    window = ((-1.0, 1.0), (-1.0, 1.0))
    inside = [(a, b) for curve in _march(g, window, 4)
              for a, b in zip(curve, curve[1:])
              if 0 < (a[0] + b[0]) / 2 < 0.5 and 0 < (a[1] + b[1]) / 2 < 0.5]
    centre = g(0.25, 0.25)
    cut = [(h, v) for h in (0.0, 0.5) for v in (0.0, 0.5)
           if (g(v, h) > 0) != (centre > 0)]
    assert len(inside) == len(cut) == 2

    def corner(segment):
        """The corner (h, v) whose edges hold the segment's two ends: a
        zero near (h, vc) on the vertical edge and one near (hc, v) on the
        horizontal edge, each exactly on its grid line."""
        a, b = segment
        if a[0] not in (0.0, 0.5):
            a, b = b, a
        (h, v1), (h2, v) = a, b
        assert h in (0.0, 0.5) and v in (0.0, 0.5)
        assert abs(v1 - vc) < 1e-8 and abs(h2 - hc) < 1e-8
        return h, v

    assert sorted(map(corner, inside)) == sorted(cut)


def test_march_of_the_transpose_swaps_the_coordinates():
    # g has degree 3 in x and 1 in lam: traced with v = x it is evaluated
    # row by row, with v = lam column by column, and the two traces hold
    # the same points, (h, v) in one and (v, h) in the other
    body = parse_and_expand("x^3 - x*lam + lam/4 - 1/8", X, None)
    window, n = ((-1.0, 1.0), (-1.0, 1.0)), 60
    rows, cols = _PlanePoly(body, "x", "lam", {}), _PlanePoly(body, "lam",
                                                             "x", {})
    assert len(rows.lines) < len(rows.cols)
    assert len(cols.lines) > len(cols.cols)
    points = {pt for curve in _march(rows, window, n) for pt in curve}
    swapped = {(v, h) for curve in _march(cols, window, n) for h, v in curve}
    assert len(points) > 100 and points == swapped


@st.composite
def _plane_polys(draw):
    """Integer polynomials in (x, lam) with degrees 1-4 in x and in lam,
    the two degrees unequal; each top power is present."""
    dx, dl = draw(st.lists(st.integers(1, 4), min_size=2, max_size=2,
                           unique=True))
    terms = {(i, j): draw(st.integers(-4, 4)) for i in range(dx + 1)
             for j in range(dl + 1)}
    nonzero = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])
    terms[dx, 0], terms[0, dl] = draw(nonzero), draw(nonzero)
    return jet({m: c for m, c in terms.items() if c})


@settings(max_examples=24, deadline=None)
@given(_plane_polys())
def test_march_crossings_match_sign_changes_on_every_grid_line(body):
    # with no vertex within 1e-9 of the curve, a grid column holds one
    # curve vertex per sign change of g between its vertices (`_crossing`
    # leaves h exactly at the column's value and puts v strictly inside the
    # edge), and a grid row likewise; the signs are exact, at the tracer's
    # float grid vertices (the grid misses 0 and +-1, where integer
    # polynomials often vanish)
    g = _PlanePoly(body, "x", "lam", {})
    n, lo, hi = 16, -0.97, 1.03
    grid = [lo + k * ((hi - lo) / n) for k in range(n + 1)]
    exact = [[body.evaluate({"x": Fraction(v), "lam": Fraction(h)})
              for v in grid] for h in grid]
    assume(all(abs(val) >= 1e-9 for line in exact for val in line))
    points = {pt for curve in _march(g, ((lo, hi), (lo, hi)), n)
              for pt in curve}

    def changes(vals):
        return sum((a > 0) != (b > 0) for a, b in zip(vals, vals[1:]))

    for k, t in enumerate(grid):
        column = exact[k]
        row = [exact[j][k] for j in range(n + 1)]
        assert sum(h == t for h, _v in points) == changes(column)
        assert sum(v == t for _h, v in points) == changes(row)


def horner_signs(coeffs, points):
    """Reference for `_line_signs`: every point's value by Horner's rule,
    its sign byte, and the points where it is exactly 0.0."""
    values = []
    for t in points:
        val = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            val = val * t + c
        values.append(val)
    return (bytes(val > 0 for val in values),
            [m for m, val in enumerate(values) if val == 0.0])


@st.composite
def _grid_and_line(draw):
    """An ascending grid as `_march` builds it, and the coefficients of a
    line of degree <= 1 on it: rising, falling, constant or identically
    zero, sometimes with its root placed exactly on a grid vertex or
    strictly between two, sometimes with a slope so small that several
    vertices give 0.0, and sometimes with its root so far outside the grid
    that -c0/c1 overflows to +-inf."""
    n = draw(st.integers(1, 60))
    lo = draw(st.floats(-10, 10))
    hi = lo + draw(st.floats(1e-3, 20))
    points = [lo + j * ((hi - lo) / n) for j in range(n + 1)]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(["any", "vertex", "between", "far", "tiny",
                                 "constant", "zero"]))
    if kind == "constant":
        return points, [draw(finite)]
    if kind == "zero":
        return points, draw(st.sampled_from([[0.0], [0], [0.0, 0.0],
                                             [-0.0, 0.0], [0.0, -0.0]]))
    if kind == "far":
        c1 = draw(st.floats(1e-320, 1e-300, allow_subnormal=True))
        c0 = draw(st.floats(1e10, 1e300))
        c0, c1 = draw(st.sampled_from([(c0, c1), (-c0, c1), (c0, -c1),
                                       (-c0, -c1)]))
        assert math.isinf(-c0 / c1)
        return points, [c0, c1]
    c1 = draw(finite if kind != "tiny"
              else st.floats(-1e-320, 1e-320, allow_subnormal=True))
    if kind == "vertex":
        c0 = -(c1 * points[draw(st.integers(0, n))])
    elif kind == "between":
        m = draw(st.integers(0, n - 1))
        root = points[m] + draw(st.floats(0.01, 0.99)) * (points[m + 1]
                                                         - points[m])
        assume(points[m] < root < points[m + 1])
        c0 = -(c1 * root)
    else:
        c0 = draw(finite)
    return points, [c0, c1]


@settings(max_examples=300, deadline=None)
@given(_grid_and_line())
def test_line_signs_of_a_linear_line_match_horner(case):
    # a line of degree <= 1 is read from its float root's place among the
    # points, or by two binary searches, which must give the bytes and the
    # exact zeros that Horner's rule gives point by point
    points, coeffs = case
    signs, zeros = _line_signs(coeffs, points)
    assert (signs, list(zeros)) == horner_signs(coeffs, points)


@pytest.mark.parametrize("coeffs", [
    [1.0, math.inf],       # inf * 0.0 is NaN at the vertex 0.0
    [math.nan, 2.0],
    [-math.inf, 0.5],
    [0.25, -1.0, 1.0],     # degree 2: t^2 - t + 1/4, a double root at 1/2
])
def test_line_signs_of_other_lines_match_horner(coeffs):
    # a non-finite coefficient or a degree above 1 keeps the evaluation at
    # every point
    points = [-1.0 + j * (2.0 / 8) for j in range(9)]
    assert 0.0 in points and 0.5 in points
    signs, zeros = _line_signs(coeffs, points)
    assert (signs, list(zeros)) == horner_signs(coeffs, points)


def bisect_reference(coeffs, t0, t1, v0):
    """Reference for `_crossing`: halve [t0, t1], where the polynomial's
    sign is that of v0 (nonzero) at t0 and the other one at t1, until
    |value| <= TOL or 80 halvings; returns the last midpoint."""
    for _ in range(80):
        tm = (t0 + t1) / 2.0
        vm = _horner(coeffs, tm)
        if abs(vm) <= TOL:
            return tm
        if (vm > 0) == (v0 > 0):
            t0, v0 = tm, vm
        else:
            t1 = tm
    return (t0 + t1) / 2.0


def _exact_sign(coeffs, t):
    value = sum(c * Fraction(t) ** k for k, c in enumerate(coeffs))
    return (value > 0) - (value < 0)


@st.composite
def _edges(draw):
    """An integer polynomial of degree 1-5 (coefficients lowest degree
    first), an edge [t0, t1] and the grid's sign at t0 (True for > 0), the
    other sign at t1.  Either the ends' exact signs differ and are the
    grid's, or the polynomial has the factor q*t - p and one end is the
    float nearest p/q, where the grid's sign is the other end's opposite:
    there the float value is often 0.0 or of the other sign, as at a
    vertex that the grid read along the other axis."""
    degree = draw(st.integers(1, 5))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-6, 6), min_size=degree + 1,
                               max_size=degree + 1))
        assume(coeffs[-1] != 0)
        t0 = draw(st.floats(-2, 2))
        t1 = t0 + draw(st.floats(1e-3, 2))
        s0, s1 = _exact_sign(coeffs, t0), _exact_sign(coeffs, t1)
        assume(s0 * s1 == -1)
        return coeffs, t0, t1, s0 > 0
    q = draw(st.integers(1, 12))
    p = draw(st.integers(-2 * q, 2 * q))
    rest = draw(st.lists(st.integers(-3, 3), min_size=degree,
                         max_size=degree))
    assume(rest[-1] != 0)
    coeffs = [0] * (degree + 1)
    for k, c in enumerate(rest):  # (q*t - p) * rest
        coeffs[k] -= p * c
        coeffs[k + 1] += q * c
    end, width = float(Fraction(p, q)), draw(st.floats(1e-3, 1))
    if draw(st.booleans()):
        t0, t1 = end, end + width
        far = _exact_sign(coeffs, t1)
        assume(far)
        return coeffs, t0, t1, far < 0
    t0, t1 = end - width, end
    far = _exact_sign(coeffs, t0)
    assume(far)
    return coeffs, t0, t1, far > 0


def _roots_in(coeffs, t0, t1):
    """The real roots in [t0, t1], counted with multiplicity."""
    t = sympy.Symbol("t")
    poly = sympy.Poly(list(reversed(coeffs)), t)
    lo, hi = sympy.Rational(Fraction(t0)), sympy.Rational(Fraction(t1))
    return sum(m * factor.count_roots(lo, hi)
               for factor, m in poly.sqf_list()[1])


@settings(max_examples=200, deadline=None)
@given(_edges())
# (1 - 2t)(t + 2) is exactly 0.0 at the end 1/2, where the grid saw > 0:
# its own value there is no sign, so the edge is bisected from the grid's
@example(([2, -3, -2], 0.5, 1.0, True))
# 11t - 15 is -1.8e-15 at the float nearest 15/11 < 15/11, where -c0/c1
# rounds to that end: the closed form is not strictly inside the edge
@example(([-15, 11], float(Fraction(15, 11)), 1.5, False))
# t^5 - 1 on [0, 2]: regula falsi alone keeps the end 2 and creeps up on 1
@example(([-1, 0, 0, 0, 0, 1], 0.0, 2.0, False))
def test_crossing_agrees_with_bisection(edge):
    # the crossing lies strictly inside the edge with |value| <= TOL (in
    # this range 80 halvings always get there).  Where an end's float value
    # is 0.0 or disagrees with the grid's sign it is the grid-sign
    # bisection's point bit for bit.  Where the edge holds one root,
    # counted exactly, it is within 1e-7 of that point, unless an end is
    # itself within TOL of 0: the stopping rule then admits points near
    # that end too
    coeffs, t0, t1, positive = edge
    floats = [float(c) for c in coeffs]
    reference = bisect_reference(floats, t0, t1, 1.0 if positive else -1.0)
    t = _crossing(floats, t0, t1, positive)
    assert t0 < t < t1
    assert abs(_horner(floats, t)) <= TOL
    f0, f1 = _horner(floats, t0), _horner(floats, t1)
    if f0 == 0.0 or f1 == 0.0 or (f0 > 0) != positive or (f1 > 0) == positive:
        assert t == reference
    if min(abs(f0), abs(f1)) > TOL and _roots_in(coeffs, t0, t1) == 1:
        assert abs(t - reference) <= 1e-7


def test_crossing_keeps_the_grid_sign_where_g_is_exactly_zero(monkeypatch):
    # G = x^4 - lam*x + 1/2 + 2/3*lam + 1/12*x^2 is exactly 0 at (lam, x) =
    # (-19/20, -1).  The grid reads the vertex (-0.95, -1.0) by rows, where
    # G is 2.2e-16 > 0, but its grid column's polynomial in x is not > 0
    # there; the crossing on the column edge above the vertex keeps the
    # grid's sign, so each vertex of the diagram is within 1e-7 of the one
    # that grid-sign bisection gives.  Both stop where |G| <= TOL, which on
    # the flattest crossed edge, of slope 0.077, spans 2.6e-8
    G, alpha = winged_cusp(), (Fraction(1, 2), Fraction(2, 3), Fraction(1, 12))
    g = evaluator(G.body, G.params, alpha)
    assert _horner(g.line(-1.0), -0.95) > 0 >= _horner(g.column(-0.95), -1.0)
    curves = bifurcation_diagram(G, alpha, resolution=400).curves
    monkeypatch.setattr(
        "germforge.bifurcation._crossing",
        lambda coeffs, t0, t1, positive: bisect_reference(
            coeffs, t0, t1, 1.0 if positive else -1.0))
    reference = bifurcation_diagram(G, alpha, resolution=400).curves
    assert [len(c) for c in curves] == [len(c) for c in reference]
    assert max(max(abs(h - rh), abs(v - rv))
               for curve, ref in zip(curves, reference)
               for (h, v), (rh, rv) in zip(curve, ref)) <= 1e-7


@pytest.mark.parametrize("window", [
    ((1.0, 1.0), (-1.0, 1.0)),
    ((1.0, -1.0), (-1.0, 1.0)),
    ((-1.0, 1.0), (0.5, -0.5)),
])
def test_an_empty_or_reversed_window_is_refused(window, tmp_path):
    # a diagram and a slice both refuse it before writing a file, and an
    # unbounded or NaN window too
    with pytest.raises(ValueError, match="lo < hi"):
        bifurcation_diagram(fold(), (0,), window=window, resolution=20)
    unbounded = [((-math.inf, 1.0), (-1.0, 1.0)),
                 ((-1.0, 1.0), (-1.0, math.inf)),
                 ((-1.0, math.nan), (-1.0, 1.0))]
    for box in unbounded:
        with pytest.raises(ValueError, match="finite"):
            bifurcation_diagram(fold(), (0,), window=box, resolution=20)
    circle = parse_and_expand("a1^2 + a2^2 - 1/4", ("a1", "a2"), None)
    sigma = TransitionSet({"B": Component("B", systems=[[circle]])},
                          ("a1", "a2"))
    path = str(tmp_path / "s.svg")
    with pytest.raises(ValueError, match="lo < hi"):
        render_transition_slice(sigma, path, box=window, resolution=20)
    for box in unbounded:
        with pytest.raises(ValueError, match="finite"):
            render_transition_slice(sigma, path, box=box, resolution=20)
    assert not list(tmp_path.iterdir())


def test_march_memory_stays_small_at_resolution_800():
    # the tracer keeps one byte per grid vertex, not a float: a degree-5
    # curve at resolution 800 peaks near 2 MiB, where a float table of the
    # 801 x 801 vertices would take about 22 MiB
    G = quintic()
    g = evaluator(G.body, G.params, (Fraction(-1, 2), Fraction(1, 3), 0))
    tracemalloc.start()
    try:
        curves = _march(g, ((-1.0, 1.0), (-1.0, 1.0)), 800)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert curves and peak < 8 * 2 ** 20


def test_pieces_where_cuts_each_segment_at_the_condition():
    # |h| >= 1/3 fails between -0.4 and 0.2: the polyline is cut on those
    # two segments, within TOL of -1/3 and 1/3, on the side where it holds
    curve = [(h, 0.0) for h in (-1.0, -0.7, -0.4, -0.1, 0.2, 0.5, 0.8)]

    def holds(point):
        return Fraction(point[0]) ** 2 >= Fraction(1, 9)

    first, second = _pieces_where(curve, holds)
    assert first[:-1] == curve[:3] and second[1:] == curve[5:]
    for (h, v), bound in ((first[-1], -1), (second[0], 1)):
        assert v == 0.0 and holds((h, v))
        assert abs(h - bound / 3) <= TOL


def test_slice_draws_double_limit_points_only_where_real(tmp_path):
    # D = {a1 = 0} with a2 <= 0: D's polyline, the grid line a1 = 0, ends at
    # the exact cut a2 = 0 and keeps every vertex with a2 < 0
    params = ("a1", "a2")
    G = UnfoldingGerm(parse_and_expand("x^4 - lam + a1*x + a2*x^2",
                                       X + params, None), params)
    sigma = transition_set(G)
    assert str(sigma.components["D"]) == "D: {a1 = 0} with a2 <= 0"
    paths = render_transition_slice(sigma, str(tmp_path / "q.svg"))
    rows = [line.split(",") for line in
            open(paths[1]).read().splitlines()[1:]]
    d = [(float(a1), float(a2)) for name, a1, a2 in rows if name == "D"]
    assert all(a1 == 0.0 for a1, _a2 in d)
    assert max(a2 for _a1, a2 in d) == 0.0
    # the CSV prints the grid's coordinates -1 + i*(2/200) to 12 digits
    assert sorted(a2 for _a1, a2 in d) == [
        float("%.12g" % (-1.0 + i * (2.0 / 200))) for i in range(101)]
    # H has no side condition and is drawn whole, through the cusp at 0
    assert ["H", "0", "0"] in rows
