"""End-to-end acceptance checks: one test per headline capability.

Exact-rational results use equality; numeric witness checks use tolerance
1e-9.  Heavier verification logic is shared with the per-module suites and
invoked from here so every criterion runs in a single file.
"""

from fractions import Fraction

import pytest

import test_bifurcation as tb
import test_intrinsic as ti
import test_localalg as tl
import test_singularity as ts
from germforge.germexpr import parse_and_expand
from germforge.intrinsic import intrinsic_part
from germforge.jets import Jet, LocalOrder
from germforge.localalg import (
    codimension,
    colon_ideal,
    mora_divide,
    mult_matrix,
    normal_set,
    standard_basis,
)
from germforge.singularity import (
    alg_objects,
    check_universal,
    make_unfolding,
    normal_form,
    recognition_normal_form,
    recognition_unfolding,
    restricted_tangent,
    tangent_perp,
    tangent_space,
    transformation,
    universal_unfolding,
)
from germforge.bifurcation import nonpersistent_sets, transition_set

V = ("x", "lam")
LO = LocalOrder()


def j(text, k=None):
    return parse_and_expand(text, V, k)


@pytest.fixture(scope="module")
def wc_sigma():
    return transition_set(tb.winged_cusp())


@pytest.fixture(scope="module")
def quintic_sigma():
    return transition_set(tb.quintic())


@pytest.fixture(scope="module")
def boundary_sigma():
    return nonpersistent_sets(tb.winged_cusp(), (-2, 2), (1, 3))


def test_criterion_01_standard_basis():
    k = 7
    G = [
        j("x^5 + x^2*sin(lam + x) + lam^2", k),
        j("x^3*lam^2 + cos(lam)*x", k),
        j("lam^6 + x^4 - lam*x", k),
    ]
    sb = standard_basis(G, LO, k)
    assert sorted(str(f) for f in sb.generators) == ["lam^2", "x"]
    assert tl.ideals_equal(sb.generators, [j("x", k), j("lam^2", k)], k)


def test_criterion_02_division_remainder():
    k = 8
    g = j("sin(x^7) - 1", k)
    G = [
        j("x^5 + x^6*exp(lam)", k),
        j("x*lam^3 - 2/7*x*lam^6 - x^7", k),
        j("lam*cos(x^7)", k),
    ]
    res = mora_divide(g, G, LO, k)
    assert res.remainder == Jet.constant(-1, V, k)
    assert res.check(g, G)


def test_criterion_03_normal_set():
    gens = [j(s) for s in tl.NS_EXAMPLE]
    ns = normal_set(gens)
    printed = {
        (0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (3, 0), (4, 0), (5, 0),
        (1, 1), (3, 1), (2, 1),
    }
    assert set(ns) == printed and len(ns) == 11
    assert codimension(gens) == 11


def test_criterion_04_mult_matrix():
    k = 6
    A = [
        j("x^6 + 12/27*x^10*lam^9", k),
        j("5/3*x^5 + lam*sin(x^3)", k),
        j("lam^2 - 2/3*(1 - exp(x^5))", k),
    ]
    M, basis = mult_matrix(A, (1, 0), k)
    n = len(basis)
    assert n == 9 and basis[0] == (0, 0)
    index = {m: i for i, m in enumerate(basis)}
    # entry-exact: every column is either the shift x*m, the reduction of
    # x^3*lam to -5/3*x^5, or zero (x^6 lies in the ideal)
    for jcol, m in enumerate(basis):
        col = [M[i][jcol] for i in range(n)]
        target = (m[0] + 1, m[1])
        if target in index:
            expected = [Fraction(0)] * n
            expected[index[target]] = Fraction(1)
        elif m == (2, 1):
            expected = [Fraction(0)] * n
            expected[index[(5, 0)]] = Fraction(-5, 3)
        else:
            assert m == (5, 0)
            expected = [Fraction(0)] * n
        assert col == expected, m
    Ml, _ = mult_matrix(A, (0, 1), k)

    def matmul(P, Q):
        return [[sum(P[i][t] * Q[t][c] for t in range(n)) for c in range(n)]
                for i in range(n)]

    assert matmul(M, Ml) == matmul(Ml, M)


def test_criterion_05_colon_ideal():
    I = [
        j("x^7 + lam*x^3 - lam^2*x"),
        j("lam*x^6 + lam^2*x^2 - lam^3"),
        j("x^3*lam + x"),
    ]
    out = colon_ideal(I, j("lam"))
    printed = [
        j("x*(lam*x^2 + 1)"),
        j("lam^2*x^2 - x^4 - lam^3"),
        j("lam^4 + lam^2 - x^2"),
        j("x*(x^4 + lam^3 + lam)"),
    ]
    k = 8
    assert tl.ideals_equal(out, printed, k)
    sb = standard_basis(I, LO, k)
    for f in out:
        assert sb.contains((f * j("lam")).truncate(k))


def test_criterion_06_intrinsic_examples():
    r = intrinsic_part([j("x^3*lam + lam^2"), j("3*x^3*lam"),
                        j("3*x^2*lam^2")])
    assert r.ideal.blocks == ((3, 1), (0, 2))
    assert str(r.ideal) == "M^3<lambda> + <lambda^2>"

    A = [j("x^5 + lam*x^3 + lam^2"), j("5*x^5 + 3*x^3*lam"),
         j("5*x^4*lam + 3*x^2*lam^2")]
    B = [j("lam*x^3 + 2*lam^2"), j("x^3 + 2*lam"), j("x^4 + 3/5*lam*x^2"),
         j("lam^2"), j("x^5")]
    r2 = ti.intrinsic_part_of_sum(A, B)
    assert r2.blocks == ((5, 0), (3, 1), (0, 2))
    assert str(r2) == "M^5 + M^3<lambda> + <lambda^2>"


def test_criterion_07_alg_objects_tower():
    g = j(ts.QUINTIC, 6)
    ao = alg_objects(g)
    assert ao.p.blocks == ((6, 0), (1, 3))
    assert ao.s.blocks == ((5, 0), (0, 3))
    assert ao.intrinsic_generators == [(5, 0), (0, 3)]
    assert len(ao.e_over_t) == 10 and len(ao.s_perp) == 12
    rt = restricted_tangent(g)
    printed_rt = ts.span_of(
        [(6, 0), (1, 3)], [],
        [j("x^4*lam"), j("3*lam^2*x^3 + 5*x^5"),
         j("lam^2*x^3 + x^5 + lam^3")], 6)
    assert ts.spaces_equal(rt.space, printed_rt)
    t = tangent_space(g)
    printed_t = ts.span_of(
        [(5, 0), (0, 3)],
        [j("3/5*lam^2*x^2 + x^4"), j("x^3*lam + 3/2*lam^2")], [], 6)
    assert ts.spaces_equal(t.space, printed_t)


def test_criterion_08_tangent_perp():
    tp = tangent_perp(j("x^8 + sin(lam^3)", 9))
    expected = ({(a, 0) for a in range(7)} | {(a, 1) for a in range(7)}
                | {(a, 2) for a in range(1, 7)})
    assert set(tp) == expected and len(tp) == 20


def test_criterion_09_normal_forms():
    cases = [
        ("x^3 - sin(lam)", "x^3 - lam"),
        ("1 - 1/(1 + x^4 - lam^2)", "x^4 - lam^2"),
        ("x^5 + x^3*lam + sin(lam^2)", "x^5 + x^3*lam + lam^2"),
    ]
    for text, expected in cases:
        nf = normal_form(lambda k, t=text: j(t, k))
        assert nf.germ == j(expected, nf.germ.degree)
        assert nf.warnings == []


def test_criterion_10_universal_unfoldings():
    expected = {"a1 - x*lam + lam*a2 + x^3", "a1 - x*lam + x^3 + x^2*a2"}
    r1, w1 = universal_unfolding(lambda k: j("x^4 + 4*x^3 - lam*x", k),
                                 normalform=True, want_list=True)
    assert w1 == [] and {str(u) for u in r1} == expected
    r2, w2 = universal_unfolding(lambda k: j("6*x - 6*sin(x) - lam*x", k),
                                 k=6, normalform=True, want_list=True)
    assert w2 == [] and {str(u) for u in r2} == expected
    for u in r1 + r2:
        assert check_universal(u) == ("Yes", [])
    G = make_unfolding(j("x^5 - lam"), [j("x"), j("x^2"), j("x^3")])
    assert check_universal(G) == ("Yes", [])


def test_criterion_11_recognition():
    rc = recognition_normal_form(j("x^3 + sin(lam)", 4))
    assert rc.zero == [(0, 0), (1, 0), (2, 0)]
    assert rc.nonzero == [(0, 1), (3, 0)]

    g = j("x^3 + exp(lam^2) - 1", 4)
    M = recognition_unfolding(g, 3)
    assert M.columns == [(0, 0), (0, 1), (1, 0), (2, 0), (1, 1)]
    rows = M.render()
    assert rows[0] == ["0", "0", "0", "g_{x,x,x}(0)", "g_{x,x,lambda}(0)"]
    assert rows[1] == ["0", "g_{lambda,lambda}(0)", "0",
                       "g_{x,x,lambda}(0)", "g_{x,lambda,lambda}(0)"]
    base = j("x^3 + lam^2", 4)
    good = make_unfolding(base, [j("1"), j("x"), j("x*lam")])
    bad = make_unfolding(base, [j("1"), j("x"), j("2*x")])
    assert ts.regular_at(M, base, good)
    assert check_universal(good)[0] == "Yes"
    assert not ts.regular_at(M, base, bad)
    assert check_universal(bad)[0] == "No"


def test_criterion_12_transformation():
    g = j("x^3 + sin(lam) + exp(x^5) - 1", 4)
    f = j("x^3 + lam", 4)
    tr = transformation(g, f, 4)
    res = tr.residual(g, f)
    assert all(sum(m) >= 4 for m in res.terms)
    # a known closed-form solution triple satisfies the same residual bound
    X = j("x + lam + x*lam + lam^2", 4)
    L = j("lam", 4)
    S = j("1 - 3*x^2 - 3*x*lam - 5/6*lam^2 - 3*x^3 - 9*lam*x^2"
          " - 9*x*lam^2 - 3*lam^3", 4)
    res2 = f - S * g.compose({"x": X, "lam": L})
    assert all(sum(m) >= 4 for m in res2.terms)


def test_criterion_13_transition_sets(wc_sigma, quintic_sigma):
    tb.test_winged_cusp_bifurcation_component(wc_sigma)
    tb.test_winged_cusp_hysteresis_component(wc_sigma)
    tb.test_winged_cusp_double_limit_component(wc_sigma)
    tb.test_quintic_bifurcation_empty(quintic_sigma)
    tb.test_quintic_hysteresis_component(quintic_sigma)
    tb.test_quintic_double_limit_component(quintic_sigma)
    # 20 independently constructed witnesses per nonempty component
    tb.test_winged_cusp_bifurcation_witnesses(wc_sigma)
    tb.test_winged_cusp_hysteresis_witnesses(wc_sigma)
    tb.test_winged_cusp_double_limit_witnesses(wc_sigma)
    tb.test_quintic_hysteresis_witnesses(quintic_sigma)
    tb.test_quintic_double_limit_witnesses(quintic_sigma)


def test_criterion_14_boundary_sets(boundary_sigma, wc_sigma):
    tb.test_boundary_reuses_interior_components(boundary_sigma, wc_sigma)
    tb.test_boundary_components_match_fixtures(boundary_sigma)
    tb.test_corner_witnesses(boundary_sigma)
    tb.test_side_horizontal_witnesses(boundary_sigma)
    tb.test_side_vertical_witnesses(boundary_sigma)
    tb.test_tangency_witnesses(boundary_sigma)
    tb.test_gamma1_witnesses(boundary_sigma)
    tb.test_gamma2_witnesses(boundary_sigma)


def test_criterion_15_diagram_signatures(quintic_sigma):
    tb.test_quintic_complete_list_diagrams(quintic_sigma)


def test_criterion_16_property_suite():
    tl.test_division_identity_randomized()
    tl.test_membership_agrees_with_span_oracle()
    ti.test_intrinsic_part_is_contained_and_maximal()
    tl.test_mult_matrix_trivial_and_commutation()
