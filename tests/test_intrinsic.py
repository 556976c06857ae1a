"""Intrinsic ideal block calculus and ring/degree verification."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germforge import intrinsic, localalg
from germforge.germexpr import parse_and_expand
from germforge.intrinsic import (
    INCREASE_BOUND_WARNING,
    INFINITE_CODIM_REMARK,
    IntrinsicIdeal,
    canonical_blocks,
    high_order_part,
    intrinsic_from_members,
    intrinsic_part,
    mrt_span,
    smallest_intrinsic,
    verify_germ,
    verify_ideal,
)
from germforge.jets import Jet, LexOrder, LocalOrder, monomials_upto
from germforge.localalg import (
    codimension,
    mult_matrix,
    normal_set,
    standard_basis,
)

V = ("x", "lam")


def j(text, k=None):
    return parse_and_expand(text, V, k)


def blocks(*pairs):
    return IntrinsicIdeal.from_blocks(list(pairs))


def test_membership_rule():
    I = blocks((5, 0), (0, 3))  # M^5 + <lambda^3>
    assert I.contains_monomial((3, 2))   # degree 5
    assert not I.contains_monomial((0, 2))
    J = blocks((6, 0), (1, 3))  # M^6 + M<lambda^3>
    assert not J.contains_monomial((4, 1))
    assert J.contains_monomial((1, 3))
    assert J.contains_monomial((6, 0))


def test_canonical_form():
    # contained blocks are dropped, l strictly increasing, k strictly falling
    out = canonical_blocks([(3, 1), (5, 0), (4, 1), (0, 2), (1, 2)])
    assert out == [(5, 0), (3, 1), (0, 2)]
    assert canonical_blocks(out) == out
    ls = [l for _k, l in out]
    ks = [k for k, _l in out]
    assert ls == sorted(set(ls))
    assert ks == sorted(ks, reverse=True)


def canonical_blocks_by_containment(blocks):
    """The quadratic reduction that `canonical_blocks` replaced: the least k
    per l, then in order of l each block is dropped when a kept one holds
    it, and the kept blocks it holds are dropped."""
    def contains(outer, inner):
        return inner[1] >= outer[1] and sum(inner) >= sum(outer)

    best = {}
    for k, l in blocks:
        if l not in best or k < best[l]:
            best[l] = k
    out = []
    for l, k in sorted(best.items()):
        if any(contains(b, (k, l)) for b in out):
            continue
        out = [b for b in out if not contains((k, l), b)]
        out.append((k, l))
    out.sort(key=lambda b: b[1])
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=12))
def test_canonical_blocks_equal_the_containment_reduction(blocks):
    assert canonical_blocks(blocks) == canonical_blocks_by_containment(blocks)


def test_rendering():
    assert str(blocks((5, 0))) == "M^5"
    assert str(blocks((0, 2))) == "<lambda^2>"
    assert str(blocks((3, 1), (0, 2))) == "M^3<lambda> + <lambda^2>"
    assert str(blocks((1, 0))) == "M"


def intrinsic_part_of_sum(A, B):
    """Largest intrinsic ideal in <A> + span(B) modulo one degree above the
    highest of A and B."""
    k = max(f.total_degree() for f in A + B) + 1
    space = localalg.ideal_span(A, k)
    for f in B:
        space.add(f)
    return intrinsic_from_members(space.monomials(), k)


def test_intrinsic_part_examples():
    r = intrinsic_part([j("x^3*lam + lam^2"), j("3*x^3*lam"), j("3*x^2*lam^2")])
    assert r.ideal.blocks == ((3, 1), (0, 2))
    assert r.remark is not None  # no pure x power: infinite codimension

    A = [j("x^5 + lam*x^3 + lam^2"), j("5*x^5 + 3*x^3*lam"),
         j("5*x^4*lam + 3*x^2*lam^2")]
    B = [j("lam*x^3 + 2*lam^2"), j("x^3 + 2*lam"), j("x^4 + 3/5*lam*x^2"),
         j("lam^2"), j("x^5")]
    r2 = intrinsic_part_of_sum(A, B)
    assert r2.blocks == ((5, 0), (3, 1), (0, 2))

    assert intrinsic_part([j("x"), j("lam")]).ideal.blocks == ((1, 0),)


def test_intrinsic_part_remarks_exactly_without_a_pure_power():
    # <x^4, lam^4> has codimension 16, though its intrinsic part at degree
    # 4 has no block M^a
    r = intrinsic_part([j("x^4"), j("lam^4")], 4)
    assert (r.ideal.blocks, r.remark) == (((0, 4),), None)
    r = intrinsic_part([j("x^4"), j("x*lam")], 4)
    assert r.remark == INFINITE_CODIM_REMARK


def test_intrinsic_part_of_no_generators_is_zero():
    r = intrinsic_part([])
    assert r.ideal.is_zero
    assert r.remark == INFINITE_CODIM_REMARK


def test_intrinsic_part_is_contained_and_maximal():
    A = [j("x^3*lam + lam^2"), j("3*x^3*lam"), j("3*x^2*lam^2")]
    k = 7
    space = localalg.ideal_span([f.truncate(k) for f in A], k)
    members = space.monomials()
    I = intrinsic_part(A, k).ideal
    for m in monomials_upto(2, k):
        if I.contains_monomial(m):
            assert m in members
    # maximality: shrinking any block by one exposes a non-member monomial
    for bk, bl in I.blocks:
        if bk == 0:
            continue
        bigger = IntrinsicIdeal.from_blocks(list(I.blocks) + [(bk - 1, bl)])
        extra_monos = [m for m in monomials_upto(2, k)
                       if bigger.contains_monomial(m)
                       and not I.contains_monomial(m)]
        assert any(m not in members for m in extra_monos)


def test_intrinsic_part_against_exhaustive_oracle():
    rng = random.Random(13)
    for _ in range(10):
        k = rng.randint(4, 7)
        gens = []
        for _g in range(rng.randint(1, 3)):
            terms = {}
            for _t in range(rng.randint(1, 3)):
                m = (rng.randint(0, 3), rng.randint(0, 2))
                terms[m] = Fraction(rng.randint(-4, 4) or 1)
            gens.append(Jet(terms, V, k))
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        space = localalg.ideal_span(gens, k)
        members = space.monomials()
        got = intrinsic_part(gens, k).ideal
        expected = intrinsic_from_members(members, k)
        assert got.blocks == expected.blocks
        # exhaustive check of the claimed blocks
        for a in range(k + 1):
            for b in range(k + 1 - a):
                block_monos = [m for m in monomials_upto(2, k)
                               if m[1] >= b and m[0] + m[1] >= a + b]
                inside = all(m in members for m in block_monos)
                claimed = all(got.contains_monomial(m) for m in block_monos)
                if inside:
                    assert claimed  # maximality
                if claimed and block_monos:
                    assert inside  # containment


def test_smallest_intrinsic():
    assert smallest_intrinsic(j("x^5 + x^3*lam^2 + lam^3")).blocks == \
        ((5, 0), (0, 3))
    S = smallest_intrinsic(j("lam*x^8 + x^7 - lam^3*x^2 - lam^2*x"))
    assert S.blocks == ((7, 0), (1, 2))
    assert S.generators() == [(7, 0), (1, 2)]
    assert smallest_intrinsic(j("lam")).blocks == ((0, 1),)
    g = j("x^4 - lam*x + x^2*lam^3")
    S2 = smallest_intrinsic(g)
    for m in g.terms:
        assert S2.contains_monomial(m)


def test_high_order_part():
    P = high_order_part(j("x^5 + x^3*lam^2 + lam^3", 6), 6)
    assert P.blocks == ((6, 0), (1, 3))
    P2 = high_order_part(j("x^3 - lam", 5), 5)
    assert P2.blocks == ((4, 0), (1, 1))
    # the defining term of the germ is never negligible
    assert not P2.contains_monomial((3, 0))
    assert not P2.contains_monomial((0, 1))


def test_verify_germ():
    rep = verify_germ(lambda k: j("x^3 - sin(lam)", k))
    assert rep.truncation_degree == 3
    assert rep.warnings == []


def no_basis_loop(*args):
    raise AssertionError("a standard basis was computed")


@pytest.mark.parametrize("text, degree, nonzero", [
    ("x^3 - sin(lam)", 3, [1, 2, 3]),
    ("x^3 + exp(lam^2) - 1", 3, [2, 3]),
])
def test_verify_germ_one_expand_and_one_high_order_part_per_degree(
        monkeypatch, text, degree, nonzero):
    # each degree up to the answer is expanded once; of the nonzero jets
    # only the 3-jet has a term on each axis (x^a and x^a*lambda^b with
    # a <= 1), so one M*RT span is built, one degree above the 3-jet, and
    # no P is read from it during the search (its callers read P from the
    # span); no degree above the answer is expanded and no standard basis
    # is computed
    expanded, spans, ps = [], [], []

    def expand(k):
        expanded.append(k)
        return j(text, k)

    def recording_span(g, k):
        spans.append(k)
        return mrt_span(g, k)

    def recording_p(members, k):
        ps.append(k)
        return intrinsic_from_members(members, k)

    monkeypatch.setattr(intrinsic, "mrt_span", recording_span)
    monkeypatch.setattr(intrinsic, "intrinsic_from_members", recording_p)
    monkeypatch.setattr(localalg, "_basis_loop", no_basis_loop)
    rep = verify_germ(expand)
    assert rep.truncation_degree == degree
    assert expanded == list(range(1, degree + 1))
    assert [k for k in expanded if not j(text, k).is_zero()] == nonzero
    assert spans == [degree + 1]
    assert ps == []
    assert rep.span.degree == degree + 1


polynomial_germs = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    min_size=1, max_size=4).map(lambda terms: Jet(terms, V, None))


def nonzero_jets(g, top):
    """(k, j^k g) for every k in 1..top with a nonzero k-jet."""
    return [(k, g.truncate(k)) for k in range(1, top + 1)
            if not g.truncate(k).is_zero()]


def ladder(g, bound):
    """verify_germ's degree and P without the axis test: P at every k with
    a nonzero k-jet."""
    for k, gk in nonzero_jets(g, bound):
        P = high_order_part(gk, k + 1)
        if all(P.contains_monomial((k + 1 - i, i)) for i in range(k + 2)):
            return k, P.blocks
    return None, None


@settings(max_examples=40, deadline=None)
@given(polynomial_germs)
@example(j("x^3 - sin(lam)", 8))
@example(j("x^3 + exp(lam^2) - 1", 8))
def test_axis_test_skips_only_degrees_that_cannot_pass(g):
    rep = verify_germ(g.truncate, 7)
    k = rep.truncation_degree
    blocks = (intrinsic_from_members(rep.span.monomials(), k + 1).blocks
              if rep.span else None)
    assert (k, blocks) == ladder(g, 7)


@settings(max_examples=60, deadline=None)
@given(polynomial_germs)
def test_high_order_part_is_stable_once_it_holds_the_boundary(g):
    # the P re-check that verify_germ leaves out: M^(k+1) inside
    # P(j^k g) makes P(j^(k+1) g) at degree k+2 the same ideal
    for k, gk in nonzero_jets(g, 8):
        P = high_order_part(gk, k + 1)
        if all(P.contains_monomial((k + 1 - i, i)) for i in range(k + 2)):
            assert high_order_part(g.truncate(k + 1), k + 2).blocks == P.blocks


@settings(max_examples=80, deadline=None)
@given(polynomial_germs)
@example(j("x^3 - sin(lam)", 8))
@example(j("x^3 + exp(lam^2) - 1", 8))
def test_verify_span_is_m_rt_of_the_k_and_the_k_plus_1_jet(g):
    # the span verify_germ hands over is M*RT(j^(k+1) g) at k+1, and cut at
    # k it is M*RT(j^k g) at k
    rep = verify_germ(g.truncate, 7)
    if rep.truncation_degree is not None:
        k, span = rep.truncation_degree, rep.span
        assert span.rows == mrt_span(g.truncate(k + 1), k + 1).rows
        assert span.truncate(k).rows == mrt_span(g.truncate(k), k).rows


def blocks_by_double_loop(members, k):
    """The reference for intrinsic_from_members: for each l the least a
    whose block's monomials of degree <= k all lie in `members`, each
    block tested monomial by monomial."""
    blocks = []
    for l in range(k + 1):
        for a in range(k - l + 1):
            if all(m in members for m in monomials_upto(2, k)
                   if m[1] >= l and m[0] + m[1] >= a + l):
                blocks.append((a, l))
                break
    return IntrinsicIdeal.from_blocks(blocks)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7), st.data())
def test_one_scan_blocks_agree_with_the_double_loop(k, data):
    # members: an intrinsic ideal's monomials, with some added and some
    # taken away
    monos = monomials_upto(2, k)
    ideal = IntrinsicIdeal.from_blocks(data.draw(st.lists(
        st.tuples(st.integers(0, k), st.integers(0, k)), max_size=3)))
    members = set(ideal.monomials_upto(k))
    members |= data.draw(st.sets(st.sampled_from(monos), max_size=3))
    members -= data.draw(st.sets(st.sampled_from(monos), max_size=2))
    assert (intrinsic_from_members(members, k)
            == blocks_by_double_loop(members, k))


def local_leads(G, k):
    return set(standard_basis(G, LocalOrder(), k).leading_monomials())


@settings(max_examples=60, deadline=None)
@given(st.lists(polynomial_germs, min_size=1, max_size=3))
def test_local_standard_basis_is_stable_by_its_leading_forms(G):
    # the leading-form lemma that lets standard_basis and verify_ideal
    # skip the basis at k+1 under the local order: its leading monomials
    # of degree <= k are those of the basis at k
    for k in range(1, 9):
        Gk = [f.truncate(k) for f in G if not f.truncate(k).is_zero()]
        if not Gk:
            continue
        higher = local_leads([f.truncate(k + 1) for f in G], k + 1)
        assert local_leads(Gk, k) == {m for m in higher if sum(m) <= k}


def test_verify_germ_bound_warning():
    rep = verify_germ(lambda k: j("x^3 - sin(lam)", k), upper_bound=2)
    assert rep.truncation_degree is None
    assert rep.warnings == [INCREASE_BOUND_WARNING]


def test_verify_ideal():
    G = [j(s, 12) for s in ["x^4 - x*sin(lam)", "x^3*lam - lam*sin(lam)",
                            "3*x^4", "3*x^2*lam"]]
    rep = verify_ideal(G)
    assert rep.truncation_degree == 4


@pytest.mark.parametrize("texts, degree", [
    (["x^2 - lam^3", "x*lam"], 4),
    (["x - lam^2", "lam^3 + x*lam"], 3),
])
def test_local_standard_basis_is_computed_once(monkeypatch, texts, degree):
    # under the local order with a degree every answer reads one span and
    # no basis loop runs; without one, the loop runs once, on the
    # homogenized generators under grlex, to find the ideal's own degree;
    # a global order with a degree runs it at k and k+1.  The loop never
    # sees a local order
    calls = []
    basis_loop = localalg._basis_loop

    def counting(G, order, k):
        assert not order.is_local
        calls.append(k)
        return basis_loop(G, order, k)

    monkeypatch.setattr(localalg, "_basis_loop", counting)
    G = [j(t) for t in texts]
    standard_basis(G, LocalOrder(), 6)
    normal_set(G, 6)
    mult_matrix(G, (1, 0), 6)
    codimension(G, 6)
    assert verify_ideal(G).truncation_degree == degree
    assert calls == []
    standard_basis(G, LocalOrder(), None)
    assert calls == [None]
    calls.clear()
    standard_basis(G, LexOrder(), 6)
    assert calls == [6, 7]
