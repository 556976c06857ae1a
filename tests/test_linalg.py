"""RowSpace, the sparse span of jets, against the dense rref reference."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from germforge.jets import Jet, mdeg, monomials_upto
from germforge.linalg import RowSpace, rref

V = ("x", "lam")


@st.composite
def jet_lists(draw):
    """(k, jets, probes): jets of degree <= k to span, and jets to test for
    membership, some of them combinations of the spanning jets."""
    k = draw(st.integers(0, 6))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    terms = st.dictionaries(st.sampled_from(monomials_upto(2, k)), coeffs,
                            max_size=5)
    jets = [Jet(t, V, k) for t in draw(st.lists(terms, max_size=8))]
    probes = [Jet(t, V, k) for t in draw(st.lists(terms, max_size=3))]
    for _ in range(draw(st.integers(0, 2))):
        combo = Jet.zero(V, k)
        for f in jets:
            combo = combo + f.scale(draw(coeffs))
        probes.append(combo)
    return k, jets, probes


def dense(f, k):
    return [f.terms.get(m, Fraction(0)) for m in monomials_upto(2, k)]


def dense_rank(rows):
    return len(rref(rows)[0])


@settings(max_examples=150, deadline=None)
@given(jet_lists())
def test_rowspace_agrees_with_dense_rref(case):
    k, jets, probes = case
    space = RowSpace(V, k)
    rows = []
    for f in jets:
        before = dense_rank(rows)
        grew = space.add(f)
        rows.append(dense(f, k))
        assert grew == (dense_rank(rows) > before)
        assert space.rank == dense_rank(rows)
    assert [dense(r, k) for r in space.rows] == rref(rows)[0]
    for g in probes:
        unchanged = dense_rank(rows + [dense(g, k)]) == dense_rank(rows)
        assert space.contains(g) == unchanged
    assert space.monomials() == {
        m for m in monomials_upto(2, k)
        if space.contains(Jet.monomial(m, V, 1, k))}


def test_rowspace_truncates_and_orders_rows_by_pivot():
    x = Jet.variable("x", V, None)
    lam = Jet.variable("lam", V, None)
    space = RowSpace(V, 2)
    assert not space.add(x ** 3)
    assert space.add(lam + x * x)
    assert space.add(x + x ** 3)
    assert [str(r) for r in space.rows] == ["x", "lam + x^2"]
    assert all(r.degree == 2 for r in space.rows)
    assert space.contains(lam + x * x + 3 * x)
    assert space.monomials() == {(1, 0)}


@settings(max_examples=100, deadline=None)
@given(jet_lists(), st.integers(0, 3))
def test_add_multiples_spans_the_explicit_products(case, least):
    k, jets, _probes = case
    space, products = RowSpace(V, k), RowSpace(V, k)
    for f in jets:
        space.add_multiples(f, least)
        for m in monomials_upto(2, k):
            if mdeg(m) >= least:
                products.add(f.term_mul(m))
    assert space.rows == products.rows


def test_add_multiples_truncates_and_skips_zero():
    x = Jet.variable("x", V, None)
    lam = Jet.variable("lam", V, None)
    space = RowSpace(V, 2)
    space.add_multiples(Jet.zero(V, 2))
    space.add_multiples(x ** 3 + lam ** 4)  # zero modulo degree > 2
    assert space.rank == 0
    space.add_multiples(x + x ** 3, 1)  # M{x}: x^2 and x*lam
    assert space.monomials() == {(2, 0), (1, 1)}


@settings(max_examples=50, deadline=None)
@given(jet_lists())
def test_copy_is_independent(case):
    k, jets, probes = case
    space = RowSpace(V, k)
    for f in jets:
        space.add(f)
    rows, rank = space.rows, space.rank
    twin = space.copy()
    assert twin.rows == rows
    for g in probes + [Jet.monomial(m, V, 1, k) for m in monomials_upto(2, k)]:
        twin.add(g)
    assert twin.rank == len(monomials_upto(2, k))
    assert space.rows == rows and space.rank == rank
