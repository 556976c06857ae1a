"""RowSpace, the sparse span of jets, against the dense rref reference."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from germforge.jets import Jet, monomials_upto
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
