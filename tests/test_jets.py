"""Jet arithmetic, monomial orders, and truncation semantics."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from germforge.jets import (
    BlockOrder,
    GrLexOrder,
    Jet,
    LexOrder,
    LocalOrder,
    mdeg,
    mdiv,
    mdivides,
    mlcm,
    mmul,
    monomials_upto,
)

V = ("x", "lam")


def J(terms, degree=None):
    return Jet(terms, V, degree)


def test_monomial_helpers():
    assert mdeg((2, 3)) == 5
    assert mmul((1, 0), (0, 2)) == (1, 2)
    assert mdivides((1, 0), (2, 1))
    assert not mdivides((1, 2), (2, 1))
    assert mdiv((2, 1), (1, 0)) == (1, 1)
    assert mlcm((2, 0), (1, 3)) == (2, 3)


def test_monomials_upto_counts():
    assert len(monomials_upto(2, 3)) == 10
    assert monomials_upto(2, 1) == [(0, 0), (1, 0), (0, 1)]


def test_monomials_upto_is_descending_local_order():
    # the RowSpace pivots, the truncated colon ideal, s_perp and the
    # recognition rows read this order as "leading monomial first"
    key = LocalOrder().key
    for n in range(1, 5):
        for k in range(11):
            monos = monomials_upto(n, k)
            assert monos == sorted(monos, key=key, reverse=True)


def test_local_order_prefers_low_degree():
    # the leading term under a local order is the lowest-order term
    lo = LocalOrder()
    assert lo.key((0, 0)) > lo.key((1, 0))
    assert lo.key((1, 0)) > lo.key((0, 1))  # ties break toward x
    assert lo.key((0, 1)) > lo.key((2, 0))
    f = J({(0, 2): Fraction(1), (1, 0): Fraction(3)})
    assert f.leading_monomial(lo) == (1, 0)


def test_grlex_and_lex_orders():
    assert GrLexOrder().key((2, 0)) > GrLexOrder().key((0, 1))
    assert LexOrder().key((1, 0)) > LexOrder().key((0, 5))


def test_block_order_compares_prefix_first():
    bo = BlockOrder(1)
    # any monomial containing the first variable beats any without it
    assert bo.key((1, 0, 0)) > bo.key((0, 9, 9))


def test_arithmetic_and_truncation():
    x = Jet.variable("x", V, 4)
    lam = Jet.variable("lam", V, 4)
    f = (x + lam) ** 2
    assert f == J({(2, 0): 1, (1, 1): 2, (0, 2): 1}, 4)
    assert (x ** 5).is_zero()
    g = x * x * x * x * x  # truncated away at degree 4
    assert g.is_zero()


def test_mixed_degree_arithmetic_truncates_to_min():
    a = Jet.variable("x", V, 5)
    b = Jet.variable("x", V, 3)
    assert (a + b).degree == 3
    assert (a * b).degree == 3


def test_invert_geometric_series():
    x = Jet.variable("x", V, 4)
    one = Jet.constant(1, V, 4)
    u = one + x
    assert u * u.invert() == one
    v = Jet.constant(2, V, 4) - x + x * x
    assert v * v.invert() == one


def test_diff_and_evaluate():
    x = Jet.variable("x", V, 5)
    lam = Jet.variable("lam", V, 5)
    f = x ** 3 + x * lam
    assert f.diff("x") == (x * x).scale(3) + lam
    assert f.diff("lam") == x
    assert f.evaluate({"x": Fraction(2), "lam": Fraction(3)}) == 14


def test_compose():
    x = Jet.variable("x", V, 6)
    lam = Jet.variable("lam", V, 6)
    f = x ** 2 + lam
    # substitute x -> x + lam^2, lam -> lam
    g = f.compose({"x": x + lam ** 2, "lam": lam})
    expected = x ** 2 + (x * lam * lam).scale(2) + lam ** 4 + lam
    assert g == expected


def test_str_rendering():
    x = Jet.variable("x", V, 4)
    lam = Jet.variable("lam", V, 4)
    f = x ** 2 - lam.scale(Fraction(1, 2))
    assert str(f) == "-1/2*lam + x^2" or str(f) == "x^2 - 1/2*lam"


coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)
jet_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=5
)


@settings(max_examples=60, deadline=None)
@given(jet_terms, jet_terms, jet_terms)
def test_ring_axioms(ta, tb, tc):
    a, b, c = J(ta, 6), J(tb, 6), J(tc, 6)
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(jet_terms, jet_terms, st.integers(1, 5))
def test_truncation_is_a_ring_map(ta, tb, k):
    a, b = J(ta), J(tb)
    lhs = (a * b).truncate(k)
    rhs = (a.truncate(k) * b.truncate(k)).truncate(k)
    assert lhs == rhs
    assert (a + b).truncate(k) == a.truncate(k) + b.truncate(k)


# The kernel invariant: every arithmetic result holds only nonzero Fraction
# coefficients on monomials of degree <= its bound, and equals a naive
# reference made with the constructor's cleaning rule.

bounds = st.one_of(st.none(), st.integers(0, 6))
small_monomials = st.tuples(st.integers(0, 3), st.integers(0, 3))


def joint(*degrees):
    known = [d for d in degrees if d is not None]
    return min(known) if known else None


def cleaned(terms, degree):
    """Drop zero coefficients and terms above `degree`; Fractions only."""
    return {m: Fraction(c) for m, c in terms.items()
            if c != 0 and (degree is None or mdeg(m) <= degree)}


def naive_sum(*dicts):
    out = {}
    for terms in dicts:
        for m, c in terms.items():
            out[m] = out.get(m, 0) + c
    return out


def naive_mul(ta, tb):
    out = {}
    for m1, c1 in ta.items():
        for m2, c2 in tb.items():
            m = (m1[0] + m2[0], m1[1] + m2[1])
            out[m] = out.get(m, 0) + c1 * c2
    return out


def naive_pow(ta, n):
    out = {(0, 0): 1}
    for _ in range(n):
        out = naive_mul(out, ta)
    return out


def assert_kernel(f, reference, degree):
    assert f.degree == degree
    for m, c in f.terms.items():
        assert type(c) is Fraction and c != 0
        assert degree is None or mdeg(m) <= degree
    assert f.terms == cleaned(reference, degree)


@settings(max_examples=150, deadline=None)
@given(jet_terms, bounds, jet_terms, bounds, small_monomials, coeffs,
       st.integers(0, 3), bounds)
def test_arithmetic_keeps_the_kernel_invariant(ta, da, tb, db, m, c, n, k):
    a, b = J(ta, da), J(tb, db)
    deg = joint(da, db)
    neg_b = {mb: -cb for mb, cb in b.terms.items()}
    assert_kernel(a + b, naive_sum(a.terms, b.terms), deg)
    assert_kernel(a - b, naive_sum(a.terms, neg_b), deg)
    assert_kernel(a - a, {}, da)
    assert_kernel(a * b, naive_mul(a.terms, b.terms), deg)
    assert_kernel(a.term_mul(m), naive_mul(a.terms, {m: 1}), da)
    assert_kernel(a.term_mul(m, c), naive_mul(a.terms, {m: c}), da)
    assert_kernel(a ** n, naive_pow(a.terms, n), da)
    assert_kernel(a.truncate(k), a.terms, k)


@settings(max_examples=60, deadline=None)
@given(jet_terms, bounds, jet_terms, jet_terms, bounds)
def test_compose_keeps_the_kernel_invariant(ta, da, tx, tl, dt):
    a = J(ta, da)
    X, L = J(tx, dt), J(tl, dt)
    reference = naive_sum(*(
        naive_mul({(0, 0): c}, naive_mul(naive_pow(X.terms, i),
                                         naive_pow(L.terms, j)))
        for (i, j), c in a.terms.items()))
    assert_kernel(a.compose({"x": X, "lam": L}), reference, dt)


def test_monomials_upto_hands_out_its_own_list():
    first = monomials_upto(2, 3)
    first.append((9, 9))
    first[0] = (7, 7)
    assert monomials_upto(2, 3) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        (3, 0), (2, 1), (1, 2), (0, 3)]
