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
    compose_all,
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


# Products and compositions run on integer numerators over one common
# denominator; these compare them with plain Fraction arithmetic, pair by
# pair and term by term.

wide_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
wide_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), wide_coeffs, max_size=7
)


def pairwise_product(ta, tb, degree):
    """sum of c1*c2 * x^(m1+m2) over the pairs of terms, in Fractions,
    without the monomials above `degree`."""
    out = {}
    for m1, c1 in ta.items():
        for m2, c2 in tb.items():
            m = tuple(i + j for i, j in zip(m1, m2))
            if degree is None or mdeg(m) <= degree:
                out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


@settings(max_examples=50, deadline=None)
@given(wide_terms, bounds, wide_terms, bounds)
def test_product_equals_the_pairwise_fraction_convolution(ta, da, tb, db):
    a, b = J(ta, da), J(tb, db)
    # a(x, lam)*a(x, -lam) is even in lam: its odd terms cancel, and at a
    # low bound the whole truncated product can cancel to zero
    mirror = J({m: -c if m[1] % 2 else c for m, c in a.terms.items()}, db)
    for f, g in ((a, b), (a, mirror), (b, b)):
        deg = joint(f.degree, g.degree)
        product = pairwise_product(f.terms, g.terms, deg)
        assert_kernel(f * g, product, deg)
    assert all(m[1] % 2 == 0 for m in (a * mirror).terms)


V3 = ("x", "lam", "a")


def substituted(terms, images, degree):
    """Term-by-term substitution: sum of c * prod images[v]^e, each image a
    dict of Fractions, without the monomials above `degree` (truncation is
    a ring map, so each factor is cut as it is multiplied)."""
    out = {}
    for m, c in terms.items():
        term = {(0,) * len(V3): c}
        for image, e in zip(images, m):
            for _ in range(e):
                term = pairwise_product(term, image, degree)
        for mt, ct in term.items():
            out[mt] = out.get(mt, Fraction(0)) + ct
    return {m: c for m, c in out.items()
            if c and (degree is None or mdeg(m) <= degree)}


jet3_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
    wide_coeffs, max_size=6)
image_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
    wide_coeffs, max_size=4)


@settings(max_examples=50, deadline=None)
@given(jet3_terms, bounds, image_terms, image_terms, bounds)
def test_compose_equals_term_by_term_substitution(tg, dg, tx, tl, dt):
    g = Jet(tg, V3, dg)
    X, L = Jet(tx, V3, dt), Jet(tl, V3, dt)
    images = {"x": X, "lam": L}  # a keeps itself
    references = [substituted(h.terms, (X.terms, L.terms, {(0, 0, 1): 1}),
                              dt)
                  for h in (g, g.diff("x"), g.diff("lam"))]
    assert_kernel(g.compose(images), references[0], dt)
    shared = list(compose_all((g, g.diff("x"), g.diff("lam")), images))
    assert len(shared) == 3
    for h, reference in zip(shared, references):
        assert_kernel(h, reference, dt)


def test_monomials_upto_hands_out_its_own_list():
    first = monomials_upto(2, 3)
    first.append((9, 9))
    first[0] = (7, 7)
    assert monomials_upto(2, 3) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        (3, 0), (2, 1), (1, 2), (0, 3)]
