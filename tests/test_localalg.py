"""Mora division, standard bases, and the derived ideal operations."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from germforge.germexpr import parse_and_expand
from germforge.jets import (GrLexOrder, Jet, LexOrder, LocalOrder, mdiv,
                            mdivides, mlcm, monomials_upto)
from germforge.linalg import RowSpace
from germforge import localalg
from germforge.localalg import (
    _local_primitive,
    _minimal_rows,
    answer_span,
    buchberger,
    codimension,
    colon_ideal,
    eliminate,
    from_ring,
    ideal_intersection,
    ideal_span,
    mora_divide,
    mult_matrix,
    normal_set,
    poly_ring,
    StandardBasis,
    standard_basis,
    to_ring,
)
from test_linalg import dense_nullspace, dense_rref

V = ("x", "lam")
LO = LocalOrder()


def j(text, k=None):
    return parse_and_expand(text, V, k)


def random_jet(rng, max_terms=4, max_exp=3, k=6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[m] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    f = Jet(terms, V, k)
    return f


# ---------------------------------------------------------------- division

def test_division_example_remainder_minus_one():
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


def test_division_trivials():
    res = mora_divide(j("x", 4), [j("x", 4)], LO, 4)
    assert res.remainder.is_zero()
    assert res.quotients[0] == Jet.constant(1, V, 4)
    res = mora_divide(j("lam^2", 4), [j("x", 4)], LO, 4)
    assert res.remainder == j("lam^2", 4)
    assert res.quotients[0].is_zero()


def test_division_identity_randomized():
    rng = random.Random(20240817)
    checked = 0
    while checked < 200:
        k = rng.randint(3, 7)
        g = random_jet(rng, k=k)
        G = [random_jet(rng, k=k) for _ in range(rng.randint(1, 3))]
        G = [f for f in G if not f.is_zero()]
        if g.is_zero() or not G:
            continue
        res = mora_divide(g, G, LO, k)
        assert res.check(g, G)
        assert res.unit.constant_term() != 0
        leads = [f.truncate(k).leading_monomial(LO) for f in G
                 if not f.truncate(k).is_zero()]
        for m in res.remainder.terms:
            assert not any(mdivides(lm, m) for lm in leads)
        checked += 1


polynomials = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-6, max_value=6, max_denominator=3),
    min_size=1, max_size=4).map(lambda terms: Jet(terms, V, None))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([GrLexOrder(), LexOrder()]), polynomials,
       st.lists(polynomials, min_size=1, max_size=3))
def test_untruncated_division(order, g, G):
    # a global order divides polynomials with the unit 1 and a fully
    # reduced remainder; the local order refuses them, since its unit
    # would not invert without a degree
    G = [f for f in G if not f.is_zero()]
    assume(G)
    with pytest.raises(ValueError, match="needs a degree"):
        mora_divide(g, G, LO)
    res = mora_divide(g, G, order)
    assert res.unit == Jet.constant(1, V) and res.unit.degree is None
    assert res.check(g, G)
    leads = [f.leading_monomial(order) for f in G]
    for m in res.remainder.terms:
        assert not any(mdivides(lm, m) for lm in leads)


# ---------------------------------------------------------- standard bases

def ideals_equal(A, B, k):
    sa = ideal_span(A, k)
    sb = ideal_span(B, k)
    return (sa.rank == sb.rank
            and all(sa.contains(f) for f in B)
            and all(sb.contains(f) for f in A))


def test_standard_basis_example():
    k = 7
    G = [
        j("x^5 + x^2*sin(lam + x) + lam^2", k),
        j("x^3*lam^2 + cos(lam)*x", k),
        j("lam^6 + x^4 - lam*x", k),
    ]
    sb = standard_basis(G, LO, k)
    out = sorted(str(f) for f in sb.generators)
    assert out == ["lam^2", "x"]
    assert ideals_equal(G, sb.generators, k)


def test_standard_basis_trivials():
    sb = standard_basis([j("x", 5)], LO, 5)
    assert [str(f) for f in sb.generators] == ["x"]
    G = [j("x^2 + lam^3", 6), j("lam^2", 6)]
    sb = standard_basis(G, LO, 6)
    assert sorted(str(f) for f in sb.generators) == ["lam^2", "x^2"]
    assert ideals_equal(G, sb.generators, 6)
    # <x^2 + x*lam^3, x*lam^3> holds no power of lam, so its basis is
    # interreduced: the first generator's tail is the second's leading
    # monomial, and its weak normal form removes it
    sb = standard_basis([j("x^2 + x*lam^3"), j("x*lam^3")])
    assert [str(f) for f in sb.generators] == ["x^2", "x*lam^3"]


def test_the_basis_loop_runs_once_per_untruncated_ideal(monkeypatch):
    # one run of the loop, on the homogenized generators under grlex,
    # decides the route of polynomials and, for infinite codimension, is
    # their basis, which a unit g reads too; no local order reaches it
    calls = []
    loop = localalg._basis_loop
    monkeypatch.setattr(localalg, "_basis_loop",
                        lambda *args: calls.append(args) or loop(*args))
    infinite = [j("x*lam"), j("x^2*lam + lam^3")]
    finite = [j("x^2 + x^3"), j("lam^3")]
    for answer, expected in [
            (lambda: colon_ideal(infinite, j("1 + x")), ["x*lam", "lam^3"]),
            (lambda: standard_basis(infinite).generators, ["x*lam", "lam^3"]),
            (lambda: colon_ideal(finite, j("1 + x")), ["x^2", "lam^3"]),
            (lambda: colon_ideal(finite, j("x")), ["x", "lam^3"]),
            (lambda: standard_basis(finite).generators, ["x^2", "lam^3"])]:
        calls.clear()
        assert [str(f) for f in answer()] == expected
        assert len(calls) == 1
        assert not calls[0][1].is_local


def test_standard_basis_inputs_reduce_to_zero():
    rng = random.Random(11)
    for _ in range(15):
        k = rng.randint(4, 6)
        G = [random_jet(rng, k=k) for _ in range(2)]
        G = [f for f in G if not f.is_zero()]
        if not G:
            continue
        sb = standard_basis(G, LO, k)
        for f in G:
            assert sb.contains(f)
        assert ideals_equal(G, sb.generators, k)


def test_buchberger_lex():
    G = [j("x^2 - 1"), j("x*lam - 1")]
    gb = buchberger(G, LexOrder())
    assert set(gb) == {j("lam^2 - 1"), j("x - lam")}
    assert buchberger([j("x")], LexOrder()) == [j("x")]
    assert set(buchberger([j("x - lam"), j("lam")], LexOrder())) == {j("lam"), j("x")}
    with pytest.raises(ValueError, match="empty generating list"):
        buchberger([], LexOrder())


def s_polynomial(f, g, order):
    """lcm/LT(f)*f - lcm/LT(g)*g, the leading terms cancelled."""
    (mf, cf), (mg, cg) = f.leading_term(order), g.leading_term(order)
    lcm = mlcm(mf, mg)
    return (f.term_mul(mdiv(lcm, mf), 1 / cf)
            - g.term_mul(mdiv(lcm, mg), 1 / cg))


def test_buchberger_output_passes_buchbergers_test():
    # an oracle that knows nothing of the loop's chain criterion: a basis
    # is a Groebner basis exactly when every S-polynomial of two of its
    # elements divides to remainder 0 (Cox, Little and O'Shea, ch. 2
    # section 6), and the inputs divide to 0 when they lie in its ideal
    rng = random.Random(5323)
    for order in (GrLexOrder(), LexOrder()):
        for _ in range(40):
            I, g = random_colon_case(rng, rng.randint(2, 6))
            G = [f.truncate(None) for f in I + [g]]
            G = [f for f in G if not f.is_zero()]
            if not G:
                continue
            gb = buchberger(G, order)
            for a, f in enumerate(gb):
                for h in gb[a + 1:]:
                    s = s_polynomial(f, h, order)
                    assert mora_divide(s, gb, order).remainder.is_zero()
            for f in G:
                assert mora_divide(f, gb, order).remainder.is_zero()


def test_the_local_basis_leading_ideal_is_the_span_pivots():
    # the untruncated local basis is Buchberger's on the homogenized
    # generators, with t = 1 set after.  Its leading monomials, cut at a
    # degree, are the pivots of the span there (the leading-form lemma):
    # at the own degree for finite codimension, and above every leading
    # monomial for infinite codimension.  Each S-polynomial of the basis
    # has weak normal form 0 under the local order (Mora's rule), the
    # standard-basis criterion (Greuel and Pfister, ch. 1)
    rng = random.Random(6007)
    finite = infinite = 0
    for _ in range(120):
        I, _ = random_colon_case(rng, rng.randint(2, 6))
        I = [f.truncate(None) for f in I]
        if not I:
            continue
        span, basis = localalg._local_route(I, None)
        leads = [f.leading_monomial(LO) for f in basis]
        if span is None:
            infinite += 1
            span = answer_span(I, max(sum(m) for m in leads) + 1)
        else:
            finite += 1
        assert set(span.pivots()) == {
            m for m in monomials_upto(2, span.degree)
            if any(mdivides(lm, m) for lm in leads)}
        for a, f in enumerate(basis):
            for h in basis[a + 1:]:
                s = s_polynomial(f, h, LO)
                assert localalg._weak_nf(s, basis, LO)[0].is_zero()
    assert finite >= 40 and infinite >= 30


# ------------------------------------------------------------- membership

def test_membership_examples():
    sb = standard_basis([j("x", 8), j("lam^2", 8)], LO, 8)
    assert sb.contains(j("x^7", 8))
    assert not sb.contains(j("lam", 8))
    f = j("x^3*lam^2 + cos(lam)*x", 7)
    sb2 = standard_basis([f, j("lam^6 + x^4 - lam*x", 7)], LO, 7)
    assert sb2.contains(f)
    # the zero ideal holds only 0
    empty = StandardBasis([], LO, 4)
    assert not empty.contains(j("x", 4))
    assert empty.contains(Jet.zero(V, 4))


def test_untruncated_membership_compares_leading_ideals():
    # two local standard bases of one ideal with leading monomials x*lam
    # and lam^12 that differ in the tail of the lam^12 generator; a weak
    # normal form of one's generator by the other ran for minutes in both
    # directions, while <G, f> and <G> compare by leading ideals
    I = [j("2*x*lam + 2*lam^3 + 1/2*x^4*lam^2"),
         j("-5*x^2*lam - 5*x*lam^3 + 2/3*x^4*lam + 2/3*x^3*lam^3")]
    N = standard_basis(I).generators
    P = [j("x*lam + lam^3 + 1/4*x^4*lam^2"),
         j("lam^12 - 15/8*x*lam^13 - 2/15*lam^16 - 1/30*x^6*lam^11"
           " - 15/32*x^5*lam^12 + 1/30*x^5*lam^13 - 1/30*x^4*lam^15")]
    assert [f.leading_monomial(LO) for f in N] == [(1, 1), (0, 12)]
    assert N[1] != P[1]
    assert StandardBasis(P, LO, None).contains(N[1])
    assert StandardBasis(N, LO, None).contains(P[1])
    assert not StandardBasis(N, LO, None).contains(j("lam^11"))


def test_membership_agrees_with_span_oracle():
    rng = random.Random(77)
    agreements = 0
    while agreements < 50:
        k = rng.randint(3, 8)
        G = [random_jet(rng, max_exp=3, k=k) for _ in range(rng.randint(1, 3))]
        G = [f for f in G if not f.is_zero()]
        if not G:
            continue
        sb = standard_basis(G, LO, k)
        f = random_jet(rng, k=k)
        span = ideal_span(G, k)
        expected = span.contains(f)
        got = f.truncate(k).is_zero() or sb.contains(f)
        assert got == expected
        agreements += 1



def test_leading_ideal_agrees_with_span_oracle():
    # modulo degree > k the ideal is the span of the m*f, kept in echelon
    # form with columns in descending local order, so its rows' leading
    # monomials are all the leading monomials of the ideal; the standard
    # basis must generate exactly those, and the normal set is the rest
    from germforge.localalg import InfiniteCodimensionError

    rng = random.Random(4021)
    cases = finite = 0
    while cases < 300:
        k = rng.randint(2, 7)
        G = [random_jet(rng, k=k) for _ in range(rng.randint(1, 3))]
        G = [f for f in G if not f.is_zero()]
        if not G:
            continue
        sb = standard_basis(G, LO, k)
        leads = sb.leading_monomials()
        monos = monomials_upto(2, k)
        divisible = {m for m in monos if any(mdivides(lm, m) for lm in leads)}
        spanned = {r.leading_monomial(LO) for r in ideal_span(G, k).rows}
        assert divisible == spanned, (G, k)
        try:
            standard = normal_set(G, k)
        except InfiniteCodimensionError:
            pass
        else:
            assert set(standard) == set(monos) - spanned
            finite += 1
        cases += 1
    assert finite >= 100

# ------------------------------------------------- intersection and colon

def test_intersection_trivials():
    out = ideal_intersection([j("x")], [j("lam")])
    assert [str(f) for f in out] == ["x*lam"]
    out = ideal_intersection([j("x"), j("lam")], [j("x")])
    assert [str(f) for f in out] == ["x"]


def test_intersection_against_span_oracle():
    k = 8
    I = [j("x^2", k)]
    J2 = [j("x^3 - lam", k)]
    # the exact intersection, read in J^k
    out = ideal_intersection([j("x^2")], [j("x^3 - lam")])
    # brute-force intersection of the two coefficient spans
    si = ideal_span(I, k)
    sj = ideal_span(J2, k)
    monos = monomials_upto(2, k)

    # vectors v in both spans: v = A^T a = B^T b; solve [A^T | -B^T] null space
    matA = [[r.terms.get(m, Fraction(0)) for m in monos] for r in si.rows]
    matB = [[r.terms.get(m, Fraction(0)) for m in monos] for r in sj.rows]
    cols = len(monos)
    rowsAB = []
    for c in range(cols):
        rowsAB.append([r[c] for r in matA] + [-r[c] for r in matB])
    both = RowSpace(V, k)
    for vec in dense_nullspace(rowsAB):
        a = vec[: len(matA)]
        v = Jet({m: sum(ai * r[c] for ai, r in zip(a, matA))
                 for c, m in enumerate(monos)}, V, k)
        if not v.is_zero():
            both.add(v)
    sout = ideal_span(out, k)
    assert sout.rank == both.rank
    for f in out:
        assert both.contains(f)


def test_colon_example_ideal_equality():
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
    assert ideals_equal(out, printed, k)
    # each output generator f satisfies f*g in I
    sb = standard_basis(I, LO, k)
    for f in out:
        assert sb.contains((f * j("lam")).truncate(k))


def test_colon_trivials():
    assert [str(f) for f in colon_ideal([j("x*lam")], j("x"))] == ["lam"]
    assert [str(f) for f in colon_ideal([j("x^2")], j("1"))] == ["x^2"]
    # with a truncation degree a unit divisor takes the kernel solve too:
    # x^2 + x^3 = x^2*(1 + x), so the colon is <x^2>, reduced
    assert [str(f) for f in colon_ideal([j("x^2 + x^3")], j("1 + x"),
                                        6)] == ["x^2"]
    # without one, every answer is the reduced basis too: the colon here
    # is the whole ring, and a unit g gives I reduced, not I as given
    for k in (None, 3):
        assert [str(f) for f in colon_ideal([j("x + x*lam")],
                                            j("2*x^2 + x*lam"), k)] == ["1"]
    assert [str(f) for f in colon_ideal([j("x^2 + x^3")], j("1 + x"))] \
        == ["x^2"]


def test_colon_keeps_mora_unit_in_interreduction():
    # the untruncated local standard basis of I ∩ <g> is interreduced with a
    # weak normal form unit*tail = sum(q*others) + r; a generator rebuilt as
    # lead + r instead of lead*unit + r leaves the ideal, and the exact
    # division by g then failed
    k = 6
    g = j("x + lam^2")
    I = [j("x^2 - 1/2*x*lam^2 + x^2*lam^2"),
         j("lam^2 + lam^4 - x^2*lam^2"), j("x*lam")]
    out = colon_ideal(I, g, k)
    span_i = ideal_span(I, k)
    for f in out:
        assert span_i.contains((f * g).truncate(k))
    # the output spans the whole colon {h : h*g in I} modulo degree > k
    image = ideal_span(I, k)
    monos = monomials_upto(2, k)
    rank = sum(image.add((Jet.monomial(m, V) * g).truncate(k)) for m in monos)
    assert ideal_span(out, k).rank == len(monos) - rank


def test_colon_keeps_mora_unit_in_interreduction_untruncated():
    # the first input is the test above's without a truncation degree; its
    # ideal has finite codimension, so the colon is read from the span at
    # its own degree.  The second ideal has infinite codimension, so the
    # colon runs the t-trick, and the interreduction's weak normal form
    # there has the unit 1 - 2/5*lam: rebuilding a generator from its lead
    # and reduced tail without that unit made it raise ArithmeticError
    cases = [([j("x^2 - 1/2*x*lam^2 + x^2*lam^2"),
               j("lam^2 + lam^4 - x^2*lam^2"), j("x*lam")], j("x + lam^2")),
             ([j("-2*x*lam^2 - 2*lam^3"), j("-x*lam^2 + x^4*lam")],
              j("x + 1/2*lam^2"))]
    assert answer_span(cases[1][0]) is None
    for I, g in cases:
        out = colon_ideal(I, g)
        assert out
        sb = standard_basis(I, LO)
        for f in out:
            assert sb.contains(f * g)


def test_untruncated_colon_basis_is_reduced():
    # the exact quotients of I ∩ <g> by g were 2*x + lam^2 and lam^2: the
    # first one's tail held the second's leading monomial
    I = [j("x^2 + 3/2*lam^3"), j("lam^2 - x^2*lam - x*lam^3"),
         j("-lam^3 - x*lam^2")]
    out = colon_ideal(I, j("x - 1/2*lam^2"))
    assert [str(f) for f in out] == ["x", "lam^2"]
    leads = [f.leading_monomial(LO) for f in out]
    for f, lead in zip(out, leads):
        tail = [m for m in f.terms if m != lead]
        assert not any(mdivides(q, m) for q in leads for m in tail)


def test_colon_answers_have_positive_local_leading_coefficient():
    # Jet.primitive makes the lexicographically first coefficient positive
    # (x^2 in lam - x^2); a local answer is signed by its local leading term
    # instead, on both colon paths.  I has finite codimension, so its colon
    # is read from the jet space at I's own degree and is reduced (lam, not
    # the unit multiple lam - lam^2); x*lam - x^3 has infinite codimension
    # and takes the t-trick
    I = [j("x^3 + 1/2*x*lam^3 + 1/2*x^3*lam^2"),
         j("lam^2 - lam^3 + x*lam^2"), j("3/2*x^2*lam")]
    assert [str(f) for f in colon_ideal(I, j("lam - x^2"))] \
        == ["lam", "x^2"]
    assert [str(f) for f in colon_ideal([j("x*lam - x^3")], j("x"))] \
        == ["lam - x^2"]
    assert [str(f) for f in colon_ideal([j("x*lam - x^3")], j("x"), 6)] \
        == ["lam - x^2", "x^6"]


def dense_truncated_colon(I, g, k):
    """(I + M^(k+1)) : g in J^k by dense Gauss-Jordan alone: the vectors
    h = sum(a_m*m) with h*g = sum(b*m'*f) modulo degree > k, f in I, as
    `dense_rref`'s (reduced rows, pivot columns) over `monomials_upto`."""
    monos = monomials_upto(2, k)
    span = [dense_vector(f.truncate(k).term_mul(m), k) for f in I
            for m in monos]
    images = [dense_vector(g.truncate(k).term_mul(m), k) for m in monos]
    rows = [[im[c] for im in images] + [-s[c] for s in span]
            for c in range(len(monos))]
    return dense_rref([v[:len(monos)] for v in dense_nullspace(rows)])


def dense_vector(f, k):
    return [f.terms.get(m, Fraction(0)) for m in monomials_upto(2, k)]


def random_nonunit(rng, k):
    f = random_jet(rng, k=k)
    return f - Jet.constant(f.constant_term(), V, k)


def random_colon_case(rng, k):
    """(I, g): a finite-codimension ideal (pure powers of x and lam join
    it) or an infinite-codimension one (every generator is a multiple of
    one germ), and a divisor that is a unit one time in four."""
    I = [random_nonunit(rng, k) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.5:
        I += [j("x^%d" % rng.randint(2, k), k),
              j("lam^%d" % rng.randint(2, k), k)]
    else:
        common = j(rng.choice(["x", "lam", "x + lam^2", "x*lam"]), k)
        I = [f * common for f in I]
    g = random_nonunit(rng, k)
    if rng.random() < 0.25:
        g = g + Jet.constant(rng.randint(1, 3), V, k)
    return [f for f in I if not f.is_zero()], g


def test_truncated_colon_against_dense_reference():
    rng = random.Random(1807)
    cases = 0
    while cases < 40:
        k = rng.randint(2, 6)
        I, g = random_colon_case(rng, k)
        if not I or g.is_zero():
            continue
        out = colon_ideal(I, g, k)
        monos = monomials_upto(2, k)
        # equal spans: the ideal the answer generates in J^k
        generated = [dense_vector(h.term_mul(m), k) for h in out
                     for m in monos]
        assert dense_rref(generated) == dense_truncated_colon(I, g, k)
        # every generator times g lies in I + M^(k+1)
        span_i = dense_rref([dense_vector(f.truncate(k).term_mul(m), k)
                             for f in I for m in monos])[0]
        for h in out:
            with_hg = span_i + [dense_vector((h * g).truncate(k), k)]
            assert len(dense_rref(with_hg)[0]) == len(span_i)
        # reduced: leading monomials pairwise do not divide, and no tail
        # monomial is divisible by a leading monomial
        leads = [h.leading_monomial(LO) for h in out]
        for h, lm in zip(out, leads):
            assert not any(mdivides(o, lm) for o in leads if o != lm)
            assert not any(mdivides(o, m) for m in h.terms if m != lm
                           for o in leads)
        cases += 1


def test_untruncated_colon_is_the_reduced_basis():
    # one answer form on every path: where the colon has finite
    # codimension it is the primitive `_minimal_rows` of its own span, also
    # when I has infinite codimension (`mixed`), and for a unit g it is the
    # primitive `standard_basis` of I itself
    rng = random.Random(4099)
    units = spans = mixed = 0
    for _ in range(150):
        I, g = random_colon_case(rng, rng.randint(2, 6))
        I, g = [f.truncate(None) for f in I], g.truncate(None)
        if not I or g.is_zero():
            continue
        out = colon_ideal(I, g)
        if g.constant_term() != 0:
            units += 1
            assert out == [_local_primitive(f)
                           for f in standard_basis(I).generators]
        span = answer_span(out) if out else None
        if span is not None:
            spans += 1
            mixed += answer_span(I) is None
            assert out == [_local_primitive(h.truncate(None))
                           for h in _minimal_rows(span)]
    assert units >= 30 and spans >= 60 and mixed >= 5


def test_colon_paths_agree_where_the_ideal_contains_a_power_of_m():
    # x^a and lam^b in I give M^(a+b-1) in I, so with a + b - 1 <= k
    # I + M^(k+1) = I, and both paths answer the same ideal mod M^(k+1)
    rng = random.Random(2718)
    for _ in range(8):
        k = rng.randint(4, 6)
        a = rng.randint(2, k - 1)
        b = rng.randint(2, k + 1 - a)
        I = [j("x^%d" % a), j("lam^%d" % b), random_nonunit(rng, None)]
        g = random_nonunit(rng, None)
        if g.is_zero():
            continue
        assert ideals_equal(colon_ideal(I, g), colon_ideal(I, g, k), k)

# --------------------------------------------------- normal sets, codim

NS_EXAMPLE = [
    "x^6 + lam*x^4 + lam^2*x",
    "lam*x^5 + lam^2*x^3 + lam^3",
    "5*x^6 + 3*lam*x^4",
    "5*lam*x^4 + 3*lam^2*x^2",
    "-3*x^7 - 3*lam*x^5 - 25/3*x^6",
]


def test_normal_set_example():
    ns = normal_set([j(s) for s in NS_EXAMPLE])
    printed = {
        (0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (3, 0), (4, 0), (5, 0),
        (1, 1), (3, 1), (2, 1),
    }
    assert set(ns) == printed
    assert len(ns) == 11
    assert codimension([j(s) for s in NS_EXAMPLE]) == 11


def test_normal_set_trivials():
    assert normal_set([j("x"), j("lam")]) == [(0, 0)]
    assert set(normal_set([j("x^2"), j("lam")])) == {(0, 0), (1, 0)}


def test_normal_set_starts_at_one_descending_order():
    ns = normal_set([j(s) for s in NS_EXAMPLE])
    assert ns[0] == (0, 0)
    keys = [LO.key(m) for m in ns]
    assert keys == sorted(keys, reverse=True)


def test_codimension_values():
    assert codimension([j("x"), j("lam^2")]) == 2
    assert codimension([j("x^2")]) is None
    # normal set size equals jet dimension minus span rank
    k = 8
    G = [j(s, k) for s in NS_EXAMPLE]
    span = ideal_span(G, k)
    assert len(normal_set(G, k)) == len(monomials_upto(2, k)) - span.rank


# -------------------------------------------------------------- mult matrix

def test_mult_matrix_example():
    k = 6
    A = [
        j("x^6 + 12/27*x^10*lam^9", k),
        j("5/3*x^5 + lam*sin(x^3)", k),
        j("lam^2 - 2/3*(1 - exp(x^5))", k),
    ]
    M, basis = mult_matrix(A, (1, 0), k)
    assert basis[0] == (0, 0)
    n = len(basis)
    assert n == 9
    # multiplication by x maps basis monomial m to x*m when that is again a
    # basis monomial; the only correction term is -5/3 from lam*x^3
    index = {m: i for i, m in enumerate(basis)}
    for jcol, m in enumerate(basis):
        target = (m[0] + 1, m[1])
        col = [M[i][jcol] for i in range(n)]
        if target in index:
            expected = [Fraction(0)] * n
            expected[index[target]] = Fraction(1)
            assert col == expected
    # the x^2*lam column reduces: x^3*lam = -5/3*x^5 mod the ideal
    col = [M[i][index[(2, 1)]] for i in range(n)]
    expected = [Fraction(0)] * n
    expected[index[(5, 0)]] = Fraction(-5, 3)
    assert col == expected


def test_mult_matrix_trivial_and_commutation():
    M, basis = mult_matrix([j("x", 4), j("lam", 4)], (1, 0), 4)
    assert M == [[Fraction(0)]]
    A = [j("x^3", 6), j("lam^2", 6)]
    Mx, _ = mult_matrix(A, (1, 0), 6)
    Ml, _ = mult_matrix(A, (0, 1), 6)
    def matmul(P, Q):
        n = len(P)
        return [[sum(P[i][t] * Q[t][c] for t in range(n)) for c in range(n)]
                for i in range(n)]
    assert matmul(Mx, Ml) == matmul(Ml, Mx)
    Mxl, _ = mult_matrix(A, (1, 1), 6)
    assert matmul(Mx, Ml) == Mxl


# --------------------------------------------- untruncated finite ideals

def polynomials(top, size):
    return st.dictionaries(
        st.tuples(st.integers(0, top), st.integers(0, top)),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        max_size=size).map(lambda terms: Jet(terms, V, None))


def above(f, d):
    """The terms of f of degree above d."""
    return Jet({m: c for m, c in f.terms.items() if sum(m) > d}, V, None)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), polynomials(4, 3),
       polynomials(4, 3), polynomials(2, 2), polynomials(2, 2),
       st.lists(polynomials(4, 3), max_size=1), polynomials(4, 3),
       st.integers(0, 2))
def test_untruncated_answers_equal_those_at_any_degree_from_d(
        a, b, h1, h2, p, q, extra, g, more):
    # <x^a + h1, lam^b + h2> has finite codimension, and so an own degree
    # D with M^D inside it; the generators are mixed by p and q, which
    # keeps the ideal, so Mora's loop may have to find the pure powers.
    # Every untruncated answer is the answer in J^k for every k >= D, and
    # the basis is reduced: no tail term is divisible by a leading monomial
    f1 = j("x^%d" % a) + above(h1, a)
    f2 = j("lam^%d" % b) + above(h2, b)
    f1 = f1 + p * f2
    I = [f1, f2 + q * f1] + [f for f in extra if not f.is_zero()]
    k = answer_span(I).degree + more
    sb = standard_basis(I)
    assert sb.generators == standard_basis(I, LO, k).generators
    assert all(f.degree is None for f in sb.generators)
    assert normal_set(I) == normal_set(I, k)
    assert mult_matrix(I, (1, 0)) == mult_matrix(I, (1, 0), k)
    g = g - Jet.constant(g.constant_term(), V)
    if not g.is_zero():
        assert colon_ideal(I, g) == colon_ideal(I, g, k)
    leads = sb.leading_monomials()
    for f, lm in zip(sb.generators, leads):
        assert not any(mdivides(o, m) for o in leads for m in f.terms
                       if m != lm)

# -------------------------------------------------------------- eliminate

WINGED = ("x", "lam", "a1", "a2", "a3")


def w(text):
    return parse_and_expand(text, WINGED, None)


def test_eliminate_fold_example():
    G = w("x^4 - lam*x + a1 + a2*lam + a3*x^2")
    Gx = w("4*x^3 - lam + 2*a3*x")
    Gl = w("-x + a2")
    out = eliminate([G, Gx, Gl], ["x", "lam"])
    assert [str(f) for f in out] == ["a1 + a2^2*a3 + a2^4"]


def test_eliminate_hysteresis_example():
    G = w("x^4 - lam*x + a1 + a2*lam + a3*x^2")
    Gx = w("4*x^3 - lam + 2*a3*x")
    Gxx = w("12*x^2 + 2*a3")
    out = eliminate([G, Gx, Gxx], ["x", "lam"])
    assert [str(f) for f in out] == \
        ["432*a1^2 + 72*a1*a3^2 + 3*a3^4 + 128*a2^2*a3^3"]


def test_eliminate_dense_projection():
    out = eliminate([parse_and_expand("x - a1", ("x", "a1"), None)], ["x"])
    assert out == []


def test_eliminate_output_vanishes_on_witnesses():
    import sympy

    G = w("x^4 - lam*x + a1 + a2*lam + a3*x^2")
    Gx = w("4*x^3 - lam + 2*a3*x")
    Gl = w("-x + a2")
    out = eliminate([G, Gx, Gl], ["x", "lam"])
    p = out[0]
    rng = random.Random(5)
    count = 0
    while count < 50:
        xv = Fraction(rng.randint(-30, 30), rng.randint(1, 5))
        lv = Fraction(rng.randint(-30, 30), rng.randint(1, 5))
        # solve the linear system for (a1, a2, a3): a2 = x, then the rest
        a2 = xv
        a3 = Fraction(lv - 4 * xv ** 3, 2 * xv) if xv != 0 else None
        if a3 is None:
            continue
        a1 = -(xv ** 4) + lv * xv - a2 * lv - a3 * xv ** 2
        val = p.evaluate({"a1": a1, "a2": a2, "a3": a3})
        assert val == 0
        count += 1


def test_eliminate_saturation_removes_diagonal():
    # winged-cusp double-limit equations in s = x1 + x2, m = x1*x2; on the
    # diagonal s^2 = 4m they reduce to F = F_x = F_xx = 0, the hysteresis set
    v = ("s", "m", "lam", "a1", "a2", "a3")
    eqs = [parse_and_expand(t, v, None) for t in (
        "s^4 - 4*s^2*m + 2*m^2 - lam*s + 2*a1 + 2*a2*lam + a3*s^2 - 2*a3*m",
        "s^3 - 2*s*m - lam + a3*s",
        "4*s^3 - 12*s*m - 2*lam + 2*a3*s",
        "4*s^2 - 4*m + 2*a3")]
    gate = parse_and_expand("s^2 - 4*m", v, None)
    saturated = eliminate(eqs, ["lam", "m", "s"], saturate=gate)
    assert [str(f) for f in saturated] == ["4*a1 - a3^2"]
    plain = eliminate(eqs, ["lam", "m", "s"])
    assert len(plain) == 1
    hysteresis = parse_and_expand(
        "432*a1^2 + 72*a1*a3^2 + 3*a3^4 + 128*a2^2*a3^3",
        ("a1", "a2", "a3"), None)
    assert plain[0] == saturated[0] * hysteresis


def test_eliminate_empty_variety():
    v = ("x", "a1")
    out = eliminate([parse_and_expand("x", v, None),
                     parse_and_expand("x - 1", v, None)], ["x"])
    assert [str(f) for f in out] == ["1"]


# ------------------------------------------------- square-free part of one f
# eliminate([f], []) drops nothing, so it returns the square-free part of f
# alone ([] for f = 0, [1] for a nonzero constant): L_C's route for a corner

PARAMS = ("a1", "a2")


def a(text):
    return parse_and_expand(text, PARAMS, None)


@pytest.mark.parametrize("text, expected", [
    # a repeated factor free of a1 and one free of a2
    ("(a1^2 + 1)^2 * a2", "a2 + a1^2*a2"),
    ("a1^3 * (a2 - 1)^2", "-a1 + a1*a2"),
    # denominators in the input, and a rational content
    ("(a1/2 - a2/3)^2 * (3*a1 + a2)/5", "9*a1^2 - 3*a1*a2 - 2*a2^2"),
    # a negative lexicographically first coefficient
    ("-(a1 - a2)^3 * a2^2", "a1*a2 - a2^2"),
    ("-a2^4", "a2"),
    ("5/3", "1"),
    ("0", "0"),
])
def test_radical_fixed_cases(text, expected):
    # the zero polynomial leaves no polynomial: the projection is dense
    out = [str(f) for f in eliminate([a(text)], [])]
    assert out == ([] if expected == "0" else [expected])


def nonzero(polys):
    return polys.filter(lambda f: not f.is_zero())


@settings(max_examples=20, deadline=None)
@given(nonzero(polynomials(2, 3)), nonzero(polynomials(2, 3)),
       st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(
           bool))
def test_radical_drops_square_factors_and_normalizes(p, q, c):
    [r] = eliminate([(p * p * q).scale(c)], [])
    assert [r] == eliminate([p * q], [])
    assert [r] == eliminate([r], [])
    # primitive with a positive lexicographically first coefficient
    assert all(v.denominator == 1 for v in r.terms.values())
    assert r == r.primitive() and r.terms[max(r.terms)] > 0
    # the square-free part over QQ, normalized the same way (Gauss's lemma)
    R = poly_ring(V)
    assert r == from_ring(to_ring(p * q, R).sqf_part(), V).primitive()
