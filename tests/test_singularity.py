"""Tangent spaces, normal forms, unfoldings, recognition, transformations."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from germforge import intrinsic, singularity
from germforge.germexpr import parse_and_expand
from germforge.intrinsic import (
    IntrinsicIdeal,
    high_order_part,
    intrinsic_from_members,
    mrt_span,
    verify_germ,
)
from germforge.jets import Jet, mdeg, monomials_upto
from germforge.linalg import RowSpace
from germforge.localalg import ideal_span
from germforge.singularity import (
    NOT_CANONICAL_WARNING,
    NotEquivalentError,
    ParameterCountError,
    UnfoldingGerm,
    ZeroGermError,
    _solve_scaling,
    alg_objects,
    check_universal,
    equivalent,
    intrinsic_gens,
    make_unfolding,
    normal_form,
    recognition_normal_form,
    recognition_unfolding,
    restricted_tangent,
    s_perp,
    tangent_perp,
    tangent_space,
    transformation,
    universal_unfolding,
)
from test_linalg import dense_rank

V = ("x", "lam")


def j(text, k=None):
    return parse_and_expand(text, V, k)


def span_of(intrinsic_blocks, extra_jets, extra_ideal_gens, k):
    """Brute-force span: intrinsic monomials + plain vectors + full ideal
    closure of further generators."""
    space = RowSpace(V, k)
    ideal = IntrinsicIdeal.from_blocks(intrinsic_blocks)
    for m in monomials_upto(2, k):
        if ideal.contains_monomial(m):
            space.add(Jet.monomial(m, V, 1, k))
    for f in extra_jets:
        space.add(f.truncate(k))
    if extra_ideal_gens:
        closure = ideal_span([f.truncate(k) for f in extra_ideal_gens], k)
        for row in closure.rows:
            space.add(row)
    return space


def spaces_equal(a, b):
    if a.rank != b.rank:
        return False
    return all(b.contains(r) for r in a.rows)


QUINTIC = "x^5 + x^3*lam^2 + lam^3"


def test_alg_objects_tower():
    g = j(QUINTIC, 6)
    ao = alg_objects(g)
    assert ao.p.blocks == ((6, 0), (1, 3))
    assert ao.s.blocks == ((5, 0), (0, 3))
    assert ao.intrinsic_generators == [(5, 0), (0, 3)]
    expected_et = {(0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (3, 0),
                   (2, 1), (1, 2), (2, 2), (1, 1)}
    assert set(ao.e_over_t) == expected_et
    expected_sperp = expected_et | {(4, 0), (3, 1)}
    assert set(ao.s_perp) == expected_sperp
    assert len(ao.e_over_t) == 10
    assert len(ao.s_perp) == 12


def test_alg_objects_inserts_each_tangent_product_once(monkeypatch):
    # P, RT and T grow in one span, M*RT(g) in RT(g) in T(g), so the
    # inserts are T's generator products E{g}, E{g_x} and E_lambda{g_lambda},
    # each once, then one trial insert per monomial for E/T; `add` and
    # `add_multiples` both insert through `_add`
    calls = []
    insert = RowSpace._add

    def counting(self, vec):
        calls.append(vec)
        return insert(self, vec)

    monkeypatch.setattr(RowSpace, "_add", counting)
    g = j(QUINTIC, 6)  # ord g = 3, ord g_x = 4
    alg_objects(g)

    def up_to(d):
        return len(monomials_upto(2, d))

    assert len(calls) == up_to(6 - 3) + up_to(6 - 4) + 7 + up_to(6)
    # grown from a span that holds M*RT(g) already, as verify_germ's does,
    # only RT's products (g, x*g_x, lambda*g_x), T's (g_x, lambda^j*g_lambda
    # for j <= 6) and the E/T trials are inserted
    mrt = mrt_span(g, 6)
    calls.clear()
    alg_objects(g, mrt)
    assert len(calls) == 3 + 1 + 7 + up_to(6)


def test_normal_form_computes_one_p_per_degree_searched(monkeypatch):
    # the last P of the truncation-degree search is the normal form's P:
    # one M*RT span per degree searched, and none after the search
    seen = []

    def recording(g, k):
        seen.append(k)
        return mrt_span(g, k)

    monkeypatch.setattr(intrinsic, "mrt_span", recording)
    monkeypatch.setattr(singularity, "mrt_span", recording)
    nf = normal_form(lambda k: j("x^3 - sin(lam)", k))
    assert nf.germ == j("x^3 - lam", 3)
    # the 1- and 2-jets, -lam, have no term on the x axis: a span, and P,
    # only at k = 3
    assert seen == [4]


def test_rt_matches_printed_span():
    g = j(QUINTIC, 6)
    rt = restricted_tangent(g)
    assert rt.intrinsic.blocks == ((6, 0), (1, 3))
    printed = span_of(
        [(6, 0), (1, 3)], [],
        [j("x^4*lam"), j("3*lam^2*x^3 + 5*x^5"), j("lam^2*x^3 + x^5 + lam^3")],
        6)
    assert spaces_equal(rt.space, printed)


def test_t_matches_printed_span():
    g = j(QUINTIC, 6)
    t = tangent_space(g)
    assert t.intrinsic.blocks == ((5, 0), (0, 3))
    printed = span_of(
        [(5, 0), (0, 3)],
        [j("3/5*lam^2*x^2 + x^4"), j("x^3*lam + 3/2*lam^2")],
        [], 6)
    assert spaces_equal(t.space, printed)


def test_tangent_perp_codim_20():
    g = j("x^8 + sin(lam^3)", 9)
    tp = tangent_perp(g)
    expected = ({(a, 0) for a in range(7)} | {(a, 1) for a in range(7)}
                | {(a, 2) for a in range(1, 7)})
    assert set(tp) == expected
    assert len(tp) == 20


def test_tangent_perp_cubic():
    g = j("x^3 + lam^2", 4)
    assert set(tangent_perp(g)) == {(0, 0), (1, 0), (1, 1)}


def test_intrinsic_gens_codim_13():
    g = j("lam*x^8 + x^7 - lam^3*x^2 - lam^2*x")
    assert intrinsic_gens(g) == [(7, 0), (1, 2)]


def test_normal_forms():
    cases = [
        ("x^3 - sin(lam)", "x^3 - lam"),
        ("1 - 1/(1 + x^4 - lam^2)", "x^4 - lam^2"),
        ("x^5 + x^3*lam + sin(lam^2)", "x^5 + x^3*lam + lam^2"),
        # scalings whose exponents are all nonzero: 2*x^3 + lam^2 needs
        # S = 16, X = x/2, Lambda = lam/4
        ("2*x^3 + lam^2", "x^3 + lam^2"),
        ("3*x^3 + 5*lam^2", "x^3 + lam^2"),
    ]
    for text, expected in cases:
        nf = normal_form(lambda k, t=text: j(t, k))
        assert nf.germ == j(expected, nf.germ.degree)
        assert nf.warnings == []


def test_normal_form_scaling():
    nf = normal_form(lambda k: j("x^4 + 4*x^3 - lam*x", k))
    assert nf.germ == j("x^3 - x*lam", nf.germ.degree)


def test_normal_form_warns_where_no_scaling_makes_it_canonical():
    # x^2 + x*lam + lam^2 shifts to x^2 + 3/4*lam^2, and s*a^2 = 1 with
    # s*c^2 = 4/3 needs c/a = 2/sqrt(3); x^2 + 2*lam^2 needs c/a = 1/sqrt(2)
    for text, form in (("x^2 + x*lam + lam^2", "x^2 + 3/4*lam^2"),
                       ("x^2 + 2*lam^2", "x^2 + 2*lam^2")):
        nf = normal_form(lambda k, t=text: j(t, k))
        assert nf.germ == j(form, nf.germ.degree)
        assert nf.warnings == [NOT_CANONICAL_WARNING]
    nf = normal_form(lambda k: j("x^2 + 9*lam^2", k))
    assert nf.germ == j("x^2 + lam^2", nf.germ.degree)
    assert nf.warnings == []


def test_universal_unfolding_list():
    results, warns = universal_unfolding(lambda k: j("x^3 - x*lam", k),
                                         want_list=True)
    assert warns == []
    rendered = {str(u) for u in results}
    assert rendered == {
        "a1 - x*lam + lam*a2 + x^3",
        "a1 - x*lam + x^3 + x^2*a2",
    }
    for u in results:
        assert check_universal(u) == ("Yes", [])


def test_universal_unfolding_main_and_warning():
    main, warns = universal_unfolding(lambda k: j("x^3 - x*lam", k))
    assert warns == []
    assert check_universal(main) == ("Yes", [])


def test_check_universal_quintic():
    G = make_unfolding(j("x^5 - lam"), [j("x"), j("x^2"), j("x^3")])
    assert check_universal(G) == ("Yes", [])
    bad = make_unfolding(j("x^5 - lam"), [j("x"), j("2*x"), j("x^3")])
    assert check_universal(bad) == ("No", [])
    short = make_unfolding(j("x^5 - lam"), [j("x"), j("x^2")])
    assert check_universal(short) == ("No", [])


def test_check_universal_answers_at_the_given_degree():
    # at degree 4 the base x^5 - lam is -lam, whose E/T = {x, .., x^4}
    # takes four parameters; x^2 has no truncation degree, so only the
    # default degree warns
    G = make_unfolding(j("x^5 - lam"), [j("x"), j("x^2"), j("x^3")])
    assert check_universal(G, 5) == ("Yes", [])
    assert check_universal(G, 4) == ("No", [])
    assert check_universal(make_unfolding(j("-lam"), [j("x"), j("x^2"),
                                                      j("x^3")]), 3) == \
        ("Yes", [])
    fold = make_unfolding(j("x^2"), [j("1"), j("lam")])
    assert check_universal(fold, 6)[1] == []
    assert check_universal(fold)[1] == [intrinsic.INCREASE_BOUND_WARNING]


def test_recognition_conditions():
    rc = recognition_normal_form(j("x^3 + sin(lam)", 4))
    assert rc.zero == [(0, 0), (1, 0), (2, 0)]
    assert rc.nonzero == [(0, 1), (3, 0)]
    text = rc.render()
    assert "f_{x,x}(0)=0" in text
    assert "f_{x,x,x}(0)!=0" in text
    assert "f_{lambda}(0)!=0" in text


def test_recognition_matrix_pattern():
    g = j("x^3 + exp(lam^2) - 1", 4)
    M = recognition_unfolding(g, 3)
    assert M.columns == [(0, 0), (0, 1), (1, 0), (2, 0), (1, 1)]
    assert M.germ_rows == [("g_x", (0, 0)), ("g_lambda", (0, 0))]
    rows = M.render()
    assert rows[0] == ["0", "0", "0", "g_{x,x,x}(0)", "g_{x,x,lambda}(0)"]
    assert rows[1] == ["0", "g_{lambda,lambda}(0)", "0",
                       "g_{x,x,lambda}(0)", "g_{x,lambda,lambda}(0)"]
    assert all(e.startswith("G_{") for e in rows[2])


def regular_at(M, g, G):
    """Whether the recognition matrix M, evaluated on the germ g and the
    directions of the unfolding G, is regular.  An entry (c, name, m, i)
    is c times the derivative d^m at 0 of g or of G's i-th direction, which
    is m's factorials times that jet's coefficient at m.  Regularity is a
    full rank of the dense reference (`test_linalg.dense_rank`)."""

    def value(entry):
        if entry is None:
            return Fraction(0)
        c, name, m, i = entry
        h = g if name == "g" else G.direction(i - 1)
        return c * h.terms.get(m, 0) * factorial(m[0]) * factorial(m[1])

    rows = [[value(e) for e in row] for row in M.entries]
    return dense_rank(rows) == len(rows)


def test_recognition_matrix_determinant():
    g = j("x^3 + exp(lam^2) - 1", 4)
    M = recognition_unfolding(g, 3)
    base = j("x^3 + lam^2", 4)
    good = make_unfolding(base, [j("1"), j("x"), j("x*lam")])
    bad = make_unfolding(base, [j("1"), j("x"), j("2*x")])
    assert regular_at(M, base, good)
    assert check_universal(good)[0] == "Yes"
    assert not regular_at(M, base, bad)
    assert check_universal(bad)[0] == "No"


# GS I ch. IV's normal forms of codimension <= 3, and four germs of larger
# codimension; x^3 + lam^5 needs T(g)'s generators of degree 3
RECOGNITION_GERMS = [
    "x^2 - lam", "x^3 - lam", "x^3 + lam", "x^2 + lam^2", "x^2 - lam^2",
    "x^3 - x*lam", "x^4 - lam", "x^2 + lam^3", "x^5 - lam", "x^3 + lam^2",
    "x^4 - x*lam", "x^2 - lam^4",
    "x^3 + lam^5", "x^3 + lam^4", "x^4 + lam^3", "x^5 + lam^2",
]


@pytest.mark.parametrize("text", RECOGNITION_GERMS)
def test_recognition_matrix_rows_decide_universality(text):
    rng = random.Random(text)
    k = verify_germ(lambda kk: j(text, kk)).truncation_degree
    g = j(text, k)
    main, _warnings = universal_unfolding(lambda kk: j(text, kk))
    codim = len(main.params)
    t = tangent_space(g)
    outside = [m for m in monomials_upto(2, k)
               if not t.intrinsic.contains_monomial(m)]
    n = len(outside)
    bases = {"g_x": g.diff("x"), "g_lambda": g.diff("lam"), "g": g}
    for p in range(codim, n + 1):
        M = recognition_unfolding(g, p)
        assert sorted(M.columns) == sorted(outside)
        assert len(M.entries) == n and all(len(r) == n for r in M.entries)
        # n - p germ rows, independent modulo Itr(T)
        assert len(M.germ_rows) == n - p
        space = RowSpace(V, k)
        for m in monomials_upto(2, k):
            if t.intrinsic.contains_monomial(m):
                space.add(Jet.monomial(m, V, 1, k))
        assert all(space.add(bases[label].term_mul(mult))
                   for label, mult in M.germ_rows)
    with pytest.raises(ParameterCountError, match="at most"):
        recognition_unfolding(g, n + 1)
    if codim:
        with pytest.raises(ParameterCountError, match="at least"):
            recognition_unfolding(g, codim - 1)
    # at p = codim T the germ rows span T/Itr(T): the matrix is regular
    # exactly when the unfolding is universal
    M = recognition_unfolding(g, codim)
    candidates = [main]
    if codim:
        dirs = [main.direction(i) for i in range(codim)]
        rows = t.space.rows
        member = sum((row.scale(rng.randint(1, 3))
                      for row in rng.sample(rows, min(3, len(rows)))),
                     Jet.zero(V, k))
        dirs[rng.randrange(codim)] = member
        candidates.append(make_unfolding(g, dirs))
    answers = []
    for G in candidates:
        answer, _warnings = check_universal(G)
        assert regular_at(M, g, G) == (answer == "Yes")
        answers.append(answer)
    assert answers == ["Yes", "No"][:len(candidates)]


def spans_the_jet_space(t, directions):
    """Whether T(g), as the span `t.space` in J^k, and the directions span
    J^k."""
    space = t.space.copy()
    for f in directions:
        space.add(f)
    return space.rank == len(monomials_upto(2, space.degree))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["x^3 - x*lam", "x^3 + lam^2", "x^2 - lam^4"]),
       st.data())
def test_regular_matrix_above_codim_t_spans_the_jet_space(text, data):
    # above codim T the matrix keeps only n - p of T/Itr(T)'s generator
    # images, yet a regular matrix still shows that T(g) and the directions
    # span J^k; a direction in T adds nothing to that span, so such
    # directions test that regularity claims no more than the span gives
    k = verify_germ(lambda kk: j(text, kk)).truncation_degree
    g = j(text, k)
    t = tangent_space(g)
    monos = monomials_upto(2, k)
    n = sum(not t.intrinsic.contains_monomial(m) for m in monos)
    p = data.draw(st.integers(len(monos) - t.space.rank + 1, n))
    M = recognition_unfolding(g, p)
    coeffs = st.integers(-2, 2)
    dense = st.lists(coeffs, min_size=len(monos), max_size=len(monos)).map(
        lambda cs: Jet(dict(zip(monos, cs)), V, k))
    member = st.lists(st.tuples(st.sampled_from(t.space.rows), coeffs),
                      min_size=1, max_size=2).map(
        lambda pairs: sum((r.scale(c) for r, c in pairs), Jet.zero(V, k)))
    direction = dense | member | st.builds(lambda a, b: a + b, dense, member)
    dirs = data.draw(st.lists(direction, min_size=p, max_size=p))
    if regular_at(M, g, make_unfolding(g, dirs)):
        assert spans_the_jet_space(t, dirs)


def test_recognition_matrix_above_codim_t_is_sufficient_not_necessary():
    # x^3 - x*lam has codim T = 2 and n = 4, and 1 and x^2 span a
    # complement of T(g); at p = 3 the one germ row is g_x = 3*x^2 - lam
    g = j("x^3 - x*lam", 3)
    t = tangent_space(g)
    M = recognition_unfolding(g, 3)
    for texts, regular in ((["1", "x", "x^2"], True),
                           (["1", "x^2", "3*x^2 - lam"], False)):
        dirs = [j(text, 3) for text in texts]
        assert regular_at(M, g, make_unfolding(g, dirs)) == regular
        assert spans_the_jet_space(t, dirs)


def test_transformation_cubic_example():
    g = j("x^3 + sin(lam) + exp(x^5) - 1", 4)
    f = j("x^3 + lam", 4)
    tr = transformation(g, f, 4)
    res = tr.residual(g, f)
    assert all(sum(m) >= 4 for m in res.terms)
    assert tr.S.constant_term() > 0
    assert tr.X.terms[(1, 0)] > 0
    assert tr.L.terms[(0, 1)] > 0


def test_transformation_printed_triple_passes_residual():
    g = j("x^3 + sin(lam) + exp(x^5) - 1", 4)
    f = j("x^3 + lam", 4)
    X = j("x + lam + x*lam + lam^2", 4)
    L = j("lam", 4)
    S = j("1 - 3*x^2 - 3*x*lam - 5/6*lam^2 - 3*x^3 - 9*lam*x^2"
          " - 9*x*lam^2 - 3*lam^3", 4)
    res = f - S * g.compose({"x": X, "lam": L})
    assert all(sum(m) >= 4 for m in res.terms)


def test_transformation_infeasible():
    with pytest.raises(NotEquivalentError):
        transformation(j("x^2 - lam", 3), j("x^2 + lam", 3), 3)
    assert not equivalent(j("x^2 - lam", 3), j("x^2 + lam", 3), 3)


def test_transformation_needs_principal_parts_of_equal_weights():
    # one order 2 and one Newton vertex (2, 0), but the edges at it have
    # the weights (1, 1) and (3, 2): no scaling maps x^2 + lam^2 to
    # x^2 + lam^3
    with pytest.raises(NotEquivalentError,
                       match="no contact transformation found up to degree 4"):
        transformation(j("x^2 + lam^2", 4), j("x^2 + lam^3", 4), 4)


def test_transformation_scaling():
    g, f = j("x^2 - lam", 4), j("2*x^2 - 3*lam", 4)
    tr = transformation(g, f, 4)
    assert tr.residual(g, f).is_zero()
    assert tr.S.constant_term() > 0 and tr.L.terms[(0, 1)] > 0


positive = st.fractions(min_value=Fraction(1, 30), max_value=30)
exponents = st.tuples(st.integers(0, 6), st.integers(0, 6))


def reproduces(scaling, ratios):
    s, a, c = scaling
    return (min(scaling) > 0
            and all(s * a ** i * c ** j == r for (i, j), r in ratios.items()))


@settings(max_examples=300, deadline=None)
@given(positive, positive, positive,
       st.lists(exponents, min_size=1, max_size=5, unique=True),
       st.data())
def test_solve_scaling_reproduces_every_ratio(s, a, c, monos, data):
    ratios = {(i, j): s * a ** i * c ** j for i, j in monos}
    assert reproduces(_solve_scaling(ratios), ratios)
    # an extra prime factor on one ratio leaves no solution or another one
    m = data.draw(st.sampled_from(monos))
    ratios[m] *= data.draw(st.sampled_from([2, 3, 5, 7]))
    scaling = _solve_scaling(ratios)
    assert scaling is None or reproduces(scaling, ratios)


@pytest.mark.parametrize("ratios, expected", [
    # the first ratio fixes s; a and c are free
    ({(2, 0): Fraction(1, 10000000000000061)},
     (Fraction(1, 10000000000000061), 1, 1)),
    # 2^(1/2) is irrational
    ({(0, 0): Fraction(1), (2, 0): Fraction(2)}, None),
    # s * a^3 = 2 and s * c^2 = 1: no exponent of the witness is zero
    ({(3, 0): Fraction(2), (0, 2): Fraction(1)},
     (Fraction(16), Fraction(1, 2), Fraction(1, 4))),
    # a^2 = 9/4 and c^3 = 8/27 from large rational roots
    ({(0, 0): Fraction(10**40), (2, 0): Fraction(9, 4) * 10**40,
      (0, 3): Fraction(8, 27) * 10**40},
     (Fraction(10**40), Fraction(3, 2), Fraction(2, 3))),
])
def test_solve_scaling_examples(ratios, expected):
    assert _solve_scaling(ratios) == expected


# Golubitsky and Schaeffer I, ch. IV, Table 2.1: the normal forms of
# codimension <= 3
TABLE_2_1 = ["x^2 - lam", "x^3 - lam", "x^3 + lam", "x^2 + lam^2",
             "x^2 - lam^2", "x^3 - x*lam", "x^4 - lam", "x^2 + lam^3",
             "x^5 - lam", "x^3 + lam^2", "x^4 - x*lam", "x^2 - lam^4"]
scales = st.sampled_from([Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 2),
                          2])
shifts = st.sampled_from([-1, Fraction(-1, 2), Fraction(1, 2), 1])
smalls = st.sampled_from([-1, Fraction(-1, 2), 0, Fraction(1, 2), 1])


@st.composite
def contact_images(draw, f):
    """S*f(X, Lambda), untruncated, with a lambda term in X."""
    def jet(*terms):
        return Jet({m: draw(coefficients) for m, coefficients in terms}, V)
    X = jet(((1, 0), scales), ((0, 1), shifts), ((2, 0), smalls),
            ((1, 1), smalls))
    L = jet(((0, 1), scales), ((0, 2), smalls))
    S = jet(((0, 0), scales), ((1, 0), smalls), ((0, 1), smalls))
    return S * f.compose({"x": X, "lam": L})


@pytest.mark.parametrize("text", TABLE_2_1)
@settings(max_examples=5, deadline=None)
@given(st.data())
def test_contact_images_give_the_normal_form_and_a_transformation(text,
                                                                  data):
    f = j(text)
    g1, g2 = (data.draw(contact_images(f)) for _ in range(2))
    for g in (g1, g2):
        nf = normal_form(g.truncate)
        assert nf.germ == f.truncate(nf.germ.degree)
    k = f.total_degree() + 1
    g1, g2 = g1.truncate(k), g2.truncate(k)
    tr = transformation(g1, g2, k)
    assert all(mdeg(m) >= k for m in tr.residual(g1, g2).terms)


def test_a_germ_that_vanishes_below_degree_k_is_equivalent_to_zero():
    # x^3 lies in M^3, so its 2-jet is 0's: the identity is a witness
    tr = transformation(j("x^3", 3), Jet({}, V, 3), 3)
    assert (str(tr.X), str(tr.L), str(tr.S)) == ("x", "lam", "1")
    with pytest.raises(NotEquivalentError, match="not equivalent"):
        transformation(j("x^2", 3), Jet({}, V, 3), 3)


def test_transformation_random_roundtrips():
    # applying a known transformation and solving back must succeed
    import random

    rng = random.Random(5)
    base_texts = ["x^3 - lam", "x^2 - lam", "x^3 - x*lam"]
    for text in base_texts:
        for _ in range(4):
            k = 5
            g = j(text, k)
            s = Fraction(rng.randint(1, 3))
            S = (Jet.constant(s, V, k)
                 + Jet.monomial((0, 1), V, Fraction(rng.randint(-2, 2), 6), k))
            X = (Jet.variable("x", V, k)
                 + Jet.monomial((2, 0), V, Fraction(rng.randint(-2, 2), 4), k)
                 + Jet.monomial((1, 1), V, Fraction(rng.randint(-2, 2), 4), k))
            L = (Jet.variable("lam", V, k)
                 + Jet.monomial((0, 2), V, Fraction(rng.randint(-2, 2), 5), k))
            f = (S * g.compose({"x": X, "lam": L})).truncate(k)
            tr = transformation(g, f, k)
            res = tr.residual(g, f)
            assert res.is_zero() or all(sum(m) >= k for m in res.terms)


def base_by_filter(G):
    """The term filter `UnfoldingGerm.base` was before it composed: the
    terms free of every parameter."""
    return Jet({m[:2]: c for m, c in G.body.terms.items() if not any(m[2:])},
               G.body.variables[:2], G.body.degree)


def direction_by_filter(G, i):
    """The term filter `UnfoldingGerm.direction(i)` was: the terms linear
    in alpha_i and free of the other parameters."""
    return Jet({m[:2]: c for m, c in G.body.terms.items()
                if m[2 + i] == 1 and sum(m[2:]) == 1},
               G.body.variables[:2], G.body.degree)


@st.composite
def unfoldings(draw):
    p = draw(st.integers(0, 3))
    params = tuple("a%d" % (i + 1) for i in range(p))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * (2 + p)),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        max_size=8))
    degree = draw(st.sampled_from([None, 0, 2, 5]))
    return UnfoldingGerm(Jet(terms, V + params, degree), params)


@settings(max_examples=80, deadline=None)
@given(unfoldings())
def test_base_and_directions_equal_the_term_filters(G):
    pairs = [(G.base(), base_by_filter(G))]
    pairs += [(G.direction(i), direction_by_filter(G, i))
              for i in range(len(G.params))]
    for got, expected in pairs:
        assert got == expected
        assert (got.variables, got.degree) == (V, G.body.degree)


def test_unfolding_refuses_a_repeated_name():
    names = ("x", "lam", "a1")
    body = parse_and_expand("x^3 - lam + a1*x", names, 12)
    G = UnfoldingGerm(Jet(dict(body.terms), names, None), ("a1",))
    assert check_universal(G) == ("Yes", [])
    twice = names + ("a1",)
    body = parse_and_expand("x^3 - lam + a1*x", twice, 12)
    with pytest.raises(ValueError, match="'a1' is named twice"):
        UnfoldingGerm(Jet(dict(body.terms), twice, None), ("a1", "a1"))


def test_zero_germ_has_zero_tangent_spans():
    zero = Jet({}, V, 2)
    for S in (restricted_tangent(zero), tangent_space(zero)):
        assert S.space.rank == 0 and S.extra == [] and str(S) == "0"


def test_alg_objects_of_zero_germ_says_so():
    with pytest.raises(ValueError, match="zero germ"):
        alg_objects(Jet({}, V, 2))


def test_tangent_layer_refuses_an_untruncated_jet():
    g = Jet({(3, 0): 1, (0, 1): 1}, V, None)
    for call in (restricted_tangent, tangent_space, tangent_perp, alg_objects,
                 lambda h: recognition_unfolding(h, 1)):
        with pytest.raises(ValueError, match="need a truncated jet"):
            call(g)


def test_zero_working_jet_raises():
    with pytest.raises(ZeroGermError, match="zero up to degree 3"):
        normal_form(lambda k: j("x^7", k), 3)
    with pytest.raises(ZeroGermError, match="zero up to degree 6"):
        universal_unfolding(lambda k: j("0", k))


germ_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=5)


@settings(max_examples=40, deadline=None)
@given(germ_terms, st.integers(2, 6))
def test_spanspace_is_intrinsic_part_plus_independent_extras(terms, k):
    g = Jet(terms, V, k)
    assume(not g.is_zero())  # the tower is defined for nonzero germs
    for S in (restricted_tangent(g), tangent_space(g)):
        span = RowSpace(V, k)
        for m in S.intrinsic.monomials_upto(k):
            span.add(Jet.monomial(m, V, 1, k))
        # each extra enlarges the span of the intrinsic part and of the
        # extras before it
        assert all(span.add(f) for f in S.extra)
        assert spaces_equal(span, S.space)


def products_span(gens, plain, k):
    """m*f for every f in gens and every monomial m, plus the jets in
    `plain`, added one by one modulo degree > k."""
    space = RowSpace(V, k)
    for f in gens:
        for m in monomials_upto(2, k):
            space.add(f.term_mul(m))
    for f in plain:
        space.add(f)
    return space


@settings(max_examples=40, deadline=None)
@given(germ_terms, st.integers(1, 6))
@example({(5, 0): 1, (3, 2): 1, (0, 3): 1}, 6)  # needs g_lambda*lambda
def test_tangent_spans_agree_with_their_generator_products(terms, k):
    g = Jet(terms, V, k)
    x, lam = Jet.variable("x", V, k), Jet.variable("lam", V, k)
    gx, glam = g.diff("x"), g.diff("lam")
    rt = products_span([g, x * gx, lam * gx], [], k)
    assert restricted_tangent(g).space.rows == rt.rows
    t = products_span([g, gx], [glam * lam ** i for i in range(k + 1)], k)
    assert tangent_space(g).space.rows == t.rows
    perp = []
    for m in sorted(monomials_upto(2, k), key=lambda m: (mdeg(m), m[0])):
        if t.add(Jet.monomial(m, V, 1, k)):
            perp.append(m)
    assert tangent_perp(g) == perp
    # P(g) sits inside M*RT(g) = M{g} + M^2{g_x}
    mrt = products_span([x * g, lam * g, x * x * gx, x * lam * gx,
                         lam * lam * gx], [], k)
    assert high_order_part(g, k) == intrinsic_from_members(mrt.monomials(), k)
