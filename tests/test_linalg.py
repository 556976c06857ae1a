"""RowSpace, the sparse span of jets, and the dense functions built on it,
against a dense Gauss-Jordan reference."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge.jets import Jet, mdeg, monomials_upto
from germforge.linalg import RowSpace, nullspace, rank, rref, solve_linear

V = ("x", "lam")


def dense_rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination on dense rows:
    (reduced rows, pivot columns).  The reference for RowSpace."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0),
                     None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def dense_nullspace(matrix):
    """Basis of the right null space of `matrix`, read off `dense_rref`."""
    reduced, pivots = dense_rref(matrix)
    ncols = len(matrix[0]) if matrix else 0
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def integer_rows(space):
    """A RowSpace's stored integer rows as {pivot: {monomial: int}}: column
    i is the i-th monomial of `monomials_upto`."""
    monos = monomials_upto(len(space.variables), space.degree)
    return {monos[p]: {monos[i]: v for i, v in row.items()}
            for p, row in space._rows.items()}


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
    return len(dense_rref(rows)[0])


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
    assert [dense(r, k) for r in space.rows] == dense_rref(rows)[0]
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


@settings(max_examples=30, deadline=None)
@given(jet_lists(), st.integers(2, 6), st.integers(1, 6), st.integers(0, 2))
def test_add_multiples_inserts_shifted_integer_vectors(case, content, den,
                                                       least):
    # f = (content/den)*h: add_multiples clears f's denominators once and
    # shifts that vector by each m, while `add` clears those of each m*f; the
    # spans start from the probes, so the shifted vectors are reduced too
    k, jets, probes = case
    space, products = RowSpace(V, k), RowSpace(V, k)
    for g in probes:
        space.add(g)
        products.add(g)
    for h in jets:
        f = h.scale(Fraction(content, den))
        space.add_multiples(f, least)
        for m in monomials_upto(2, k):
            if mdeg(m) >= least:
                products.add(f.term_mul(m))
    assert space.rows == products.rows
    assert space._rows == products._rows


def test_add_multiples_truncates_and_skips_zero():
    x = Jet.variable("x", V, None)
    lam = Jet.variable("lam", V, None)
    space = RowSpace(V, 2)
    space.add_multiples(Jet.zero(V, 2))
    space.add_multiples(x ** 3 + lam ** 4)  # zero modulo degree > 2
    assert space.rank == 0
    space.add_multiples(x + x ** 3, 1)  # M{x}: x^2 and x*lam
    assert space.monomials() == {(2, 0), (1, 1)}


@settings(max_examples=25, deadline=None)
@given(jet_lists(), st.data())
def test_truncate_is_the_span_of_the_generators_cut_at_d(case, data):
    # the image in the jets of degree <= d is stored exactly as a fresh
    # span of the generators cut at d, and the span itself is unchanged
    k, jets, _probes = case
    d = data.draw(st.integers(0, k))
    space, cut = RowSpace(V, k), RowSpace(V, d)
    for f in jets:
        space.add(f)
        cut.add(f.truncate(d))
    rows = space.rows
    image = space.truncate(d)
    assert image.degree == d
    assert integer_rows(image) == integer_rows(cut)
    assert space.rows == rows
    with pytest.raises(ValueError, match="no image in degree"):
        space.truncate(k + 1)


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


@settings(max_examples=30, deadline=None)
@given(jet_lists(), st.randoms(use_true_random=False))
def test_integer_rows_are_the_unique_reduced_rows(case, rng):
    k, jets, probes = case
    space, shuffled = RowSpace(V, k), RowSpace(V, k)
    for f in jets:
        space.add(f)
    for f in rng.sample(jets, len(jets)):
        shuffled.add(f)
    rows, pivots = space.rows, space.pivots()
    assert shuffled.rows == rows
    assert [r.terms[p] for r, p in zip(rows, pivots)] == [1] * len(rows)
    # each stored row: a primitive integer vector, positive at its pivot
    # and 0 at every other pivot
    for p, row in integer_rows(space).items():
        assert all(type(v) is int for v in row.values())
        assert gcd(*row.values()) == 1 and row[p] > 0
        assert not any(q in row for q in pivots if q != p)
    for f in probes + jets:
        res = space.residue(f)
        assert all(type(v) is Fraction for v in res.values())
        assert not any(p in res for p in pivots)
        assert space.contains(f.truncate(k) - Jet(res, V, k))


def test_elimination_divides_touched_rows_by_their_content():
    space = RowSpace(V, 1)
    space.add(Jet({(0, 0): 2, (1, 0): 1, (0, 1): 1}, V, 1))
    space.add(Jet({(1, 0): 1, (0, 1): 3}, V, 1))
    # (2 + x + lam) - (x + 3*lam) = 2 - 2*lam, stored as 1 - lam
    assert integer_rows(space)[(0, 0)] == {(0, 0): 1, (0, 1): -1}
    assert [str(r) for r in space.rows] == ["1 - lam", "x + 3*lam"]


ENTRIES = st.sampled_from([Fraction(0)] * 3) | st.fractions(
    min_value=-3, max_value=3, max_denominator=3)


@st.composite
def matrices(draw):
    """Dense matrices of 1 to 6 rows and columns, some rows combinations of
    others (zero rows among them), in random order."""
    ncols, nrows = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = [draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
            for _ in range(draw(st.integers(0, nrows)))]
    while len(rows) < nrows:
        coeffs = draw(st.lists(ENTRIES, min_size=len(rows),
                               max_size=len(rows)))
        rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)),
                         Fraction(0)) for j in range(ncols)])
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_dense_functions_agree_with_the_reference(A, data):
    ncols = len(A[0])
    reduced, pivots = dense_rref(A)
    assert rref(A) == (reduced, pivots)
    assert rank(A) == len(pivots)
    assert nullspace(A) == dense_nullspace(A)
    # one right-hand side in the column space and one drawn freely, which
    # is inconsistent when A is rank deficient and it misses the span
    y = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
    free = data.draw(st.lists(ENTRIES, min_size=len(A), max_size=len(A)))
    for b in ([sum(a * v for a, v in zip(row, y)) for row in A], free):
        x = solve_linear(A, b)
        if dense_rank([row + [v] for row, v in zip(A, b)]) > len(pivots):
            assert x is None
        else:
            assert [sum(a * v for a, v in zip(row, x)) for row in A] == b
            assert all(x[c] == 0 for c in range(ncols) if c not in pivots)


def test_nullspace_of_a_matrix_with_no_rows():
    # no equations constrain the ncols unknowns: the whole space
    assert nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([]) == []
