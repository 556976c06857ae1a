"""Exact linear algebra over Fraction, sized for jet-space problems
(dimensions are a few hundred at most).

`RowSpace` is the span of a set of jets, kept as sparse reduced rows keyed
by column index; it is the one place where monomials become columns and
the only row reduction.  The dense functions below take lists of rows and run
on a RowSpace, reading a row (v_0, ..., v_(n-1)) as the one-variable jet
v_0 + v_1*c + ... + v_(n-1)*c^(n-1), whose columns are in that order."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .jets import Jet, integer_terms, mdeg, mmul, monomials_upto


class RowSpace:
    """The span of some jets in the space of degree-<=k jets in `variables`.

    Columns are the monomials of degree <= k in `monomials_upto` order,
    indexed 0, 1, ...; that order ascends by degree, so the columns of
    degree <= d are the first ones.  The span is kept as its reduced row
    echelon form: one sparse row per pivot column (the row's first column),
    0 at every other row's pivot.  A row is stored fraction-free (Bareiss,
    Math. Comp. 22, 1968), as a primitive integer vector {column: int} whose
    pivot entry is positive; divided by that entry it is the reduced row,
    equal to 1 at its pivot.  That form is unique, so the rows depend only
    on the span, not on the order of insertion.  The public methods take
    and return jets and monomials."""

    def __init__(self, variables, k):
        self.variables = tuple(variables)
        self.degree = k
        self._monos, self._col = _columns(len(self.variables), k)
        self._rows = {}  # pivot column -> primitive integer row

    @property
    def rank(self):
        return len(self._rows)

    @property
    def rows(self):
        """The reduced rows as jets, 1 at the pivot, in pivot column order."""
        monos, out = self._monos, []
        for p in sorted(self._rows):
            row = self._rows[p]
            lead = row[p]
            out.append(Jet({monos[i]: Fraction(v, lead)
                            for i, v in row.items()},
                           self.variables, self.degree, _clean=False))
        return out

    def pivots(self):
        """The pivot monomials (leading local monomials), in column order."""
        return [self._monos[p] for p in sorted(self._rows)]

    def monomials(self):
        """The monomials lying in the span: those whose pivot row is the
        monomial alone."""
        return {self._monos[p] for p, row in self._rows.items()
                if len(row) == 1}

    def _vector(self, f):
        """(vec, scale): f truncated to degree k times its common denominator
        scale, as an integer vector {column: int}."""
        pairs, scale = integer_terms(f.terms)
        col = self._col
        return {col[m]: v for m, v in pairs if m in col}, scale

    def _reduce(self, vec):
        """Reduce an integer vector in place against the span; returns the
        positive int s by which vec was scaled, so that the reduced vec is s
        times the given one minus its projection on the span.  vec ends
        empty when it lay in the span."""
        scale = 1
        # rows vanish at each other's pivots, so one pass clears them all:
        # vec becomes (a/g)*vec - (c/g)*row, where a is the row's pivot
        # entry, c is vec's and g = gcd(a, c), and the scale grows by a/g
        for p in [i for i in vec if i in self._rows]:
            row = self._rows[p]
            c = vec.pop(p)
            a = row[p]
            g = gcd(a, c)
            a //= g
            c //= g
            if a != 1:
                scale *= a
                for i in vec:
                    vec[i] *= a
            for i, r in row.items():
                if i != p:
                    v = vec.get(i, 0) - c * r
                    if v:
                        vec[i] = v
                    else:
                        del vec[i]
        return scale

    def residue(self, f):
        """f truncated to degree k, minus its projection on the span, as a
        sparse vector {monomial: Fraction}; empty when f lies in the span."""
        vec, scale = self._vector(f)
        scale *= self._reduce(vec)
        monos = self._monos
        return {monos[i]: Fraction(v, scale) for i, v in vec.items()}

    def contains(self, f):
        vec = self._vector(f)[0]
        self._reduce(vec)
        return not vec

    def copy(self):
        """An independent RowSpace with the same span."""
        other = RowSpace(self.variables, self.degree)
        other._rows = {p: dict(row) for p, row in self._rows.items()}
        return other

    def truncate(self, d):
        """The span's image in the jets of degree <= d, for d <= k: the rows
        whose pivot has degree <= d, cut at d and divided by their content.
        The columns ascend by degree, so a kept row keeps its pivot and
        stays 0 at the other pivots, and a row with its pivot above d
        vanishes; the kept rows are the image's reduced rows."""
        if d > self.degree:
            raise ValueError("a span of degree %d has no image in degree %d"
                             % (self.degree, d))
        other = RowSpace(self.variables, d)
        n = len(other._monos)
        for p, row in self._rows.items():
            if p < n:
                vec = {i: v for i, v in row.items() if i < n}
                g = gcd(*vec.values())
                if g != 1:
                    vec = {i: v // g for i, v in vec.items()}
                other._rows[p] = vec
        return other

    def add_multiples(self, f, least=0):
        """Insert m*f for every monomial m with least <= deg m <= k - ord f,
        which spans M^least{f} modulo degree > k; a zero f adds nothing.
        f's denominators are cleared once: each m*f is f's integer vector
        shifted by m through the table of `_shifts`, cut at degree k."""
        vec = self._vector(f)[0]
        if not vec:
            return
        n, k = len(self.variables), self.degree
        top = k - mdeg(self._monos[min(vec)])  # k - ord f
        terms = list(vec.items())
        # the columns of the multipliers m, from degree least to top: there
        # are comb(d + n, n) monomials of degree <= d
        for shift in _shifts(n, k)[comb(least - 1 + n, n):comb(top + n, n)]:
            self._add({s: v for i, v in terms
                       if (s := shift[i]) is not None})

    def add(self, f):
        """Insert a jet; returns True when it enlarged the span."""
        return self._add(self._vector(f)[0])

    def _add(self, vec):
        """Reduce an integer vector and insert what is left as a row; returns
        True when it enlarged the span."""
        self._reduce(vec)
        if not vec:
            return False
        self._insert(vec)
        return True

    def _insert(self, vec):
        """Add a nonzero reduced integer vector as a row."""
        p = min(vec)
        content = gcd(*vec.values())
        if vec[p] < 0:
            content = -content
        if content != 1:
            vec = {i: v // content for i, v in vec.items()}
        a = vec[p]
        # clear column p from the other rows: row becomes (a/g)*row -
        # (c/g)*vec with c its entry there and g = gcd(a, c), whose entry at
        # p cancels, so it is dropped, not computed; the row keeps a
        # positive pivot entry and is divided by its content
        for row in self._rows.values():
            c = row.pop(p, None)
            if c is not None:
                g = gcd(a, c)
                s, c = a // g, c // g
                if s != 1:
                    for i in row:
                        row[i] *= s
                for i, v in vec.items():
                    if i != p:
                        x = row.get(i, 0) - c * v
                        if x:
                            row[i] = x
                        else:
                            del row[i]
                g = gcd(*row.values())
                if g != 1:
                    for i in row:
                        row[i] //= g
        self._rows[p] = vec


@lru_cache(maxsize=None)
def _columns(nvars, k):
    """(monomials, column): the monomials of degree <= k in column order and
    the column of each (shared by every RowSpace of that size, so never
    modified)."""
    monos = tuple(monomials_upto(nvars, k))
    return monos, {m: i for i, m in enumerate(monos)}


@lru_cache(maxsize=None)
def _shifts(nvars, k):
    """For each column j, the list over the columns i of the column of
    m_i*m_j, None above degree k: `add_multiples`' shifts, built for the
    sizes it is asked for (shared, so never modified)."""
    monos, col = _columns(nvars, k)
    get = col.get
    return [[get(mmul(a, b)) for a in monos] for b in monos]


_C = ("c",)


def _as_jet(row, n):
    """A dense row of length n as a jet in the one variable c."""
    return Jet({(i,): v for i, v in enumerate(row) if v}, _C, n - 1)


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    if not rows:
        return [], []
    n = len(rows[0])
    space = RowSpace(_C, n - 1)
    for row in rows:
        space.add(_as_jet(row, n))
    reduced, zero = space.rows, Fraction(0)
    return ([[r.terms.get((i,), zero) for i in range(n)] for r in reduced],
            [min(r.terms)[0] for r in reduced])


def solve_linear(matrix, rhs):
    """One solution of matrix * x = rhs with free variables set to 0, or None
    when inconsistent.  `matrix` is a list of rows.  x[p] is read from the
    integer row of pivot p as its last entry over its pivot entry."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    space = RowSpace(_C, ncols)
    for row, b in zip(matrix, rhs):
        space.add(_as_jet(list(row) + [b], ncols + 1))
    x = [Fraction(0)] * ncols
    for p, row in space._rows.items():
        if p == ncols:
            return None  # a row 0 = b with b != 0
        x[p] = Fraction(row.get(ncols, 0), row[p])
    return x


def nullspace(matrix, ncols=None):
    """Basis of the right null space of `matrix` (list of rows); `ncols`
    gives the width of a matrix that may have no rows."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    reduced, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def rank(matrix):
    return len(rref(matrix)[0])
