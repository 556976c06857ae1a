"""Exact linear algebra over Fraction, sized for jet-space problems
(dimensions are a few hundred at most).

`RowSpace` is the span of a set of jets, kept as sparse reduced rows keyed
by monomial; it is the one place where monomials become columns.  The dense
solvers below (`rref`, `solve_linear`, `nullspace`, `rank`) take lists of
rows and solve linear systems."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .jets import Jet, mdeg, monomials_upto


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
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


class RowSpace:
    """The span of some jets in the space of degree-<=k jets in `variables`.

    Columns are the monomials of degree <= k in `monomials_upto` order.  The
    span is kept as its reduced row echelon form: one sparse row
    {monomial: Fraction} per pivot monomial (the row's first column), equal
    to 1 there and 0 at every other row's pivot.  That form is unique, so
    the rows depend only on the span, not on the order of insertion."""

    def __init__(self, variables, k):
        self.variables = tuple(variables)
        self.degree = k
        self._col = _columns(len(self.variables), k)
        self._rows = {}  # pivot monomial -> reduced row

    @property
    def rank(self):
        return len(self._rows)

    @property
    def rows(self):
        """The reduced rows as jets, in pivot column order."""
        return [Jet(dict(self._rows[p]), self.variables, self.degree,
                    _clean=False)
                for p in sorted(self._rows, key=self._col.__getitem__)]

    def monomials(self):
        """The monomials lying in the span: those whose pivot row is the
        monomial alone."""
        return {p for p, row in self._rows.items() if len(row) == 1}

    def _reduce(self, f):
        """f truncated to degree k, minus its projection on the span."""
        vec = {m: c for m, c in f.terms.items() if m in self._col}
        # rows vanish at each other's pivots, so one pass clears them all
        for p in [m for m in vec if m in self._rows]:
            c = -vec.pop(p)
            for m, r in self._rows[p].items():
                if m != p:
                    v = vec.get(m)
                    if v is None:
                        vec[m] = c * r
                    else:
                        v += c * r
                        if v:
                            vec[m] = v
                        else:
                            del vec[m]
        return vec

    def contains(self, f):
        return not self._reduce(f)

    def copy(self):
        """An independent RowSpace with the same span."""
        other = RowSpace(self.variables, self.degree)
        other._rows = {p: dict(row) for p, row in self._rows.items()}
        return other

    def add_multiples(self, f, least=0):
        """Insert m*f for every monomial m with least <= deg m <= k - ord f,
        which spans M^least{f} modulo degree > k; a zero f adds nothing."""
        f = f.truncate(self.degree)
        if f.is_zero():
            return
        for m in monomials_upto(len(self.variables), self.degree - f.order()):
            if mdeg(m) >= least:
                self.add(f.term_mul(m))

    def add(self, f):
        """Insert a jet; returns True when it enlarged the span."""
        vec = self._reduce(f)
        if not vec:
            return False
        p = min(vec, key=self._col.__getitem__)
        lead = vec.pop(p)
        if lead != 1:
            vec = {m: c / lead for m, c in vec.items()}
        # clear column p from the other rows; their entry there cancels
        # against the new row's 1, so it is dropped, not computed
        for row in self._rows.values():
            c = row.pop(p, None)
            if c is not None:
                c = -c
                for m, v in vec.items():
                    x = row.get(m)
                    if x is None:
                        row[m] = c * v
                    else:
                        x += c * v
                        if x:
                            row[m] = x
                        else:
                            del row[m]
        vec[p] = Fraction(1)
        self._rows[p] = vec
        return True


@lru_cache(maxsize=None)
def _columns(nvars, k):
    """Column position of each monomial of degree <= k (shared by every
    RowSpace of that size, so never modified)."""
    return {m: i for i, m in enumerate(monomials_upto(nvars, k))}


def solve_linear(matrix, rhs):
    """One solution of matrix * x = rhs with free variables set to 0, or None
    when inconsistent.  `matrix` is a list of rows."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(matrix, rhs)]
    reduced, pivots = rref(aug)
    for row in reduced:
        if all(v == 0 for v in row[:-1]) and row[-1] != 0:
            return None
    if ncols in pivots:
        return None  # pivot in the augmented column
    x = [Fraction(0)] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = row[-1]
    return x


def nullspace(matrix, ncols=None):
    """Basis of the right null space of `matrix` (list of rows)."""
    if not matrix:
        return []
    ncols = ncols if ncols is not None else len(matrix[0])
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
