"""Dense exact linear algebra over Fraction, sized for jet-space problems
(dimensions are a few hundred at most)."""

from __future__ import annotations

from fractions import Fraction


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
    """Incrementally built row space with O(rank) membership tests."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []      # reduced rows
        self.pivots = []    # pivot column of each row

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec):
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if vec[p] != 0:
                f = vec[p]
                vec = [a - f * b for a, b in zip(vec, row)]
        return vec

    def contains(self, vec):
        return all(v == 0 for v in self._reduce(vec))

    def add(self, vec):
        """Insert a vector; returns True when it enlarged the space."""
        vec = self._reduce([Fraction(v) for v in vec])
        for c, v in enumerate(vec):
            if v != 0:
                vec = [x / v for x in vec]
                for i, row in enumerate(self.rows):
                    if row[c] != 0:
                        f = row[c]
                        self.rows[i] = [a - f * b for a, b in zip(row, vec)]
                self.rows.append(vec)
                self.pivots.append(c)
                order = sorted(range(len(self.rows)), key=lambda i: self.pivots[i])
                self.rows = [self.rows[i] for i in order]
                self.pivots = [self.pivots[i] for i in order]
                return True
        return False


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
