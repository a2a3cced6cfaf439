"""The dense row operations of ``solvlie.linalg``, kept as a test oracle.

Before the sparse Gauss-Jordan routine, ``linalg`` ran two dense loops over
whole row lists: ``rref`` (Gauss-Jordan elimination column by column, the
pivot of each column being its first nonzero entry at or below the current
row) and ``reduce_row`` (one row against a growing echelon). ``rank``,
``kernel``, ``invert``, ``Subspace`` and ``extend_echelon`` were built on
them as below. An RREF is unique, so the library must return the same rows
and pivots; the tests compare every one of these with the library.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from solvlie.gaussian import GaussianRational, ZERO

GR1 = GaussianRational(1)


def rref(rows):
    """Reduced row echelon form. Returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        pivot_row = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv if x else x for x in rows[r]]
        pivot_row_vals = rows[r]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b if b else a
                           for a, b in zip(rows[k], pivot_row_vals)]
        pivots.append(c)
        r += 1
    return rows[: len(pivots)], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def rref_kernel(red, pivots, ncols: int):
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [ZERO] * ncols
        vec[f] = GR1
        for row, p in zip(red, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def kernel(rows, ncols: int):
    """Basis of {x : rows @ x = 0} as row vectors of length ncols."""
    return rref_kernel(*rref(rows), ncols)


def reduce_row(rows, pivots, vec):
    """vec minus its combination of the echelon rows, taken in order."""
    v = list(vec)
    for row, c in zip(rows, pivots):
        x = v[c]
        if x:
            v = [a - x * b if b else a for a, b in zip(v, row)]
    return v


def extend_echelon(rows, pivots, vec):
    """``reduce_row`` vec and append the remainder, if any, scaled to 1 at
    its first nonzero entry; returns the remainder before scaling."""
    v = reduce_row(rows, pivots, vec)
    lead = next((c for c, x in enumerate(v) if x), None)
    if lead is not None:
        inv = v[lead]
        rows.append([x / inv if x else x for x in v])
        pivots.append(lead)
    return v


def identity(n: int):
    return [[GR1 if i == j else ZERO for j in range(n)] for i in range(n)]


def invert(rows) -> Optional[list]:
    """The inverse by one elimination of [rows | I], or None if singular."""
    size = len(rows)
    red, pivots = rref([list(r) + unit for r, unit in zip(rows, identity(size))])
    if pivots[:size] != list(range(size)):
        return None
    return [row[size:] for row in red]


class Subspace:
    """A subspace held as its dense RREF rows, compared row by row."""

    def __init__(self, rows: Iterable, ambient_dim: int):
        self.rows, self.pivots = rref([list(r) for r in rows])
        self.ambient_dim = ambient_dim

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_vector(self, vec) -> bool:
        return not any(reduce_row(self.rows, self.pivots, vec))

    def __eq__(self, other):
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, tuple(tuple(r) for r in self.rows)))
