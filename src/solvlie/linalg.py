"""Row-echelon linear algebra over Q(i), exact only.

Matrices are lists of row lists of GaussianRational (reduced integer
triples (n + m i)/d). Every rank, kernel and inverse is exact, which is
what makes the jump index machinery reproducible; an entry is zero when it
is falsy (``not x``), the exact zero test.

Two routines do row operations: ``rref``, Gauss-Jordan elimination of a
whole matrix (``rank``, ``kernel``, ``invert`` and ``Subspace`` build on
it), and ``reduce_row``, one row against a growing echelon, which
``extend_echelon`` appends to. Every independence and membership test of
the package grows or reads such an echelon; no other module eliminates.

Float values appear only at float points of g* (such as points moved by a
dilation flow, whose coordinates pick up factors e^{t}), and nothing here
eliminates in floats. The zero test those points need lives here too:
``FLOAT_TOL`` is the one float tolerance of the package, ``is_zero`` is the
one zero test (exact without a tolerance, |x| <= tol with one), and
``zero_test`` is the same test with the tolerance bound, for the inner
loops of a kernel.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Callable, Iterable, List, Optional

from .gaussian import GaussianRational, ZERO

GR1 = GaussianRational(1)

Row = List
Matrix = List[Row]


FLOAT_TOL = 1e-9


@lru_cache(maxsize=16)
def zero_test(tol: Optional[float] = None) -> Callable[[object], bool]:
    """The zero test as a one-argument predicate: exact (``not x``) without
    a tolerance, else |x| <= tol. A kernel binds it once per call."""
    if tol is None:
        return operator.not_
    return lambda x: abs(x) <= tol


def is_zero(x, tol: Optional[float] = None) -> bool:
    """The zero test: exact without a tolerance, else |x| <= tol."""
    return zero_test(tol)(x)


def rref(rows: Matrix) -> tuple[Matrix, List[int]]:
    """Reduced row echelon form. Returns (rows, pivot column indices).

    The pivot of each column is its first nonzero entry at or below the
    current row.
    """
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


def rank(rows: Matrix) -> int:
    return len(rref(rows)[1])


def kernel(rows: Matrix, ncols: int) -> Matrix:
    """Basis of {x : rows @ x = 0} as row vectors of length ncols."""
    return rref_kernel(*rref(rows), ncols)


def rref_kernel(red: Matrix, pivots: List[int], ncols: int) -> Matrix:
    """``kernel`` of rows already in RREF with the given pivots: one vector
    per free column f, 1 at f and minus column f of ``red`` at the pivots."""
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [ZERO] * ncols
        vec[f] = GR1
        for row, p in zip(red, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def reduce_row(rows: Matrix, pivots: List[int], vec: Row) -> Row:
    """vec minus its combination of the echelon ``rows``: row k is 1 at
    ``pivots[k]`` and 0 at the pivots of the rows before it (as RREF rows
    are), so subtracting the rows in order clears each pivot for good, and
    vec lies in their span iff nothing is left."""
    v = list(vec)
    for row, c in zip(rows, pivots):
        x = v[c]
        if x:
            v = [a - x * b if b else a for a, b in zip(v, row)]
    return v


def extend_echelon(rows: Matrix, pivots: List[int], vec: Row) -> Row:
    """``reduce_row`` vec and append what is left, if anything, scaled to 1
    at its first nonzero entry, that column being its pivot. Returns the
    remainder before scaling, nonzero iff vec was independent."""
    v = reduce_row(rows, pivots, vec)
    lead = next((c for c, x in enumerate(v) if x), None)
    if lead is not None:
        inv = v[lead]
        rows.append([x / inv if x else x for x in v])
        pivots.append(lead)
    return v


def invert(rows: Matrix) -> Optional[Matrix]:
    """The inverse of a square matrix by one elimination of [rows | I], or
    None if it is singular."""
    size = len(rows)
    red, pivots = rref([list(r) + unit for r, unit in zip(rows, identity(size))])
    if pivots[:size] != list(range(size)):
        return None
    return [row[size:] for row in red]


class Subspace:
    """A subspace of the coordinate space, held in canonical RREF form.

    Equality is literal row comparison of the RREF basis.
    """

    __slots__ = ("rows", "ambient_dim", "pivots")

    def __init__(self, rows: Iterable[Row], ambient_dim: int):
        red, pivots = rref([list(r) for r in rows])
        self.rows = red
        self.pivots = pivots
        self.ambient_dim = ambient_dim

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_vector(self, vec: Row) -> bool:
        """Whether vec reduces to zero against the held RREF rows."""
        return not any(reduce_row(self.rows, self.pivots, vec))

    def intersect(self, other: "Subspace") -> "Subspace":
        # S cap T = annihilator of (ann S + ann T); ann is an involution.
        ann = kernel(self.rows, self.ambient_dim) + \
            kernel(other.rows, self.ambient_dim)
        return Subspace(kernel(ann, self.ambient_dim), self.ambient_dim)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def identity(n: int) -> Matrix:
    """The rows of the n x n identity matrix."""
    return [[GR1 if i == j else ZERO for j in range(n)] for i in range(n)]

