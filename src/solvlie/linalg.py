"""Row-echelon linear algebra over Q(i), with a tolerance mode for floats.

Matrices are lists of row lists. Scalars are GaussianRational (reduced
integer triples (n + m i)/d) in exact mode and Python complex in float mode;
the two never mix inside one matrix.
Exact mode decides ranks deterministically, which is what makes the jump
index machinery reproducible. Float mode exists only for coadjoint flows
under the dilation group, where entries pick up factors e^{t}.

This module owns the choice between the two: a ``tol`` of None means exact
arithmetic, and float mode uses ``FLOAT_TOL``, the one float tolerance of
the package. ``is_zero`` is the one zero test; ``zero_test`` is the same
test with the tolerance bound, for the inner loops of a kernel. (The
eigenbasis solve of the dilation flow passes its own, smaller pivot
threshold to ``solve``; that is a conditioning guard, not a zero test.)
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Callable, Iterable, List, Optional

from .gaussian import GaussianRational, ZERO

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


def _zero(tol: Optional[float]):
    return ZERO if tol is None else 0j


def rref(rows: Matrix, tol: Optional[float] = None) -> tuple[Matrix, List[int]]:
    """Reduced row echelon form. Returns (rows, pivot column indices).

    Exact mode picks the first nonzero pivot; float mode picks the largest
    entry in the column (partial pivoting) and zeroes entries below tol.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    zero = zero_test(tol)
    ncols = len(rows[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        pivot_row = None
        if tol is None:
            for k in range(r, len(rows)):
                if not zero(rows[k][c]):
                    pivot_row = k
                    break
        else:
            best = tol
            for k in range(r, len(rows)):
                if abs(rows[k][c]) > best:
                    best = abs(rows[k][c])
                    pivot_row = k
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x if zero(x) else x / inv for x in rows[r]]
        pivot_row_vals = rows[r]
        for k in range(len(rows)):
            if k != r and not zero(rows[k][c]):
                f = rows[k][c]
                rows[k] = [a if zero(b) else a - f * b
                           for a, b in zip(rows[k], pivot_row_vals)]
        pivots.append(c)
        r += 1
    kept = rows[: len(pivots)]
    if tol is not None:
        kept = [[0j if zero(x) else x for x in row] for row in kept]
    return kept, pivots


def rank(rows: Matrix, tol: Optional[float] = None) -> int:
    return len(rref(rows, tol)[1])


def kernel(rows: Matrix, ncols: int, tol: Optional[float] = None) -> Matrix:
    """Basis of {x : rows @ x = 0} as row vectors of length ncols."""
    red, pivots = rref(rows, tol)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    one = GaussianRational(1) if tol is None else 1 + 0j
    for f in free:
        vec = [_zero(tol)] * ncols
        vec[f] = one
        for row, p in zip(red, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def solve(rows: Matrix, rhs: Row, tol: Optional[float] = None) -> Optional[Row]:
    """One solution x of rows @ x = rhs, or None if inconsistent."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, tol)
    x = [_zero(tol)] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None  # pivot in the constant column
        x[p] = row[-1]
    return x


class Subspace:
    """A subspace of the coordinate space, held in canonical RREF form.

    Equality of exact subspaces is literal row comparison of the RREF basis.
    """

    __slots__ = ("rows", "ambient_dim", "pivots", "tol")

    def __init__(self, rows: Iterable[Row], ambient_dim: int,
                 tol: Optional[float] = None):
        red, pivots = rref([list(r) for r in rows], tol)
        self.rows = red
        self.pivots = pivots
        self.ambient_dim = ambient_dim
        self.tol = tol

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_vector(self, vec: Row) -> bool:
        """Reduce vec against the held RREF rows: each pivot entry is 1 and
        the only nonzero entry of its column, so vec is in the span iff
        nothing is left."""
        zero = zero_test(self.tol)
        v = list(vec)
        for row, c in zip(self.rows, self.pivots):
            x = v[c]
            if not zero(x):
                v = [a if zero(b) else a - x * b for a, b in zip(v, row)]
        return all(map(zero, v))

    def contains(self, other: "Subspace") -> bool:
        return rank(self.rows + other.rows, self.tol) == self.dim

    def intersect(self, other: "Subspace") -> "Subspace":
        # S cap T = annihilator of (ann S + ann T); ann is an involution.
        ann = kernel(self.rows, self.ambient_dim, self.tol) + \
            kernel(other.rows, self.ambient_dim, self.tol)
        return Subspace(kernel(ann, self.ambient_dim, self.tol),
                        self.ambient_dim, self.tol)

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace(self.rows + other.rows, self.ambient_dim, self.tol)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.tol is not None or other.tol is not None:
            raise ValueError("equality is only decidable for exact subspaces")
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def identity(n: int, tol: Optional[float] = None) -> Matrix:
    """The rows of the n x n identity matrix in the mode of tol."""
    one = GaussianRational(1) if tol is None else 1 + 0j
    zero = _zero(tol)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def full_space(n: int, tol: Optional[float] = None) -> Subspace:
    return Subspace(identity(n, tol), n, tol)


def det(rows: Matrix) -> GaussianRational:
    """Exact determinant by Gaussian elimination with division by the pivots."""
    n = len(rows)
    if n == 0:
        return GaussianRational(1)
    a = [list(r) for r in rows]
    out = GaussianRational(1)
    for c in range(n):
        piv = None
        for k in range(c, n):
            if not a[k][c].is_zero():
                piv = k
                break
        if piv is None:
            return ZERO
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out = out * a[c][c]
        inv = a[c][c]
        for k in range(c + 1, n):
            if not a[k][c].is_zero():
                f = a[k][c] / inv
                a[k] = [x - f * y for x, y in zip(a[k], a[c])]
    return out
