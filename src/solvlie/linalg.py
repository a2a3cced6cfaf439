"""Row-echelon linear algebra over Q(i), exact only.

Matrices are lists of rows of GaussianRational (reduced integer triples
(n + m i)/d), each row a dense list or a sparse {column: value} dict of its
nonzero entries. Every rank, kernel and inverse is exact, which is what
makes the jump index machinery reproducible; an entry is zero when it is
falsy (``not x``), the exact zero test.

One routine does row operations: ``_reduce``, which subtracts multiples of
echelon rows from a sparse row and touches only the entries stored.
``rref`` is Gauss-Jordan elimination on it: each incoming row is reduced
by the echelon rows at the pivots it holds (an RREF row is 0 at the other
pivots), and what is left becomes a new pivot row, cleared from the rows
holding its column; ``extend_rref`` is that step on an RREF kept as
{pivot: row} and grown in place. ``rank``, ``invert`` and ``Subspace``
build on ``rref``, and ``kernel`` on ``extend_rref``, stopping once every
column is a pivot; ``reduce_row`` and ``extend_echelon`` run
``_reduce`` against a growing echelon of sparse rows and return the sparse
remainder, empty iff the vector was dependent. Every routine reads dense or sparse
rows and returns sparse ones; ``Subspace.rows`` is the one dense view,
each zero entry the shared ``ZERO``. An RREF is unique, so the sparse
route returns what dense elimination did. Every independence and
membership test of the package grows or reads such an echelon; no other
module eliminates.

Float values appear only at float points of g* (points moved by the
dilation flow, whose coordinates pick up factors e^{t}), and nothing here
eliminates in floats. Every float tolerance behind a decision lives here:
``FLOAT_TOL``, the zero tolerance of a float point (``Functional.tol``),
which every pivot, pairing and membership test there reads through
``is_zero``, the one zero test (exact without a tolerance, |x| <= tol with
one), or ``zero_test``, the same test with the tolerance bound, for the
inner loops of a kernel; and ``REALITY_TOL``, the reality test of the
dilation flow (``functionals.exp_h_coadjoint`` raises RealityError when a
real coordinate x it recovers has |Im x| > REALITY_TOL (1 + |x|)).
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .gaussian import GaussianRational, ZERO

GR1 = GaussianRational(1)

Row = List
SparseRow = Dict[int, object]


FLOAT_TOL = 1e-9
REALITY_TOL = 1e-8


@lru_cache(maxsize=16)
def zero_test(tol: Optional[float] = None, scaled=False) -> Callable:
    """The zero test as a one-argument predicate: exact (``not x``) without
    a tolerance, else |x| <= tol. A kernel binds it once per call.

    With scaled, the predicate takes (x, s) and tests x / s for a nonzero
    scale s: exact, it tests x itself, since a nonzero factor changes no
    exact zero test, and divides nothing; else |x / s| <= tol."""
    if tol is None:
        return (lambda x, s: not x) if scaled else operator.not_
    if scaled:
        return lambda x, s: abs(x / s) <= tol
    return lambda x: abs(x) <= tol


def is_zero(x, tol: Optional[float] = None) -> bool:
    """The zero test: exact without a tolerance, else |x| <= tol."""
    return zero_test(tol)(x)


def _sparse(row) -> SparseRow:
    """A new {column: value} row of the nonzero entries of a dense row or
    of a sparse one."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: x for c, x in items if x}


def _dense(row: SparseRow, ncols: int) -> Row:
    """The dense row of length ncols, ``ZERO`` off the keys of row."""
    out = [ZERO] * ncols
    for c, x in row.items():
        out[c] = x
    return out


def _reduce(v: SparseRow, rows: Iterable[SparseRow], pivots: Iterable[int]) -> SparseRow:
    """The one row update: v -= v[c] * row for each echelon row and its
    pivot c in order, in place, touching only the entries stored. Row k is
    1 at ``pivots[k]`` and 0 at the pivots of the rows before it (as RREF
    rows are), so each step clears its pivot for good."""
    for row, c in zip(rows, pivots):
        x = v.pop(c, None)
        if x is None:
            continue
        for k, b in row.items():
            if k == c:
                continue
            a = v.get(k)
            if a is None:
                v[k] = -(x * b)
            else:
                a = a - x * b
                if a:
                    v[k] = a
                else:
                    del v[k]
    return v


def _pivot_row(v: SparseRow) -> Tuple[int, SparseRow]:
    """The first column of a nonzero sparse row, and the row scaled to 1
    there: v itself when it is 1 there already."""
    lead = min(v)
    inv = v[lead]
    if inv == GR1:
        return lead, v
    return lead, {c: x / inv for c, x in v.items()}


def rref(rows: Iterable) -> tuple[List[SparseRow], List[int]]:
    """Gauss-Jordan elimination: the RREF of the rows, dense or sparse, as
    sparse {column: value} rows by increasing pivot, and the pivot columns.
    The rows are read once, each copied; none is modified.

    Each incoming row is reduced against the echelon so far; what is left,
    if anything, is scaled to 1 at its first column, which becomes its
    pivot, and cleared from the other rows (``extend_rref``). So every held
    row is 1 at its pivot and 0 at every other pivot, the one RREF of the
    span."""
    red: Dict[int, SparseRow] = {}
    for row in rows:
        extend_rref(red, row)
    pivots = sorted(red)
    return [red[c] for c in pivots], pivots


def extend_rref(red: Dict[int, SparseRow], row) -> bool:
    """One step of ``rref``, in place on the RREF ``red``, which maps each
    pivot to its row: row (dense or sparse) reduced by the rows at the
    pivots it holds, in one pass, as each is 0 at every other pivot; what
    is left, if anything, is scaled to 1 at its first column, cleared from
    the rows holding that column and added. Returns whether the span grew."""
    v = _sparse(row)
    hit = [c for c in v if c in red]
    if hit:
        _reduce(v, map(red.__getitem__, hit), hit)
    if not v:
        return False
    lead, v = _pivot_row(v)
    for r in red.values():
        if lead in r:
            _reduce(r, (v,), (lead,))
    red[lead] = v
    return True


def rank(rows) -> int:
    return len(rref(rows)[1])


def kernel(rows, ncols: int) -> List[SparseRow]:
    """Basis of {x : rows @ x = 0} in columns 0..ncols-1, as sparse rows;
    the rows may be dense or sparse, supported in those columns. The rows
    are eliminated as ``rref`` does, and read only until the echelon holds
    every column: the kernel is then 0, whatever rows follow."""
    red: Dict[int, SparseRow] = {}
    for row in rows:
        if extend_rref(red, row) and len(red) == ncols:
            return []
    pivots = sorted(red)
    return rref_kernel([red[c] for c in pivots], pivots, ncols)


def rref_kernel(red: List[SparseRow], pivots: List[int],
                ncols: int) -> List[SparseRow]:
    """``kernel`` of sparse rows already in RREF with the given pivots: one
    sparse vector per free column f, 1 at f and minus column f of ``red``
    at the pivots, by increasing f; one pass over the stored entries."""
    taken = set(pivots)
    basis = {f: {f: GR1} for f in range(ncols) if f not in taken}
    for row, p in zip(red, pivots):
        for f, x in row.items():
            vec = basis.get(f)
            if vec is not None:
                vec[p] = -x
    return list(basis.values())


def reduce_row(rows: List[SparseRow], pivots: List[int], vec) -> SparseRow:
    """The sparse remainder of vec (dense or sparse) after subtracting its
    combination of the echelon ``rows``: row k is 1 at ``pivots[k]`` and 0
    at the pivots of the rows before it (as RREF rows are), so subtracting
    the rows in order clears each pivot for good, and vec lies in their
    span iff the remainder is empty."""
    return _reduce(_sparse(vec), rows, pivots)


def extend_echelon(rows: List[SparseRow], pivots: List[int], vec) -> SparseRow:
    """``reduce_row`` vec against the sparse echelon ``rows`` and append
    what is left, if anything, scaled to 1 at its first column, that column
    being its pivot. Returns the sparse remainder before scaling, empty iff
    vec was dependent (the appended row itself when no scaling was needed,
    so not to be modified)."""
    v = reduce_row(rows, pivots, vec)
    if v:
        lead, row = _pivot_row(v)
        rows.append(row)
        pivots.append(lead)
    return v


def invert(rows) -> Optional[List[SparseRow]]:
    """The inverse of a square matrix of dense or sparse rows by one
    elimination of [rows | I], as sparse rows with their columns
    ascending, or None if it is singular."""
    size = len(rows)
    red, pivots = rref([{**_sparse(row), size + i: GR1}
                        for i, row in enumerate(rows)])
    if pivots[:size] != list(range(size)):
        return None
    return [{c - size: row[c] for c in sorted(row) if c >= size}
            for row in red]


class Subspace:
    """A subspace of the coordinate space, held in canonical RREF form.

    ``sparse_rows`` are the RREF rows as {column: value} dicts (not to be
    modified), and ``rows`` the same rows dense, of length ambient_dim:
    the one dense view of a ``linalg`` result, for printing and padding.
    Equality is literal comparison of the rows. The rows given may be
    dense or sparse, in any iterable.
    """

    __slots__ = ("rows", "ambient_dim", "pivots", "sparse_rows")

    def __init__(self, rows: Iterable, ambient_dim: int):
        red, pivots = rref(rows)
        self.sparse_rows = red
        self.rows = [_dense(r, ambient_dim) for r in red]
        self.pivots = pivots
        self.ambient_dim = ambient_dim

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_vector(self, vec) -> bool:
        """Whether vec (dense or sparse) reduces to zero against the held
        RREF rows."""
        return not reduce_row(self.sparse_rows, self.pivots, vec)

    def intersect(self, other: "Subspace") -> "Subspace":
        # S cap T = annihilator of (ann S + ann T); ann is an involution.
        ann = kernel(self.sparse_rows, self.ambient_dim) + \
            kernel(other.sparse_rows, self.ambient_dim)
        return Subspace(kernel(ann, self.ambient_dim), self.ambient_dim)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"
