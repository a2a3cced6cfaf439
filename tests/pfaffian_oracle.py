"""The first-row expansion of the Pfaffian, kept as a test oracle.

This is the expansion ``solvlie.strata.pfaffian`` replaced by the signed
product of the pivots of the jump reduction. It sums (2k-1)!! terms on a
dense 2k x 2k matrix, so the tests use it only where that stays small.
``det``, an exact determinant by Gaussian elimination, is the reference
for |Pf|^2 = det.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from solvlie.gaussian import GaussianRational, ZERO
from solvlie.linalg import is_zero
from solvlie.strata import NotSkewError, OddDimensionError

GR1 = GaussianRational(1)


def pfaffian(mat: Sequence[Sequence[GaussianRational]]) -> GaussianRational:
    """Exact Pfaffian of a skew matrix by first-row expansion."""
    n = len(mat)
    if n % 2:
        raise OddDimensionError(f"Pfaffian needs even dimension, got {n}")
    for i in range(n):
        if len(mat[i]) != n:
            raise NotSkewError("matrix is not square")
        for j in range(i, n):
            a = GaussianRational.coerce(mat[i][j])
            b = GaussianRational.coerce(mat[j][i])
            if a != -b:
                raise NotSkewError(f"entries ({i},{j}) and ({j},{i}) are not skew")

    def pf(indices: Tuple[int, ...]) -> GaussianRational:
        if not indices:
            return GR1
        i0 = indices[0]
        rest = indices[1:]
        total = ZERO
        sign = GR1
        for pos, j in enumerate(rest):
            entry = mat[i0][j]
            if not is_zero(entry):
                sub = tuple(x for x in rest if x != j)
                total = total + sign * entry * pf(sub)
            sign = -sign
        return total

    return pf(tuple(range(n)))


def det(rows: Sequence[Sequence[GaussianRational]]) -> GaussianRational:
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
