"""Two earlier nilpotency and central-series rules, kept as test oracles.

``lower_central_series_terminates`` is the check
``solvlie.algebra.validate_spec`` ran before it read nilpotency off the
ascending central series that the adapted-basis construction also uses: n
is nilpotent iff n, [n, n], [n, [n, n]], ... reaches 0. Each term is
spanned by the brackets of the basis of n with the rows of the previous
term; the series stalls when a term is as large as the one before. For a
Lie algebra the two rules agree; they may differ only where Jacobi fails.

``central_series`` is the ascending central series as
``solvlie.algebra.central_series`` built it with three eliminations per
level: the annihilator of the previous level as a kernel, the condition
rows from it, and the RREF of their kernel. The library now takes one
``rref`` of the condition rows per level and reads the next annihilator
off it; the tests compare the levels as subspaces.
"""

from __future__ import annotations

from solvlie.algebra import HypothesisViolation, LieAlgebraSpec
from solvlie.gaussian import ZERO
from solvlie.linalg import Subspace
from rref_oracle import kernel, rref


def lower_central_series_terminates(spec: LieAlgebraSpec) -> bool:
    """Whether the lower central series of n reaches 0."""
    nd = spec.n_dim
    current = Subspace([spec.basis_vector(i) for i in range(nd)], spec.dim)
    for _ in range(nd + 1):
        gens = []
        for i in range(nd):
            for row in current.rows:
                img = spec.bracket(spec.basis_vector(i), row)
                if any(img):
                    gens.append(img)
        nxt = Subspace(gens, spec.dim)
        if nxt.dim == 0:
            return True
        if nxt.dim == current.dim:
            return False
        current = nxt
    return False


def central_series(spec: LieAlgebraSpec):
    """The ascending central series of n up to n, each level as RREF rows;
    HypothesisViolation NOT_NILPOTENT where it stalls."""
    nd = spec.n_dim
    consts = [[(p, m, c) for p in range(nd) for m, c in spec.bracket_sparse(i, p)]
              for i in range(nd)]
    levels, prev = [], []
    while len(prev) < nd:
        ann = kernel(prev, nd)
        cond_rows = []
        for terms in consts:
            for a in ann:
                row = [ZERO] * nd
                for p, m, c in terms:
                    if a[m]:
                        row[p] = row[p] + a[m] * c
                if any(row):
                    cond_rows.append(row)
        level, _ = rref(kernel(cond_rows, nd))
        if len(level) <= len(prev):
            raise HypothesisViolation(
                "NOT_NILPOTENT", f"ascending central series of n stalls at "
                                 f"dimension {len(prev)} of {nd}")
        levels.append(level)
        prev = level
    return levels
