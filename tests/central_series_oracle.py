"""The lower-central-series rule for nilpotency, kept as a test oracle.

This is the check ``solvlie.algebra.validate_spec`` ran before it read
nilpotency off the ascending central series that the adapted-basis
construction also uses: n is nilpotent iff n, [n, n], [n, [n, n]], ...
reaches 0. Each term is spanned by the brackets of the basis of n with the
rows of the previous term; the series stalls when a term is as large as the
one before. For a Lie algebra the two rules agree; they may differ only
where Jacobi fails.
"""

from __future__ import annotations

from solvlie.algebra import LieAlgebraSpec
from solvlie.linalg import Subspace


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
