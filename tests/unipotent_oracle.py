"""The unipotent coadjoint flow by dense matrix series, kept as a test oracle.

This is the code ``solvlie.functionals.exp_unipotent_coadjoint`` replaced by
the vector series l_{k+1} = l_k (-ad x) / (k + 1). It forms the whole
matrix e^{-ad x} from dense ``ad_matrix`` products over Fractions and then
applies it to l. The tests compare the two on corpus points.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from solvlie.algebra import LieAlgebraSpec, ad_matrix
from solvlie.functionals import Functional, NotUnipotentError
from solvlie.linalg import is_zero


def nilpotent_exp_neg(spec: LieAlgebraSpec, x_vec) -> List[List[Fraction]]:
    """e^{-ad x} for x in n, as an exact rational matrix."""
    m = ad_matrix(spec, x_vec)
    dim = spec.dim
    out = [[Fraction(1) if i == j else Fraction(0) for j in range(dim)]
           for i in range(dim)]
    term = [[-m[i][j] for j in range(dim)] for i in range(dim)]
    k = 1
    while any(any(e != 0 for e in row) for row in term):
        if k > dim + 1:
            raise NotUnipotentError("ad(x) is not nilpotent")
        for i in range(dim):
            for j in range(dim):
                out[i][j] += term[i][j]
        nxt = [[sum((term[i][p] * -m[p][j] for p in range(dim)), Fraction(0))
                for j in range(dim)] for i in range(dim)]
        term = [[e / (k + 1) for e in row] for row in nxt]
        k += 1
    return out


def exp_unipotent_coadjoint(x_vec, l: Functional) -> Functional:
    """Coadjoint action of exp(x), x in n, through the matrix e^{-ad x}."""
    basis = l.basis
    spec = basis.spec
    if isinstance(x_vec, dict):
        x_vec = spec.vector_from_labels(x_vec)
    for m in range(spec.n_dim, spec.dim):
        if not is_zero(x_vec[m]):
            raise NotUnipotentError("element has a nonzero h-component")
    emat = nilpotent_exp_neg(spec, x_vec)
    if l.exact:
        new = [sum((Fraction(emat[p][m]) * l.values[p] for p in range(spec.dim)),
                   Fraction(0)) for m in range(spec.dim)]
        return Functional(basis, new, exact=True)
    new = [sum(float(emat[p][m]) * l.values[p] for p in range(spec.dim))
           for m in range(spec.dim)]
    return Functional(basis, new, exact=False)
