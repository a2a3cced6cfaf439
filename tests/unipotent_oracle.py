"""The unipotent coadjoint flow by dense matrix series, kept as a test oracle.

This is the code ``solvlie.functionals.exp_unipotent_coadjoint`` replaced by
the vector series l_{k+1} = l_k (-ad x) / (k + 1). It forms the whole
matrix e^{-ad x} from dense ``ad_matrix`` products over Fractions and then
applies it to l. The tests compare the two on corpus points, and read
``ad_matrix`` itself as the dense reference for ad.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from solvlie.algebra import LieAlgebraSpec
from solvlie.functionals import Functional, NotUnipotentError
from solvlie.linalg import is_zero


def ad_matrix(spec: LieAlgebraSpec, w: Sequence) -> List[List[Fraction]]:
    """Matrix of ad(w) on the ordered real basis; columns are images.

    ``w`` is a real rational coordinate vector (or a label / label dict).
    """
    if isinstance(w, str):
        w = spec.basis_vector(w)
    elif isinstance(w, dict):
        w = spec.vector_from_labels(w)
    cols = []
    for m in range(spec.dim):
        img = spec.bracket(w, spec.basis_vector(m))
        cols.append(img)
    mat = [[Fraction(0)] * spec.dim for _ in range(spec.dim)]
    for c, img in enumerate(cols):
        for r, val in enumerate(img):
            if not val.is_zero():
                if not val.is_real():
                    raise ValueError("ad matrix of a real element must be real")
                mat[r][c] = val.re
    return mat


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
