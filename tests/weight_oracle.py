"""The numpy eigenvalue-guess weight decomposition, kept as a test oracle.

This is the code ``solvlie.algebra.weight_decomposition`` replaced by exact
candidates. It restricts ad(A_t) to each invariant subspace with
``np.linalg.lstsq``, takes the eigenvalues from ``np.linalg.eigvals`` and
turns each real and imaginary part into rationals through
``limit_denominator`` with bounds 12, 1000 and 10**6. Every acceptance
decision (the kernel of ad(A_t) - candidate, the dimension count) is exact,
as in production, so on input whose weights have small denominators both
give the same weight spaces; a weight with a larger denominator is never
guessed, and the oracle rejects the algebra.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

import numpy as np

from solvlie.algebra import DiagonalizationError, WeightSpace
from solvlie.gaussian import GaussianRational, ZERO
from rref_oracle import kernel, rref


def _combine(terms, size: int) -> List[GaussianRational]:
    """sum of x * v over (x, v) in terms, each v given by its (index, value)
    pairs, as a dense row."""
    out = [ZERO] * size
    for x, vec in terms:
        if not x.is_zero():
            for r, a in vec:
                if not a.is_zero():
                    out[r] = out[r] + a * x
    return out


def _rational_candidates(value: float) -> List[Fraction]:
    out = []
    for bound in (12, 1000, 10 ** 6):
        f = Fraction(value).limit_denominator(bound)
        if f not in out:
            out.append(f)
    return out


def _eigen_candidates(mat_float: np.ndarray) -> List[GaussianRational]:
    vals = np.linalg.eigvals(mat_float)
    cands: List[GaussianRational] = []
    for v in vals:
        for fr in _rational_candidates(float(v.real)):
            for fi in _rational_candidates(float(v.imag)):
                g = GaussianRational(fr, fi)
                if g not in cands:
                    cands.append(g)
    return cands


def weight_decomposition(spec) -> List[WeightSpace]:
    """Split n_C into joint eigenspaces of the commuting operators ad(A),
    with eigenvalue candidates read off numerically."""
    nd = spec.n_dim
    spaces = [WeightSpace(weights=(), rows=[[GaussianRational(1) if i == j else ZERO
                                             for j in range(nd)] for i in range(nd)])]
    for t in range(spec.h_dim):
        cols = [spec.bracket_sparse(nd + t, m) for m in range(nd)]
        new_spaces: List[WeightSpace] = []
        for sp in spaces:
            if sp.dim == 0:
                continue
            images = [_combine(((x, cols[c]) for c, x in enumerate(row)), nd)
                      for row in sp.rows]
            sub_float = np.array([[complex(x) for x in r] for r in sp.rows])
            img_float = np.array([[complex(x) for x in r] for r in images])
            coef, *_ = np.linalg.lstsq(sub_float.T, img_float.T, rcond=None)
            found_dim = 0
            for cand in _eigen_candidates(coef.T):
                shifted = [[x if y.is_zero() else x - cand * y
                            for x, y in zip(images[i], sp.rows[i])]
                           for i in range(len(sp.rows))]
                coeff_rows = [[shifted[i][c] for i in range(len(sp.rows))]
                              for c in range(nd)]
                null = kernel(coeff_rows, len(sp.rows))
                if not null:
                    continue
                rows = [_combine(((x, enumerate(sp.rows[i]))
                                  for i, x in enumerate(combo)), nd)
                        for combo in null]
                red, _ = rref(rows)
                if not red:
                    continue
                found_dim += len(red)
                new_spaces.append(WeightSpace(weights=sp.weights + (cand,), rows=red))
            if found_dim != sp.dim:
                raise DiagonalizationError(
                    "EIGEN_NOT_GAUSSIAN_RATIONAL",
                    f"ad({spec.h_names[t]}) has no Gaussian-rational eigenbasis "
                    f"on a {sp.dim}-dimensional invariant subspace")
        spaces = new_spaces
    return spaces
