"""The rank-based adapted-basis construction and checks, kept as a test oracle.

This is the code ``solvlie.adapted`` replaced by one change of coordinates.
The ascending central series is built level by level from the annihilator
of the last one, each condition entry read off the stored brackets
``spec.bracket_sparse``; each level meets each weight space through
``Subspace.intersect``, and the placement tests every candidate with a rank.
The four flag conditions are checked on the flag subspaces themselves: one
``Subspace.contains_vector`` per (real basis vector, flag step) for the
ideal condition, and one ``solve`` per (step, dilation) for the weights.
The tests compare vectors, weights, sigma and alpha, or the error raised,
with the production code. ``diagonal_exact`` (whether every [A, Z_j] is a
multiple of Z_j) has no production counterpart; tests read it as a
precondition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from solvlie.adapted import ConstructionFailedError, HintInvalidError
from solvlie.algebra import DiagonalizationError, weight_decomposition
from solvlie.gaussian import GaussianRational, ZERO
from solvlie.linalg import Subspace
from rref_oracle import kernel, rank, rref

GR1 = GaussianRational(1)


def solve(rows, rhs):
    """One solution x of rows @ x = rhs, or None if inconsistent, from the
    RREF of the augmented matrix (the oracles' and tests' solver; the
    library inverts instead)."""
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    x = [ZERO] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None  # pivot in the constant column
        x[p] = row[-1]
    return x


def _conj_vec(vec):
    return tuple(x.conjugate() for x in vec)


def _is_real_vec(vec) -> bool:
    return all(x.is_real() for x in vec)


def _weight_key(weights):
    return tuple((w.re, w.im) for w in weights)


def _real_rows(rows):
    cand = []
    for r in rows:
        cand.append([GaussianRational(x.re) for x in r])
        cand.append([GaussianRational(x.im) for x in r])
    return rref(cand)[0]


@dataclass
class OracleBasis:
    vectors: List[Tuple[GaussianRational, ...]]
    weights: List[Tuple[GaussianRational, ...]]
    sigma: Tuple[int, ...]
    alpha: List[Optional[Fraction]]
    diagonal_exact: bool


def verify(spec, nvecs: Sequence, hvecs: Optional[Sequence] = None) -> OracleBasis:
    """Check the four conditions on the flag subspaces; raise like the library."""
    if hvecs is None:
        hvecs = [spec.basis_vector(spec.n_dim + t) for t in range(spec.h_dim)]
    nvecs = [tuple(v) for v in nvecs]
    hvecs = [tuple(v) for v in hvecs]
    vectors = nvecs + hvecs
    dim = spec.dim
    if len(nvecs) != spec.n_dim or len(hvecs) != spec.h_dim:
        raise HintInvalidError(1, "wrong number of basis vectors")
    if any(any(not v[m].is_zero() for m in range(spec.n_dim, dim)) for v in nvecs):
        raise HintInvalidError(1, "n-part vectors must be supported in n")
    if any(any(not v[m].is_zero() for m in range(spec.n_dim))
           or not _is_real_vec(v) for v in hvecs):
        raise HintInvalidError(1, "h-part vectors must be real and supported in h")
    if rank([list(v) for v in vectors]) != dim:
        raise HintInvalidError(1, "vectors are not a basis")
    flags = [Subspace([], dim)]
    for v in vectors:
        flags.append(Subspace(flags[-1].rows + [list(v)], dim))

    conj_stable = [True]
    for j in range(1, dim + 1):
        conj_rows = [list(_conj_vec(r)) for r in flags[j].rows]
        conj_stable.append(all(flags[j].contains_vector(r)
                               for r in conj_rows))
    for j in range(1, dim + 1):
        for m in range(dim):
            img = spec.bracket(spec.basis_vector(m), vectors[j - 1])
            if not flags[j].contains_vector(img):
                raise HintInvalidError(1, f"span of the first {j} vectors is not an ideal")
        if not conj_stable[j]:
            if j == dim:
                raise HintInvalidError(2, "the full span must be conj-stable")
            if any(a != b for a, b in zip(_conj_vec(vectors[j - 1]), vectors[j])):
                raise HintInvalidError(
                    2, f"vector {j + 1} must be the conjugate of vector {j}")
        if conj_stable[j] and conj_stable[j - 1] and not _is_real_vec(vectors[j - 1]):
            raise HintInvalidError(3, f"vector {j} must be real")

    sigma = [0] * (dim + 1)
    for j in range(1, dim + 1):
        if not conj_stable[j]:
            sigma[j] = j + 1
        elif not conj_stable[j - 1]:
            sigma[j] = j - 1
        else:
            sigma[j] = j
    for j in range(1, dim + 1):
        target = vectors[sigma[j] - 1]
        if any(a != b for a, b in zip(_conj_vec(vectors[j - 1]), target)):
            raise HintInvalidError(2, f"conjugate of vector {j} is not vector {sigma[j]}")

    weights = []
    diagonal_exact = True
    for j in range(1, dim + 1):
        zj = vectors[j - 1]
        row = []
        for t in range(spec.h_dim):
            img = spec.bracket(spec.basis_vector(spec.n_dim + t), zj)
            cols = [[vectors[p][m] for p in range(j)] for m in range(dim)]
            coeffs = solve(cols, list(img))
            if coeffs is None:
                raise HintInvalidError(
                    4, f"[{spec.h_names[t]}, Z_{j}] does not lie in the flag")
            gamma = coeffs[j - 1]
            row.append(GaussianRational.coerce(gamma))
            if any(not (img[m] - gamma * zj[m]).is_zero() for m in range(dim)):
                diagonal_exact = False
        weights.append(tuple(row))

    alphas: List[Optional[Fraction]] = []
    for j, row in enumerate(weights, start=1):
        re_part = [w.re for w in row]
        im_part = [w.im for w in row]
        if all(x == 0 for x in re_part):
            if any(x != 0 for x in im_part):
                raise HintInvalidError(4, f"weight of vector {j} is purely imaginary")
            alphas.append(None)
            continue
        t0 = next(i for i, x in enumerate(re_part) if x != 0)
        alpha = im_part[t0] / re_part[t0]
        if any(im != alpha * re for re, im in zip(re_part, im_part)):
            raise HintInvalidError(
                4, f"weight of vector {j} is not of the form lambda*(1+i*alpha)")
        alphas.append(alpha)
    return OracleBasis(vectors, weights, tuple(sigma), alphas, diagonal_exact)


def bracket_basis(spec, i: int, j: int) -> list:
    """[e_i, e_j] as a dense coordinate vector over the real basis of g."""
    out = [ZERO] * spec.dim
    for m, c in spec.bracket_sparse(i, j):
        out[m] = c
    return out


def _annihilator_rows(sub: Subspace, dim: int):
    if not sub.rows:
        return [[GR1 if i == j else ZERO for j in range(dim)] for i in range(dim)]
    return kernel(sub.rows, dim)


def construct(spec, hint=None) -> OracleBasis:
    """Build (or, with a hint, only verify) an adapted basis the old way."""
    if hint is not None:
        nvecs = []
        for v in hint:
            if len(v) == spec.n_dim:
                v = tuple(v) + tuple([ZERO] * spec.h_dim)
            nvecs.append(tuple(GaussianRational.coerce(c) for c in v))
        return verify(spec, nvecs)
    try:
        spaces = weight_decomposition(spec)
    except DiagonalizationError as exc:
        raise ConstructionFailedError(
            f"CONSTRUCTION_FAILED: {exc}; supply an adaptable hint") from exc

    nd, dim = spec.n_dim, spec.dim
    levels = []
    prev = Subspace([], dim)
    while prev.dim < nd:
        ann = _annihilator_rows(prev, dim)
        cond_rows = []
        for i in range(nd):
            for a in ann:
                cond_rows.append([sum((a[m] * c for m, c in spec.bracket_sparse(i, p)),
                                      ZERO) for p in range(nd)])
        null = kernel(cond_rows, nd)
        level = Subspace([list(v) + [ZERO] * spec.h_dim for v in null], dim)
        if level.dim <= prev.dim:
            raise ConstructionFailedError(
                "CONSTRUCTION_FAILED: central series stalls (n not nilpotent?)")
        levels.append(level)
        prev = level

    indexed = sorted(range(len(spaces)), key=lambda i: _weight_key(spaces[i].weights))
    conj_of = {}
    for i in indexed:
        wconj = tuple(w.conjugate() for w in spaces[i].weights)
        for k in indexed:
            if spaces[k].weights == wconj:
                conj_of[i] = k
                break

    placed = []
    placed_span = Subspace([], dim)
    for level in levels:
        for i in indexed:
            ws = spaces[i]
            partner = conj_of.get(i)
            if partner is None:
                raise ConstructionFailedError(
                    "CONSTRUCTION_FAILED: weight spaces not closed under conjugation")
            if partner != i and _weight_key(spaces[partner].weights) < _weight_key(ws.weights):
                continue
            full_rows = [list(r) + [ZERO] * spec.h_dim for r in ws.rows]
            inter = Subspace(full_rows, dim).intersect(level)
            rows = _real_rows(inter.rows) if partner == i else inter.rows
            for row in rows:
                if placed_span.contains_vector(row):
                    continue
                vec = tuple(row)
                placed.append(vec)
                placed_span = Subspace(placed_span.rows + [list(vec)], dim)
                if partner != i:
                    cv = _conj_vec(vec)
                    placed.append(cv)
                    placed_span = Subspace(placed_span.rows + [list(cv)], dim)
    if len(placed) != nd:
        raise ConstructionFailedError(
            f"CONSTRUCTION_FAILED: placed {len(placed)} of {nd} vectors")
    return verify(spec, placed)
