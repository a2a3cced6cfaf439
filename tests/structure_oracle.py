"""The dense constructions of the adapted structure constants and of the
ascending central series, kept as test oracles.

``verify`` is ``AdaptableBasis`` verification as it ran on dense vectors:
every bracket [Z_p, Z_q] and [A_t, Z_j] is expanded to a dense coordinate
vector by ``LieAlgebraSpec.bracket`` and its adapted coordinates are read by
a zero test of every entry. ``central_series`` builds each level's
condition rows as dense rows from a dense identity annihilator. Both
eliminate with the dense routines of ``rref_oracle``. The library builds
both from sparse rows (``AdaptableBasis.terms``, ``spec.brackets``);
the tests compare the structure constants (keys and entries in order), the
weights, sigma and alpha, and the levels, or the error raised.
``jacobi_failures`` lists the triples on which the Jacobi sum of dense
brackets is nonzero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from solvlie.adapted import HintInvalidError
from solvlie.algebra import HypothesisViolation, root_factor
from solvlie.gaussian import GaussianRational, ZERO
from rref_oracle import identity, invert, rref, rref_kernel


def _conj_vec(vec):
    return tuple(x.conjugate() for x in vec)


def _is_real_vec(vec) -> bool:
    return all(x.is_real() for x in vec)


def _terms(vec):
    return tuple((m, c) for m, c in enumerate(vec) if c)


def _inverse_rows(rows):
    inv = invert(rows)
    return None if inv is None else [_terms(row) for row in inv]


def _coords(vec, inv) -> Dict[int, GaussianRational]:
    out: Dict[int, GaussianRational] = {}
    for m, c in enumerate(vec[:len(inv)]):
        if c:
            for k, x in inv[m]:
                out[k] = out.get(k, ZERO) + c * x
    return {k: x for k, x in out.items() if x}


@dataclass
class VerifiedBasis:
    structure: Dict[Tuple[int, int], Dict[int, GaussianRational]]
    h_structure: Dict[Tuple[int, int], Dict[int, GaussianRational]]
    weights: List[Tuple[GaussianRational, ...]]
    sigma: Tuple[int, ...]
    alpha: List[Optional[Fraction]]


def verify(spec, nvecs, hvecs=None) -> VerifiedBasis:
    """The checks and kept data of ``AdaptableBasis(spec, nvecs, hvecs)``,
    on dense vectors; raises the same HintInvalidError."""
    nd, dim = spec.n_dim, spec.dim
    if hvecs is None:
        hvecs = [spec.basis_vector(nd + t) for t in range(spec.h_dim)]
    nvecs = [tuple(v) for v in nvecs]
    if len(nvecs) != nd or len(hvecs) != spec.h_dim:
        raise HintInvalidError(1, "wrong number of basis vectors")
    if any(any(not v[m].is_zero() for m in range(nd, dim)) for v in nvecs):
        raise HintInvalidError(1, "n-part vectors must be supported in n")
    hvecs = [tuple(v) for v in hvecs]
    if any(any(not v[m].is_zero() for m in range(nd))
           or not _is_real_vec(v) for v in hvecs):
        raise HintInvalidError(1, "h-part vectors must be real and supported in h")
    if _inverse_rows([list(v[nd:]) for v in hvecs]) is None:
        raise HintInvalidError(1, "vectors are not a basis")
    vectors = nvecs + hvecs

    inv = _inverse_rows([list(v[:nd]) for v in nvecs])
    if inv is None:
        raise HintInvalidError(1, "vectors are not a basis")
    structure: Dict[Tuple[int, int], Dict[int, GaussianRational]] = {}
    first_bad = dim + 1
    for q in range(nd):
        for p in range(q):
            row = _coords(spec.bracket(nvecs[p], nvecs[q]), inv)
            if not row:
                continue
            structure[(p, q)] = row
            if max(row) > p:
                first_bad = min(first_bad, p + 1)
    ad_h = []
    for t in range(spec.h_dim):
        a = spec.basis_vector(nd + t)
        ad_h.append([_coords(spec.bracket(a, z), inv) for z in nvecs])
        for j, row in enumerate(ad_h[t]):
            if row and max(row) > j:
                first_bad = min(first_bad, j + 1)

    reach = 0
    conj_stable = [True]
    for j, v in enumerate(vectors, start=1):
        if j <= nd and not _is_real_vec(v):
            reach = max(reach, max(_coords(_conj_vec(v), inv)) + 1)
        else:
            reach = max(reach, j)
        conj_stable.append(reach <= j)

    for j in range(1, dim + 1):
        if j == first_bad:
            raise HintInvalidError(
                1, f"span of the first {j} vectors is not an ideal")
        if not conj_stable[j]:
            if j == dim:
                raise HintInvalidError(2, "the full span must be conj-stable")
            if any(a != b for a, b in zip(_conj_vec(vectors[j - 1]), vectors[j])):
                raise HintInvalidError(
                    2, f"vector {j + 1} must be the conjugate of vector {j}")
        if conj_stable[j] and conj_stable[j - 1]:
            if not _is_real_vec(vectors[j - 1]):
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
            raise HintInvalidError(2, f"conjugate of vector {j} is not "
                                      f"vector {sigma[j]}")

    weights = [tuple(ad_h[t][j].get(j, ZERO) for t in range(spec.h_dim))
               for j in range(nd)] + [(ZERO,) * spec.h_dim] * spec.h_dim
    alphas: List[Optional[Fraction]] = []
    for j in range(1, dim + 1):
        alpha, why = root_factor(weights[j - 1])
        if why == "imaginary":
            raise HintInvalidError(
                4, f"weight of vector {j} is purely imaginary")
        if why:
            raise HintInvalidError(
                4, f"weight of vector {j} is not of the form "
                   "lambda*(1+i*alpha)")
        alphas.append(alpha)

    h_structure: Dict[Tuple[int, int], Dict[int, GaussianRational]] = {}
    for q, h in enumerate(hvecs, start=nd):
        for p in range(nd):
            row: Dict[int, GaussianRational] = {}
            for ht, ad_t in zip(h[nd:], ad_h):
                for k, c in ad_t[p].items():
                    row[k] = row.get(k, ZERO) - ht * c
            if any(row.values()):
                h_structure[(p, q)] = {k: x for k, x in row.items() if x}
    return VerifiedBasis(structure, h_structure, weights, tuple(sigma), alphas)


def central_series(spec) -> List[List[List[GaussianRational]]]:
    """The ascending central series of n from dense condition rows, one
    dense ``rref`` of them per level; raises the same NOT_NILPOTENT."""
    nd = spec.n_dim
    consts: List[list] = [[] for _ in range(nd)]
    for (i, p), entry in spec.brackets.items():
        if i < nd and p < nd:
            consts[i] += ((p, m, c) for m, c in entry)
    levels: List[List[List[GaussianRational]]] = []
    ann, dim = identity(nd), 0
    while dim < nd:
        cond_rows = []
        for terms in consts:
            for a in ann:
                row = [ZERO] * nd
                for p, m, c in terms:
                    if a[m]:
                        row[p] = row[p] + a[m] * c
                if any(row):
                    cond_rows.append(row)
        ann, pivots = rref(cond_rows)
        if nd - len(pivots) <= dim:
            raise HypothesisViolation(
                "NOT_NILPOTENT", f"ascending central series of n stalls at "
                                 f"dimension {dim} of {nd}")
        levels.append(rref_kernel(ann, pivots, nd))
        dim = nd - len(pivots)
    return levels


def jacobi_failures(spec):
    """Every basis triple (in itertools.combinations order) on which the
    Jacobi sum of dense brackets is nonzero."""
    br = spec.bracket
    out = []
    for a, b, c in itertools.combinations(range(spec.dim), 3):
        x, y, z = (spec.basis_vector(i) for i in (a, b, c))
        total = [p + q + r for p, q, r in zip(br(br(x, y), z), br(br(y, z), x),
                                              br(br(z, x), y))]
        if any(total):
            out.append(tuple(spec.names[i] for i in (a, b, c)))
    return out
