"""The division replay of phi, kept as a test oracle.

This is ``solvlie.strata._reduction_phi`` as it was before the replay went
fraction-free: each h-step coefficient is read as the quotient
num / den (a GaussianRational at an exact point, a complex at a float
one), every reduced vector is updated by y_g <- y_g - c y_j in those
quotients, and gamma_{i_k}(Z_p) is read from ``h_structure`` for each
coordinate. Kept verbatim, with the ``_coefficients`` it calls.
"""

from __future__ import annotations

from typing import Optional, Tuple

from solvlie.adapted import AdaptableBasis
from solvlie.gaussian import GaussianRational
from solvlie.linalg import zero_test

GR1 = GaussianRational(1)


def _coefficients(red) -> Tuple[Tuple[int, object], ...]:
    """The (g, c) of one step of ``steps``, c = num / den: a
    GaussianRational from integer or Gaussian-integer parts, a float from
    floats."""
    return tuple((g, GR1 * num / den) for g, num, den in red)


def reduction_phi(basis: AdaptableBasis, ambient: str,
                  j_seq: Tuple[int, ...], steps,
                  h_pairs: Tuple[Tuple[int, int], ...],
                  tol: Optional[float]) -> Tuple[int, ...]:
    """phi on a keyed layer, from the h coordinates of the y vectors of the
    reduction (see ``layer_descriptor``): the i_k of the h pairs
    (i_k, j_k), i_k <= n < j_k, with
    sum_{p > n} (y_{j_k})_p gamma_{i_k}(Z_p) != 0, by the zero test of tol
    (None at an exact point). () without h pairs, as in the ambient 'n',
    where no j_k exceeds n. steps are the reduction's, as ``JumpData.steps``
    keeps them; only the coefficients of the h-steps are read."""
    if not h_pairs:
        return ()
    nd = basis.n
    # yh[g]: the h coordinates {p: x} of y_g, g > n, replayed through the
    # h-steps (j_p > n), the only steps that move them
    yh = {g: {g: 1} for g in range(nd + 1, basis.ambient(ambient) + 1)}
    for jp, (_, red) in zip(j_seq, steps):
        if jp <= nd:
            continue
        y_j = yh[jp]
        for g, c in _coefficients(red):
            y_g = yh[g]
            for p, x in y_j.items():
                y_g[p] = y_g[p] - c * x if p in y_g else -(c * x)
    vanishes = zero_test(tol)
    phi = []
    for ik, jk in h_pairs:
        # gamma_{i_k}(Z_p) is minus this diagonal coefficient; the sign does
        # not change whether the sum vanishes
        total = 0
        for p, x in yh[jk].items():
            c = basis.h_structure.get((ik - 1, p - 1), {}).get(ik - 1)
            if c is not None:
                total = total + x * c
        if not vanishes(total):
            phi.append(ik)
    return tuple(phi)
