"""The numpy Monte-Carlo check of the Plancherel disintegration, kept as a
test oracle.

This is the estimator ``solvlie.admissibility.disintegration_check``
replaced by the exact constant |det W|. Both sides of the orbit-wise
disintegration are estimated for two bump functions F:

  lhs = integral over the free coordinates x_nu of F(x) |Pf(x)| dx,
  rhs = sum over the finite section s of |Pf(s)| times the integral over
        the dilation parameters t of F(s e^{-tW}) e^{-t . tr ad} dt,

on the boxes |x_j| <= 6 and |t_u| <= 8. Each ratio lhs/rhs estimates the
exact constant, and the two ratios must agree. ``ratio_se`` is the
standard error of each ratio by the delta method, from the sample
variances of the two independent estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from solvlie.adapted import AdaptableBasis
from solvlie.algebra import LieAlgebraSpec, trace_ad
from solvlie.gaussian import GaussianRational, ZERO
from solvlie.sections import StabilizerData, UnsupportedLayerError
from solvlie.strata import LayerDescriptor


@dataclass
class RatioReport:
    lhs: Tuple[float, float]
    rhs: Tuple[float, float]
    ratios: Tuple[float, float]
    ratio_se: Tuple[float, float]
    ratio_of_ratios: float
    samples: int
    seed: int


class MCVarianceError(RuntimeError):
    pass


def disintegration_check(spec: LieAlgebraSpec, basis: AdaptableBasis,
                         n_layer: LayerDescriptor, stab: StabilizerData,
                         test_functions=None, mc_samples: int = 10 ** 6,
                         seed: int = 1234) -> RatioReport:
    """Monte-Carlo comparison of the two sides of the orbit-wise
    disintegration of the Plancherel density against dilation orbits.

    Both sides are estimated for two bump functions; the two left/right
    ratios must agree (the identity holds up to one global constant).
    Supported for layers whose dense section part has all-real free
    coordinates and a finite dilation-orbit section.
    """
    nu = stab.nu
    e_idx = list(n_layer.e_set)
    if set(stab.phi) != set(nu):
        raise UnsupportedLayerError(
            "finite section needed: every free coordinate must carry a "
            "modulus constraint")
    if any(basis.sigma[j] != j for j in nu):
        raise UnsupportedLayerError("free coordinates must be real")

    rng = np.random.default_rng(seed)
    n_nu = len(nu)
    r = stab.r

    if test_functions is None:
        def f1(x):  # x: array (m, n_nu)
            return np.exp(-((x - 1.3) ** 2).sum(axis=1) / 0.8)

        def f2(x):
            return np.exp(-((x + 0.7) ** 2).sum(axis=1) / 0.5) + \
                0.5 * np.exp(-((x - 2.1) ** 2).sum(axis=1) / 1.1)
        test_functions = (f1, f2)
    f1, f2 = test_functions

    # |Pf| on the section variety: the skew matrix entry over (Z_a, Z_b) is
    # the adapted expansion of [Z_a, Z_b] (the basis's C) paired with the
    # free coordinates (all other adapted coordinates vanish on the variety)
    lin_forms = {}
    for a, ja in enumerate(e_idx):
        for b, jb in enumerate(e_idx):
            if a >= b:
                continue
            cab = basis.structure.get((ja - 1, jb - 1), {})
            lin_forms[(a, b)] = np.array(
                [complex(cab.get(j - 1, ZERO)) for j in nu])

    def skew_entries(coords: np.ndarray) -> np.ndarray:
        m = coords.shape[0]
        mat = np.zeros((m, len(e_idx), len(e_idx)), dtype=complex)
        for (a, b), form in lin_forms.items():
            vals = coords @ form
            mat[:, a, b] = vals
            mat[:, b, a] = -vals
        return mat

    def pf_abs(coords: np.ndarray) -> np.ndarray:
        mats = skew_entries(coords)
        dets = np.linalg.det(mats)
        return np.sqrt(np.abs(dets))

    # left side: integral over the free coordinates of F * |Pf|
    box = 6.0
    pts = rng.uniform(-box, box, size=(mc_samples, n_nu))
    vol = (2 * box) ** n_nu
    weights = pf_abs(pts)
    lhs_terms = [f1(pts) * weights * vol, f2(pts) * weights * vol]

    # right side: sum over the finite section, integral over the dilation
    # parameters with the modular weight
    signs = [np.array(s) for s in _sign_patterns(n_nu)]
    traces = []
    re_weights = np.zeros((r, n_nu))
    for t, a in enumerate(stab.a_basis):
        avec = [Fraction(0)] * basis.dim
        for u, c in enumerate(a):
            avec[spec.n_dim + u] = c
        traces.append(float(trace_ad(
            spec, [GaussianRational.coerce(c) for c in avec])))
        for pos, j in enumerate(nu):
            w = basis.weights[j - 1]
            re_weights[t, pos] = float(sum(Fraction(w[u].re) * a[u]
                                           for u in range(spec.h_dim)))
    tbox = 8.0
    ts = rng.uniform(-tbox, tbox, size=(mc_samples, r))
    tvol = (2 * tbox) ** r
    modular = np.exp(-(ts @ np.array(traces)))
    # flowed coordinates: x_j(t) = e^{-sum_t t_u Re w_j(A_u)} * s_j
    scale = np.exp(-(ts @ re_weights))
    rhs_terms = [np.zeros(mc_samples), np.zeros(mc_samples)]
    for s in signs:
        flowed = scale * s
        pf_sigma = float(pf_abs(s.reshape(1, -1))[0])
        rhs_terms[0] += f1(flowed) * modular * tvol * pf_sigma
        rhs_terms[1] += f2(flowed) * modular * tvol * pf_sigma

    lhs1, lhs2 = (float(np.mean(x)) for x in lhs_terms)
    rhs1, rhs2 = (float(np.mean(x)) for x in rhs_terms)
    for name, val in (("lhs1", lhs1), ("lhs2", lhs2),
                      ("rhs1", rhs1), ("rhs2", rhs2)):
        if not np.isfinite(val) or abs(val) < 1e-12:
            raise MCVarianceError(f"estimate {name} unusable: {val}")
    r1, r2 = lhs1 / rhs1, lhs2 / rhs2

    def ratio_se(ratio, lhs, rhs):
        rel = [np.std(x) / np.sqrt(mc_samples) / abs(np.mean(x))
               for x in (lhs, rhs)]
        return float(abs(ratio) * np.hypot(*rel))

    se = tuple(ratio_se(*args) for args in zip((r1, r2), lhs_terms, rhs_terms))
    return RatioReport(lhs=(lhs1, lhs2), rhs=(rhs1, rhs2), ratios=(r1, r2),
                       ratio_se=se, ratio_of_ratios=r1 / r2,
                       samples=mc_samples, seed=seed)


def _sign_patterns(n: int):
    out = [[]]
    for _ in range(n):
        out = [p + [s] for p in out for s in (1.0, -1.0)]
    return out


def workbench_disintegration(wb, **kwargs) -> RatioReport:
    """The check on a Workbench's layer, as ``Workbench.disintegration``
    ran it before the exact constant replaced it."""
    return disintegration_check(wb.spec, wb.canonical_basis, wb.n_layer,
                                wb.stabilizer, **kwargs)


def within_standard_errors(rep: RatioReport, exact, k: float = 4.0) -> bool:
    """Each Monte-Carlo ratio lies within k standard errors of ``exact``."""
    return all(abs(ratio - float(exact)) <= k * se
               for ratio, se in zip(rep.ratios, rep.ratio_se))
