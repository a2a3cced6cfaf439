"""Admissibility of the quasiregular representation of N x| H on L^2(N).

The decision needs three ingredients, all computed exactly: whether the
full group is unimodular (traces of ad), the intersection of the center
with the dilation part, and, for the decomposition summary, the
multiplicity of the generic irreducibles (a power of two read off a weight
matrix of the little group, or infinity).

The traces sum the diagonal structure constants [e_p, e_i]_i, and the
center is the kernel of the nonzero rows of w -> ([w, e_m])_m. The
polarization runs in adapted coordinates over Z_1..Z_n: p is the jump
reduction replayed on unit vectors, the form is x . M y with the point's
orbit form M, conjugation is conjugate-and-sigma-permute, brackets read
the basis's adapted structure constants C, and the pivot sets are read off
the adapted rows.

Verdict rule: a unimodular group never admits an admissible vector; a
nonunimodular one does exactly when the dilation part meets the center
trivially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .adapted import AdaptableBasis
from .algebra import LieAlgebraSpec, trace_ad
from .functionals import Functional
from .gaussian import GaussianRational, ZERO
from .linalg import Subspace, kernel, rank, rref
from .sections import StabilizerData, UnsupportedLayerError
from .strata import LayerDescriptor, jump_data

INFINITE = math.inf


class IsotropyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# center
# ---------------------------------------------------------------------------

@dataclass
class CenterData:
    z_g: Subspace
    z_cap_h: Subspace

    @property
    def dim_z_cap_h(self) -> int:
        return self.z_cap_h.dim

    def as_dict(self, spec: LieAlgebraSpec):
        def combos(sub: Subspace):
            out = []
            for row in sub.rows:
                out.append({spec.names[m]: str(row[m].re)
                            for m in range(spec.dim) if not row[m].is_zero()})
            return out
        return {
            "dim_z_g": self.z_g.dim,
            "dim_z_cap_h": self.dim_z_cap_h,
            "z_g_basis": combos(self.z_g),
            "z_cap_h_basis": combos(self.z_cap_h),
        }


def center_data(spec: LieAlgebraSpec) -> CenterData:
    """z(g) as the joint kernel of w -> [w, e_m], and z(g) cap h.

    Row (m, k) of the system is w -> [w, e_m]_k = sum_p w_p [e_p, e_m]_k;
    only the nonzero rows are built. An element of h is central iff it is
    in the kernel of the same rows restricted to the h columns.
    """
    dim, nd = spec.dim, spec.n_dim
    rows: Dict[Tuple[int, int], list] = {}
    for m in range(dim):
        for p in range(dim):
            for k, c in spec.bracket_sparse(p, m):
                rows.setdefault((m, k), [ZERO] * dim)[p] = c
    system = list(rows.values())
    z_g = Subspace(kernel(system, dim), dim)
    z_h = kernel([row[nd:] for row in system], spec.h_dim)
    z_cap_h = Subspace([[ZERO] * nd + row for row in z_h], dim)
    return CenterData(z_g=z_g, z_cap_h=z_cap_h)


# ---------------------------------------------------------------------------
# unimodularity
# ---------------------------------------------------------------------------

def unimodularity(spec: LieAlgebraSpec) -> Tuple[bool, Dict[str, Fraction]]:
    """tr(ad w) per basis element; the group is unimodular iff all vanish."""
    table = {name: trace_ad(spec, name) for name in spec.names}
    return all(v == 0 for v in table.values()), table


# ---------------------------------------------------------------------------
# polarization data at a section point
# ---------------------------------------------------------------------------

@dataclass
class PolarizationData:
    p: Subspace
    dim_d: int            # real dimension of n cap p
    dim_e: int            # real dimension of (p + conj p) cap n
    dim_x: int
    x_indices: Tuple[int, ...]   # adapted indices carrying the domain coordinates
    real: bool
    positive: bool

    def as_dict(self):
        return {
            "dim_p_complex": self.p.dim,
            "dim_d": self.dim_d,
            "dim_e": self.dim_e,
            "dim_x": self.dim_x,
            "x_indices": list(self.x_indices),
            "real": self.real,
            "positive": self.positive,
        }


def _flag_pivots(p_rows, q_rows, nd: int):
    """Flag positions (1-based) where P + Q and where P cap Q grow, for
    subspaces of n_C given by rows over Z_1..Z_n.

    One RREF of the Zassenhaus matrix [[p, p], [q, 0]] with every half
    written in reverse order: the leftmost pivots of a span in reversed
    coordinates are its rightmost pivots in the flag. Rows with a pivot in
    the left half span P + Q, the others P cap Q (in the right half).
    """
    zeros = [ZERO] * nd
    _, pivots = rref([a[::-1] + a[::-1] for a in p_rows] +
                     [b[::-1] + zeros for b in q_rows])
    return ({nd - c for c in pivots if c < nd},
            {2 * nd - c for c in pivots if c >= nd})


def polarization_data(lam: Functional, basis: AdaptableBasis) -> PolarizationData:
    """Maximal isotropic subalgebra at lam, with the dimension data of the
    representation domain: dim X = dim(n/e) + dim(e/d)/2.

    The subalgebra is h_d, the last annihilator of the jump reduction on n
    (``JumpData.polarizing_rows``): h_k = h_{k-1} cap perp(y_{i_k}).
    Everything but positivity works on its rows over Z_1..Z_n; e = p + conj
    p and d = p cap conj p, so dim d = 2 dim p - dim e and p is real iff
    e = p.

    When the isotropic subalgebra is not positive at lam, its conjugate is
    (same dimension data); the conjugate is reported in that case.
    """
    jd = jump_data(lam, basis, "n")
    nd, sigma, columns = basis.n, basis.sigma, jd.columns

    def image(y):
        """M y, over the nonzero coordinates of y and M's sparse columns."""
        out = [ZERO] * nd
        for q, yq in enumerate(y):
            if yq:
                for p, mpq in columns[q]:
                    out[p] = out[p] + mpq * yq
        return out

    def dot(x, w):
        return sum((a * b for a, b in zip(x, w) if a and b), ZERO)

    def conj(x):
        """conj(sum x_p Z_p) = sum conj(x_p) Z_sigma(p)."""
        out = [ZERO] * nd
        for p, xp in enumerate(x):
            if xp:
                out[sigma[p + 1] - 1] = xp.conjugate()
        return out

    # isotropy, exact: lam[a, b] = a . M b
    rows = jd.polarizing_rows()
    images = [image(b) for b in rows]
    for i, a in enumerate(rows):
        for mb in images[i + 1:]:
            if dot(a, mb):
                raise IsotropyError("jump reduction output is not isotropic")
    conj_rows = [conj(a) for a in rows]
    # p + pbar closed under bracket: [a, b] = sum a_p b_q C_pq over p < q
    psum = Subspace(rows + conj_rows, nd)
    for i, a in enumerate(psum.rows):
        for b in psum.rows[i + 1:]:
            br = [ZERO] * nd
            for (p, q), cpq in basis.structure.items():
                c = a[p] * b[q] - a[q] * b[p]
                if c:
                    for k, x in cpq.items():
                        br[k] = br[k] + c * x
            if not psum.contains_vector(br):
                raise IsotropyError("p + conj(p) is not a subalgebra")

    dim_e = psum.dim
    dim_d = 2 * len(rows) - dim_e
    dim_x = (nd - dim_e) + (dim_e - dim_d) // 2
    is_real = dim_e == len(rows)

    # positivity: i*lam[w, conj w] >= 0 on the RREF rows w over the real
    # basis; lam[conj w, w] = -lam[w, conj w] decides it for conj(p)
    p = jd.polarizing_subspace
    vals = []
    for w in p.rows:
        x = [ZERO] * nd
        for k, xk in basis.coords(w).items():
            x[k] = xk
        vals.append(GaussianRational(0, 1) * dot(x, image(conj(x))))
    pos = all(v.is_real() and v.re >= 0 for v in vals)
    if not pos and not is_real and all(v.is_real() and v.re <= 0 for v in vals):
        p = Subspace([[x.conjugate() for x in w] for w in p.rows], basis.dim)
        pos = True

    # domain coordinate indices: complement of e in the flag, plus one index
    # per conjugate pair from the e/d gap
    e_pivots, d_pivots = _flag_pivots(rows, conj_rows, nd)
    if not d_pivots <= e_pivots:
        raise IsotropyError("nested pivot sets expected")
    outside = [j for j in range(1, basis.n + 1) if j not in e_pivots]
    gap = sorted(e_pivots - d_pivots)
    half = []
    used = set()
    for j in gap:
        if j in used:
            continue
        s = basis.sigma[j]
        if s == j or s not in gap:
            raise IsotropyError("e/d gap does not split into conjugate pairs")
        used.update((j, s))
        half.append(min(j, s))
    x_indices = tuple(sorted(outside + half))
    if len(x_indices) != dim_x:
        raise IsotropyError("domain coordinate count mismatch")
    return PolarizationData(p=p, dim_d=dim_d, dim_e=dim_e, dim_x=dim_x,
                            x_indices=x_indices, real=is_real, positive=pos)


# ---------------------------------------------------------------------------
# multiplicity
# ---------------------------------------------------------------------------

def multiplicity(basis: AdaptableBasis, stab: StabilizerData,
                 pol: PolarizationData):
    """2^(dim X) when the little group acts on the domain with real weights
    of full rank; infinity otherwise (in particular for a trivial little
    group).
    """
    if stab.k_dim == 0:
        return INFINITE
    if pol.dim_x == 0:
        return 1
    k_rows = [[GaussianRational(x.re) for x in row] for row in stab.k_subalg.rows]
    weight_rows = []
    for j in pol.x_indices:
        w = basis.weights[j - 1]
        vals = []
        for krow in k_rows:
            val = sum((krow[t] * w[t] for t in range(len(krow))), ZERO)
            if not val.is_real():
                return INFINITE
            vals.append(GaussianRational(val.re))
        weight_rows.append(vals)
    if rank(weight_rows) == pol.dim_x:
        return 2 ** pol.dim_x
    return INFINITE


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------

VERDICT_ADMISSIBLE = "ADMISSIBLE"
VERDICT_UNIMODULAR = "NOT_ADMISSIBLE_UNIMODULAR"
VERDICT_CENTER = "NOT_ADMISSIBLE_CENTER_MEETS_H"

REASONS = {
    VERDICT_ADMISSIBLE: (
        "the group is nonunimodular and the dilation part meets the center "
        "only at the identity, so the quasiregular representation embeds in "
        "the left regular representation and inherits admissibility"),
    VERDICT_UNIMODULAR: (
        "the group is unimodular, so no subrepresentation of the left "
        "regular representation admits an admissible vector (the multiplied "
        "Plancherel mass of the spectrum is infinite)"),
    VERDICT_CENTER: (
        "the dilation part meets the center nontrivially, so the "
        "quasiregular and left regular representations live on mutually "
        "singular spectral measures and containment fails"),
}


@dataclass
class AdmissibilityReport:
    verdict: str
    unimodular: bool
    trace_table: Dict[str, Fraction]
    dim_z_cap_h: int
    k_dim: int
    multiplicity: object              # int or math.inf or None
    dim_x: Optional[int]
    spectrum: Dict
    plancherel: Dict
    divergence_note: Optional[str] = None
    reason: str = ""

    def as_dict(self):
        mult = ("infinite" if self.multiplicity == INFINITE
                else self.multiplicity)
        out = {
            "verdict": self.verdict,
            "reason": self.reason,
            "unimodular": self.unimodular,
            "trace_table": {k: str(v) for k, v in self.trace_table.items()},
            "dim_z_cap_h": self.dim_z_cap_h,
            "k_dim": self.k_dim,
            "multiplicity": mult,
            "dim_x": self.dim_x,
            "spectrum": self.spectrum,
            "plancherel": self.plancherel,
        }
        if self.divergence_note:
            out["divergence_note"] = self.divergence_note
        return out


def verdict_from_parts(unimodular: bool, dim_z_cap_h: int) -> str:
    if unimodular:
        return VERDICT_UNIMODULAR
    return VERDICT_ADMISSIBLE if dim_z_cap_h == 0 else VERDICT_CENTER


# ---------------------------------------------------------------------------
# disintegration ratio check (Monte Carlo)
# ---------------------------------------------------------------------------

@dataclass
class RatioReport:
    lhs: Tuple[float, float]
    rhs: Tuple[float, float]
    ratios: Tuple[float, float]
    ratio_of_ratios: float
    samples: int
    seed: int

    def as_dict(self):
        return {
            "lhs": list(self.lhs), "rhs": list(self.rhs),
            "ratios": list(self.ratios),
            "ratio_of_ratios": self.ratio_of_ratios,
            "samples": self.samples, "seed": self.seed,
        }


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
    coordinates and a finite dilation-orbit section. It is the one user of
    numpy in the package and imports it here, so that importing solvlie
    does not load numpy.
    """
    import numpy as np

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
    lhs1 = float(np.mean(f1(pts) * weights) * vol)
    lhs2 = float(np.mean(f2(pts) * weights) * vol)

    # right side: sum over the finite section, integral over the dilation
    # parameters with the modular weight
    signs = [np.array(s) for s in _sign_patterns(n_nu)]
    traces = []
    re_weights = np.zeros((r, n_nu))
    for t, a in enumerate(stab.a_basis):
        avec = [Fraction(0)] * basis.dim
        for u, c in enumerate(a):
            avec[spec.n_dim + u] = c
        traces.append(float(trace_ad(spec, [GaussianRational(c) for c in avec])))
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
    rhs1 = rhs2 = 0.0
    for s in signs:
        flowed = scale * s
        pf_sigma = float(pf_abs(s.reshape(1, -1))[0])
        rhs1 += float(np.mean(f1(flowed) * modular) * tvol) * pf_sigma
        rhs2 += float(np.mean(f2(flowed) * modular) * tvol) * pf_sigma

    for name, val in (("lhs1", lhs1), ("lhs2", lhs2),
                      ("rhs1", rhs1), ("rhs2", rhs2)):
        if not np.isfinite(val) or abs(val) < 1e-12:
            raise MCVarianceError(f"estimate {name} unusable: {val}")
    r1, r2 = lhs1 / rhs1, lhs2 / rhs2
    return RatioReport(lhs=(lhs1, lhs2), rhs=(rhs1, rhs2), ratios=(r1, r2),
                       ratio_of_ratios=r1 / r2, samples=mc_samples, seed=seed)


def _sign_patterns(n: int):
    out = [[]]
    for _ in range(n):
        out = [p + [s] for p in out for s in (1.0, -1.0)]
    return out
