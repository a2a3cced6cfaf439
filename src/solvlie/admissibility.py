"""Admissibility of the quasiregular representation of N x| H on L^2(N).

The decision needs three ingredients, all computed exactly: whether the
full group is unimodular (traces of ad), the intersection of the center
with the dilation part, and, for the decomposition summary, the
multiplicity of the generic irreducibles (a power of two read off a weight
matrix of the little group, or infinity).

The traces sum the diagonal structure constants [e_p, e_i]_i, and the
center is the kernel of the nonzero rows of w -> ([w, e_m])_m. The
polarization runs in adapted coordinates over Z_1..Z_n: p is the jump
reduction replayed on unit vectors, the form is x . M y with M y read off
the point's jump data (``JumpData.image``), conjugation is
conjugate-and-sigma-permute, brackets read the basis's adapted structure
constants C, and the pivot sets are read off the adapted rows.

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
from .gaussian import GaussianRational, ZERO, parts
from .linalg import Subspace, kernel, rank, reduce_row, rref
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
    only the nonzero rows are built, as sparse {p: c} rows with each
    c = [e_p, e_m]_k read off ``spec.brackets``. z(g) cap h is spanned by
    the RREF rows of z(g) whose pivot lies in h (p >= n): each is zero
    before its pivot, so it lies in h, and a vector of z(g) that lies in h
    is zero at every pivot in n, so it combines only those rows.
    """
    dim, nd = spec.dim, spec.n_dim
    rows: Dict[Tuple[int, int], Dict[int, GaussianRational]] = {}
    for (p, m), entry in spec.brackets.items():
        for k, c in entry:
            rows.setdefault((m, k), {})[p] = c
    z_g = Subspace(kernel(rows.values(), dim), dim)
    z_cap_h = Subspace([row for row, p in zip(z_g.sparse_rows, z_g.pivots)
                        if p >= nd], dim)
    return CenterData(z_g=z_g, z_cap_h=z_cap_h)


# ---------------------------------------------------------------------------
# unimodularity
# ---------------------------------------------------------------------------

def unimodularity(spec: LieAlgebraSpec) -> Tuple[bool, Dict[str, Fraction]]:
    """tr(ad w) per basis element, read off ``spec.ad_traces()`` (one pass
    over the structure constants, which hold every diagonal entry of every
    ad e_p); the group is unimodular iff all vanish."""
    table = dict(zip(spec.names, spec.ad_traces()))
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
    """The RREF rows of E = P + Q with their pivot columns, and the flag
    positions (1-based) where P cap Q grows, for subspaces of n_C given by
    sparse rows {p: x_p} over Z_1..Z_n: one elimination of both.

    One RREF of the Zassenhaus matrix [[p, p], [q, 0]] with every half
    written in reverse order: the leftmost pivots of a span in reversed
    coordinates are its rightmost pivots in the flag. Rows with a pivot in
    the left half have left halves spanning P + Q, the others are zero
    there and span P cap Q in the right half. Read back over Z_1..Z_n, in
    flag order, the left halves are the RREF rows of E for the reversed
    order: each is 1 at its pivot column, where the flag grows, and 0 at
    the others (so ``linalg.reduce_row`` tests membership in E on them).
    """
    def reversed_at(row, shift):
        return {shift + nd - 1 - p: x for p, x in row.items()}

    red, pivots = rref([{**reversed_at(a, 0), **reversed_at(a, nd)}
                        for a in p_rows] +
                       [reversed_at(b, 0) for b in q_rows])
    left = [(row, c) for row, c in zip(red, pivots) if c < nd][::-1]
    return ([{nd - 1 - k: x for k, x in row.items() if k < nd}
             for row, _ in left],
            [nd - 1 - c for _, c in left],
            {2 * nd - c for c in pivots if c >= nd})


def polarization_data(lam: Functional, basis: AdaptableBasis) -> PolarizationData:
    """Maximal isotropic subalgebra at lam, with the dimension data of the
    representation domain: dim X = dim(n/e) + dim(e/d)/2.

    The subalgebra is h_d, the last annihilator of the jump reduction on n
    (``JumpData.polarization``): h_k = h_{k-1} cap perp(y_{i_k}).
    Everything but positivity works on its rows over Z_1..Z_n; e = p + conj
    p and d = p cap conj p, so dim d = 2 dim p - dim e and p is real iff
    e = p. One elimination (``_flag_pivots``) gives the RREF rows of e, the
    flag pivots of e and of d, and dim e as the count of those rows.

    Closure of e under the bracket is checked on every pair of those rows,
    exactly: for each row b, one map p -> [Z_p, b] = sum_q b_q [Z_p, Z_q]
    is built from the nonzero structure constants alone (C_pq for p < q,
    -C_qp for p > q), and [a, b] = sum_p a_p [Z_p, b] for each row a
    before b must reduce to zero against the rows (``linalg.reduce_row``).
    Closure is a property of the span, so any echelon basis of e decides it.

    Positivity asks i lam[w, conj w] >= 0 on the RREF rows w of p over
    the real basis. When dim e = dim p, p equals conj p; the RREF rows of
    a subspace are unique and conjugation fixes the real basis, so the
    rows of conj p, the conjugates of those of p, are those of p: each
    row is real, and i lam[w, conj w] = i lam[w, w] = 0 by skew symmetry.
    So a real p is positive, and its values are not read. A non-real p
    reads them; when it is not positive at lam, its conjugate is (same
    dimension data), and the conjugate is reported in that case.
    """
    jd = jump_data(lam, basis, "n")
    nd, sigma, structure = basis.n, basis.sigma, basis.structure

    def dot(x, w):
        """x . w, for x sparse over Z_1..Z_n and w a sparse M y from
        ``jd.image``."""
        return sum((x[p] * c for p, c in w.items() if p in x and c), ZERO)

    def conj(x):
        """conj(sum x_p Z_p) = sum conj(x_p) Z_sigma(p)."""
        return {sigma[p + 1] - 1: xp.conjugate() for p, xp in x.items()}

    # isotropy, exact: lam[a, b] = a . M b, over the sparse rows of p
    rows, h_d = jd.polarization()
    images = [jd.image(b) for b in rows]
    for i, a in enumerate(rows):
        for mb in images[i + 1:]:
            if dot(a, mb):
                raise IsotropyError("jump reduction output is not isotropic")
    conj_rows = [conj(a) for a in rows]
    e_rows, e_cols, d_pivots = _flag_pivots(rows, conj_rows, nd)
    # p + pbar closed under bracket (see the docstring): ad_b[p] = [Z_p, b];
    # partners[q] lists (p, C, flip) per nonzero [Z_p, Z_q] = (-1)^flip C
    partners: Dict[int, list] = {}
    for (p, q), cpq in structure.items():
        partners.setdefault(q, []).append((p, cpq, False))
        partners.setdefault(p, []).append((q, cpq, True))
    seen = set()                # the indices p of the rows before b
    for j, b in enumerate(e_rows):
        ad_b: Dict[int, Dict[int, GaussianRational]] = {}
        for q, bq in b.items():
            for p, cpq, flip in partners.get(q, ()):
                if p not in seen:
                    continue
                c = -bq if flip else bq
                col = ad_b.setdefault(p, {})
                for k, x in cpq.items():
                    col[k] = col[k] + c * x if k in col else c * x
        for a in e_rows[:j]:
            br: Dict[int, GaussianRational] = {}
            for p, ap in a.items():
                for k, x in ad_b.get(p, {}).items():
                    br[k] = br[k] + ap * x if k in br else ap * x
            if reduce_row(e_rows, e_cols, br):
                raise IsotropyError("p + conj(p) is not a subalgebra")
        seen.update(b)

    dim_e = len(e_rows)
    dim_d = 2 * len(rows) - dim_e
    dim_x = (nd - dim_e) + (dim_e - dim_d) // 2
    is_real = dim_e == len(rows)

    # positivity: i*lam[w, conj w] >= 0 on the RREF rows w over the real
    # basis (see the docstring: a real p is positive with no value read);
    # lam[conj w, w] = -lam[w, conj w] decides it for conj(p)
    pos = True
    if not is_real:
        vals = []
        for w in h_d.rows:
            x = basis.coords(w)
            vals.append(GaussianRational(0, 1) * dot(x, jd.image(conj(x))))
        pos = all(v.is_real() and v.re >= 0 for v in vals)
        if not pos and all(v.is_real() and v.re <= 0 for v in vals):
            h_d = Subspace([{k: x.conjugate() for k, x in w.items()}
                            for w in h_d.sparse_rows], basis.dim)
            pos = True

    # domain coordinate indices: complement of e in the flag, plus one index
    # per conjugate pair from the e/d gap
    e_pivots = {c + 1 for c in e_cols}
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
    return PolarizationData(p=h_d, dim_d=dim_d, dim_e=dim_e, dim_x=dim_x,
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
    k_rows = [[parts(x)[0] for x in row] for row in stab.k_subalg.rows]
    weight_rows = []
    for j in pol.x_indices:
        w = basis.weights[j - 1]
        vals = []
        for krow in k_rows:
            val = sum((krow[t] * w[t] for t in range(len(krow))), ZERO)
            if not val.is_real():
                return INFINITE
            vals.append(val)
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
# disintegration constant
# ---------------------------------------------------------------------------

class DisintegrationError(ValueError):
    """A hypothesis of the exact disintegration constant fails."""


def disintegration_check(basis: AdaptableBasis, n_layer: LayerDescriptor,
                         stab: StabilizerData) -> Fraction:
    """The exact constant c of the orbit-wise disintegration of the
    Plancherel density against the dilation orbits:

      int F(x) |Pf(x)| dx = c sum_s |Pf(s)| int F(x(t, s)) e^{-t.tr ad} dt

    for every integrable F of the free coordinates x = (x_j), j in nu. Pf(x)
    is the Pfaffian of M(x)_ab = sum_{j in nu} C_ab^j x_j over a, b in e,
    the orbit form on the section variety, where every other adapted
    coordinate vanishes. s runs over the finite section {+1, -1}^nu, t over
    R^r, and t.tr ad = tr ad(sum_u t_u A_u).

    Conventions (README "Conventions"): [A, Z_j] = gamma_j(A) Z_j and
    (g.l)(X) = l(Ad_{g^-1} X), so exp(sum_u t_u A_u) moves s to
    x(t, s)_j = s_j e^{-(tW)_j}, with W_uj = Re gamma_j(A_u) over the
    A_1..A_r of ``stab.a_basis`` and j in nu. On a real Z_j the weight is
    real. The derivation needs phi = nu, so W is square:

    1. t -> x(t, s) maps R^r onto the orthant of s, and dx_j/dt_u =
       -W_uj x_j gives dx = |det W| e^{-t.sum_nu Re gamma} dt.
    2. Weight compatibility: C_ab^j != 0 only when gamma_a + gamma_b =
       gamma_j. Then M(x(t, s)) = D M(s) D with D = diag(e^{-t.gamma_a}),
       a in e, so |Pf(x(t, s))| = e^{-t.sum_e Re gamma} |Pf(s)|.
    3. Trace identity: sum_e Re gamma + sum_nu Re gamma = tr ad on h.

    Substituting 1 and 2 into the left side orthant by orthant, and then 3,
    gives c = |det W|. Both hypotheses are checked exactly: 2 per
    structure constant over e, 3 on each h basis vector. DisintegrationError
    names the one that fails.

    W is the identity: ``stabilizer_data`` solves Re gamma_{phi_t}(A_u) =
    delta_tu, and phi = nu, both in increasing order. So c = 1 on every
    supported layer. W is read off the A_u exactly and required to be the
    identity; DisintegrationError names the entry of that normalization
    that fails.

    Raises UnsupportedLayerError unless phi = nu (a finite dilation-orbit
    section) and every free coordinate is real.
    """
    nu, e_set, spec, gamma = stab.nu, n_layer.e_set, basis.spec, basis.weights
    if set(stab.phi) != set(nu):
        raise UnsupportedLayerError(
            "finite section needed: every free coordinate must carry a "
            "modulus constraint")
    if any(basis.sigma[j] != j for j in nu):
        raise UnsupportedLayerError("free coordinates must be real")
    for i, a in enumerate(e_set):
        for b in e_set[i + 1:]:
            for k in basis.structure.get((a - 1, b - 1), ()):
                if any(x + y != z for x, y, z in
                       zip(gamma[a - 1], gamma[b - 1], gamma[k])):
                    raise DisintegrationError(
                        f"C is not weight-compatible: [Z_{a}, Z_{b}] has a "
                        f"Z_{k + 1} term of another weight")
    for u, name in enumerate(spec.h_names):
        total = sum(gamma[j - 1][u].re for j in e_set + nu)
        if total != trace_ad(spec, name):
            raise DisintegrationError(
                f"the real weights over e and nu sum to {total} on {name}, "
                f"not to tr ad({name})")
    for u, a in enumerate(stab.a_basis, start=1):
        for t, j in enumerate(nu, start=1):
            w = sum(g.re * c for g, c in zip(gamma[j - 1], a))
            if w != int(t == u):
                raise DisintegrationError(
                    f"W is not the identity: stabilizer_data normalizes "
                    f"Re gamma_{j}(A_{u}) to {int(t == u)}, but it is {w}")
    return Fraction(1)
