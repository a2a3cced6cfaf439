"""The verdict algebra over the real basis of g, kept as a test oracle.

This is the code ``solvlie.admissibility`` replaced by computations in
adapted coordinates. ``polarization_data`` works on subspaces of g_C over
the real basis: it replays the jump reduction on the adapted vectors
themselves, tests isotropy and positivity with ``Functional.pair``, checks
the closure of p + conj p with one rank of rows + vector per bracket, and
finds the pivot sets with one ``solve`` per row. ``center_data`` solves the
dense dim^2 x dim system and meets its kernel with h by
``Subspace.intersect``; ``unimodularity`` sums the diagonals of dense
``ad_matrix`` matrices. The tests compare each with the production code.

``polarizing_rows`` is ``JumpData.polarization`` as it was when it replayed
the reductions densely on unit vectors, with one GaussianRational quotient
per coefficient; kept verbatim.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from adapted_oracle import bracket_basis, solve
from conftest import exact_reduction
from solvlie.adapted import AdaptableBasis
from solvlie.admissibility import CenterData, IsotropyError, PolarizationData
from solvlie.algebra import LieAlgebraSpec
from solvlie.functionals import Functional
from solvlie.gaussian import GaussianRational, ZERO
from solvlie.linalg import Subspace
from solvlie.strata import JumpData, jump_data
from rref_oracle import identity, kernel, rank
from unipotent_oracle import ad_matrix


def polarizing_subspace(jd: JumpData) -> Subspace:
    """h_d: the reductions of jd replayed on the adapted vectors over the
    real basis, the rows at the positions outside j_seq."""
    n_amb = jd.basis.ambient(jd.ambient)
    ys = [list(v) for v in jd.basis.vectors[:n_amb]]
    for jk, steps in zip(jd.j_seq, exact_reduction(jd.steps, jd.den)[0]):
        y_j = ys[jk - 1]
        for g, c in steps:
            ys[g - 1] = [a - c * b for a, b in zip(ys[g - 1], y_j)]
    dead = set(jd.j_seq)
    rows = [y for g, y in enumerate(ys, start=1) if g not in dead]
    return Subspace(rows, jd.basis.dim)


def polarizing_rows(jd: JumpData):
    """h_d, the last member of the flag h_0 > h_1 > ... > h_d, from one
    replay of the reductions on unit vectors: (rows, subspace). The
    rows, over the ambient's adapted vectors, are the reduced vectors
    y_g at the positions g outside j_seq; each is e_g plus terms at
    positions in j_seq, so they are independent. The subspace is their
    span in g_C over the real basis. Exact points only: raises
    NeedsFloatError at a float point."""
    jd._require_exact("polarization")
    ys = identity(jd.basis.ambient(jd.ambient))
    for jk, steps in zip(jd.j_seq, exact_reduction(jd.steps, jd.den)[0]):
        y_j = ys[jk - 1]
        for g, c in steps:
            ys[g - 1] = [a - c * b if b else a
                         for a, b in zip(ys[g - 1], y_j)]
    dead = set(jd.j_seq)
    rows = [y for g, y in enumerate(ys, start=1) if g not in dead]
    terms = jd.basis.terms
    real = []
    for y in rows:
        # sum_p y_p Z_{p+1} over the real basis, as a sparse row
        out = {}
        for p, x in enumerate(y):
            if x:
                for m, c in terms[p]:
                    out[m] = out[m] + x * c if m in out else x * c
        real.append(out)
    return rows, Subspace(real, jd.basis.dim)


def _contains(sub: Subspace, vec) -> bool:
    return rank(sub.rows + [list(vec)]) == sub.dim


def _conj_subspace(sub: Subspace, dim: int) -> Subspace:
    return Subspace([[x.conjugate() for x in r] for r in sub.rows], dim)


def _pivots_in_adapted(sub: Subspace, basis: AdaptableBasis) -> Tuple[int, ...]:
    """Flag positions where the subspace grows, i.e. rightmost-pivot set
    of the rows rewritten in adapted coordinates (1-based)."""
    if sub.dim == 0:
        return ()
    # adapted coordinates: solve row = sum_j c_j Z_j
    cols = [[basis.vectors[j][m] for j in range(basis.dim)]
            for m in range(basis.dim)]
    coords = []
    for row in sub.rows:
        c = solve(cols, list(row))
        if c is None:
            raise ValueError("vector outside the basis span")
        coords.append(c)
    # eliminate from the right: pivot = largest index with nonzero coord
    pivots = []
    rows = [list(r) for r in coords]
    for _ in range(len(rows)):
        best, best_piv = None, -1
        for idx, r in enumerate(rows):
            piv = max((j for j in range(basis.dim) if not r[j].is_zero()),
                      default=-1)
            if piv > best_piv:
                best, best_piv = idx, piv
        if best is None or best_piv < 0:
            break
        lead = rows.pop(best)
        pivots.append(best_piv + 1)
        for r in rows:
            if not r[best_piv].is_zero():
                f = r[best_piv] / lead[best_piv]
                for j in range(basis.dim):
                    r[j] = r[j] - f * lead[j]
    return tuple(sorted(pivots))


def polarization_data(lam: Functional, basis: AdaptableBasis) -> PolarizationData:
    spec = basis.spec
    p = polarizing_subspace(jump_data(lam, basis, "n"))
    dim = basis.dim

    # isotropy, exact
    for a in p.rows:
        for b in p.rows:
            if not lam.pair(list(a), list(b)).is_zero():
                raise IsotropyError("jump reduction output is not isotropic")
    pbar = _conj_subspace(p, dim)
    # p + pbar closed under bracket
    psum = Subspace(p.rows + pbar.rows, dim)
    for a in psum.rows:
        for b in psum.rows:
            if not _contains(psum, spec.bracket(list(a), list(b))):
                raise IsotropyError("p + conj(p) is not a subalgebra")

    pint = p.intersect(pbar)
    dim_d = pint.dim
    dim_e = psum.dim
    if (dim_e - dim_d) % 2:
        raise IsotropyError("e/d has odd dimension")
    dim_x = (basis.n - dim_e) + (dim_e - dim_d) // 2
    is_real = p == pbar

    # positivity: i*lam[w, conj w] >= 0 on a basis of p; else swap to conj(p)
    def positive(sub: Subspace) -> bool:
        for w in sub.rows:
            val = lam.pair(list(w), [x.conjugate() for x in w])
            v = GaussianRational(0, 1) * val
            if not v.is_real() or v.re < 0:
                return False
        return True

    pos = positive(p)
    if not pos and not is_real:
        if positive(pbar):
            p, pbar = pbar, p
            pos = True

    # domain coordinate indices: complement of e in the flag, plus one index
    # per conjugate pair from the e/d gap
    e_pivots = set(_pivots_in_adapted(psum, basis))
    d_pivots = set(_pivots_in_adapted(pint, basis))
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


def center_data(spec: LieAlgebraSpec) -> CenterData:
    """z(g) as the joint kernel of w -> [w, basis], intersected with h."""
    dim = spec.dim
    rows = []
    for m in range(dim):
        for out_coord in range(dim):
            row = []
            for p in range(dim):
                img = bracket_basis(spec, p, m)
                row.append(img[out_coord])
            rows.append(row)
    z_rows = kernel(rows, dim)
    z_g = Subspace(z_rows, dim)
    h_rows = [[GaussianRational(1) if m == spec.n_dim + t else ZERO
               for m in range(dim)] for t in range(spec.h_dim)]
    z_cap_h = z_g.intersect(Subspace(h_rows, dim))
    return CenterData(z_g=z_g, z_cap_h=z_cap_h)


def trace_ad(spec: LieAlgebraSpec, w) -> Fraction:
    mat = ad_matrix(spec, w)
    return sum((mat[i][i] for i in range(spec.dim)), Fraction(0))


def unimodularity(spec: LieAlgebraSpec) -> Tuple[bool, Dict[str, Fraction]]:
    table = {name: trace_ad(spec, name) for name in spec.names}
    return all(v == 0 for v in table.values()), table
