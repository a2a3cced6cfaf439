"""Section vectors over the real basis of g, kept as a test oracle.

This is the computation ``solvlie.strata.section_vectors`` replaced by one
in adapted coordinates. It builds every vector as a coordinate vector over
the real basis of g, takes real and imaginary parts of the adapted vectors
entry by entry, and pairs through ``Functional.pair``. ``layer_data`` is
the case table as it was before the per-key table of
``strata._case_table``. The tests
compare the two on corpus points, seeded points and flowed float points,
reading the library's adapted coordinates over the real basis through
``real_vector`` (sum_p x_p Z_{p+1}) and ``real_section_vectors``.
``layer_descriptor`` builds a sample's descriptor from both.
``pointwise_stabilizer`` is the little group read at one point.
``contains`` is section membership as the library decided it before it
tested the coordinate equations first: the reduction and the section
vectors come first, then every equation, each read over the real basis.
``stabilizer_data`` is the little-group data as the library computed it
with one ``rank`` per candidate phi index and one ``solve`` per complement
vector, before it grew an echelon and read the complement off one inverse.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from adapted_oracle import solve
from rref_oracle import identity, kernel, rank, rref
from solvlie.adapted import AdaptableBasis
from solvlie.functionals import Functional
from solvlie.gaussian import GaussianRational, ZERO
from solvlie.linalg import Subspace, is_zero
from solvlie.sections import NormalizationFailedError, StabilizerData
from solvlie.strata import (JumpData, LayerDescriptor, LayerMismatchError,
                            UnsupportedCaseError, jump_data)


_PARTS = weakref.WeakKeyDictionary()   # basis -> {exact: _mode_parts}


def _mode_parts(basis: AdaptableBasis, tol):
    """The adapted vectors and their real and imaginary parts in the mode
    of tol, built once per basis and mode (read-only tuples)."""
    exact = tol is None
    per_basis = _PARTS.setdefault(basis, {})
    parts = per_basis.get(exact)
    if parts is None:
        re = tuple(tuple(GaussianRational(x.re) for x in v) for v in basis.vectors)
        im = tuple(tuple(GaussianRational(x.im) for x in v) for v in basis.vectors)
        parts = (tuple(basis.vectors), re, im)
        if not exact:
            parts = tuple(tuple(tuple(complex(x) for x in v) for v in vecs)
                          for vecs in parts)
        per_basis[exact] = parts
    return parts


def pointwise_stabilizer(f: Functional, basis: AdaptableBasis) -> Subspace:
    """{X in h : weight_j(X) = 0 whenever f(Z_j) != 0}, exact: the little
    group read at one point, which the tests compare with the common
    stabilizer of the layer."""
    hd = basis.spec.h_dim
    rows = []
    for j in range(1, basis.n + 1):
        if not is_zero(f.z(j), f.tol):
            w = basis.weights[j - 1]
            rows.append([GaussianRational(x.re) for x in w])
            rows.append([GaussianRational(x.im) for x in w])
    return Subspace(kernel(rows, hd) if rows else identity(hd), hd)


def stabilizer_data(spec, basis: AdaptableBasis, n_layer) -> StabilizerData:
    """k, the joint kernel of the weights on nu; phi, the j in nu (upward)
    whose real weight raises the rank of those kept; A_t with
    Re weight_{phi_u}(A_t) = delta_ut on the RREF pivot columns of the kept
    real weights, one ``solve`` per t."""
    nd, hd = spec.n_dim, spec.h_dim
    nu = tuple(j for j in range(1, nd + 1) if j not in set(n_layer.e_set))
    rows = []
    for j in nu:
        w = basis.weights[j - 1]
        rows.append([GaussianRational(x.re) for x in w])
        rows.append([GaussianRational(x.im) for x in w])
    k_sub = Subspace(kernel(rows, hd) if rows else identity(hd), hd)

    sel: List[List[GaussianRational]] = []
    phi: List[int] = []
    for j in nu:
        row = [GaussianRational(x.re) for x in basis.weights[j - 1]]
        if all(x.is_zero() for x in row):
            continue
        if rank(sel + [row]) > len(phi):
            sel.append(row)
            phi.append(j)

    r = len(phi)
    if k_sub.dim + r != hd:
        raise NormalizationFailedError(
            f"complement mismatch: dim k = {k_sub.dim}, r = {r}, dim h = {hd}")

    a_basis: List[Tuple[Fraction, ...]] = []
    if r:
        gmat = [[GaussianRational(basis.weights[j - 1][t].re) for t in range(hd)]
                for j in phi]
        _, pivots = rref(gmat)
        if len(pivots) < r:
            raise NormalizationFailedError("real weights on phi are dependent")
        cols = [[gmat[u][p] for p in pivots] for u in range(r)]
        for t in range(r):
            x = solve(cols, [GaussianRational(1 if u == t else 0)
                             for u in range(r)])
            if x is None:
                raise NormalizationFailedError("normalization system is singular")
            full = [Fraction(0)] * hd
            for p, val in zip(pivots, x):
                if not val.is_real():
                    raise NormalizationFailedError("complex normalization")
                full[p] = val.re
            a_basis.append(tuple(full))
    return StabilizerData(nu=nu, k_subalg=k_sub, a_basis=a_basis, phi=tuple(phi))


def real_vector(basis: AdaptableBasis, coords: dict) -> list:
    """sum_p x_p Z_{p+1} over the real basis of g, for the sparse adapted
    coordinates {p: x_p} that ``solvlie.strata.section_vectors`` returns."""
    out = [ZERO] * basis.dim
    for p, x in coords.items():
        for m, c in enumerate(basis.vector(p + 1)):
            out[m] = out[m] + x * c
    return out


def real_section_vectors(sv) -> "SectionVectors":
    """``solvlie.strata.SectionVectors`` (adapted coordinates) as this
    oracle's vectors over the real basis of g."""
    basis = sv.jd.basis
    return SectionVectors(
        jd=sv.jd,
        v_list=[real_vector(basis, v) for v in sv.v_adapted],
        u_list=[real_vector(basis, u) for u in sv.u_adapted],
        z_at={j: real_vector(basis, z) for j, z in sv.z_adapted.items()},
        b_at=dict(sv.b_at), pairings=list(sv.pairings))


def _self_conjugate_steps(basis: AdaptableBasis):
    """1-based flag indices j (plus 0) with conj-stable span, over all of g."""
    out = [0]
    closed: set = set()
    for j in range(1, basis.dim + 1):
        closed.add(j)
        if all(basis.sigma[p] in closed for p in closed):
            out.append(j)
    return tuple(out)


def layer_data(basis: AdaptableBasis, jd: JumpData, top: int):
    """(conj-stable positions, primes, case sets) of the jump pairs."""
    stable = [j for j in _self_conjugate_steps(basis) if j <= top]
    stable_set = set(stable)
    primes = {}
    for j in range(1, top + 1):
        lower = max(p for p in stable if p < j) if any(p < j for p in stable) else 0
        upper = min((p for p in stable if p >= j), default=top)
        primes[j] = (lower, upper)
    e_set = set(jd.e_set)
    i_set = set(jd.i_seq)
    j_set = set(jd.j_seq)
    cases: Dict[int, List[int]] = {c: [] for c in range(6)}
    for k, ik in enumerate(jd.i_seq, start=1):
        lo, hi = primes[ik]
        if hi - lo == 1:
            cases[0].append(k)
        if ik not in stable_set and ik + 1 not in e_set:
            cases[1].append(k)
        if ik - 1 in j_set and ik - 1 not in stable_set:
            cases[2].append(k)
        if ik not in stable_set and ik + 1 in j_set:
            cases[3].append(k)
        if ik not in stable_set and ik + 1 in i_set:
            cases[4].append(k)
        if ik - 1 in i_set and ik - 1 not in stable_set:
            cases[5].append(k)
    return tuple(stable), primes, {c: tuple(v) for c, v in cases.items()}


def _weight_on(basis: AdaptableBasis, j: int, vec):
    """gamma_j evaluated on the h-component of a g_C coordinate vector."""
    total = ZERO if isinstance(vec[0], GaussianRational) else 0j
    for c, w in zip(vec[basis.spec.n_dim:], basis.weights[j - 1]):
        total = total + c * w
    return total


@dataclass
class SectionVectors:
    jd: JumpData
    v_list: List[list]                 # V_k, dual pair first members
    u_list: List[list]                 # U_k, dual pair second members
    z_at: Dict[int, Sequence]          # j in e -> Z_j(l)
    b_at: Dict[int, object]            # i_k in phi -> b value
    pairings: List[object]             # l[V_k, U_k]

    def rho(self, vec, l: Functional, upto: Optional[int] = None):
        """Project vec against the dual pairs V_m, U_m for m <= upto."""
        k = len(self.v_list) if upto is None else upto
        out = list(vec)
        for m in range(k):
            vm, um = self.v_list[m], self.u_list[m]
            c_u = l.pair(out, um)
            c_v = l.pair(out, vm)
            denom = self.pairings[m]
            out = [o - (c_u / denom) * v + (c_v / denom) * u
                   for o, v, u in zip(out, vm, um)]
        return out


def _scale(vec, c):
    return [c * x for x in vec]


def _add(u, v):
    return [a + b for a, b in zip(u, v)]


def section_vectors(l: Functional, basis: Optional[AdaptableBasis] = None,
                    jd: Optional[JumpData] = None,
                    ambient: str = "g") -> SectionVectors:
    """Dual pairs V_k, U_k and the combinations Z_j(l), case by case.

    Raises LayerMismatchError when a pairing l[V_k, U_k] vanishes (the point
    is not in the layer the case table assumed) and UnsupportedCaseError for
    pair patterns outside the table.
    """
    if basis is None:
        basis = l.basis
    if jd is None:
        jd = jump_data(l, basis, ambient)
    n_amb = basis.ambient(ambient)
    tol = l.tol
    vectors, mode_re, mode_im = _mode_parts(basis, tol)
    _, _, cases = layer_data(basis, jd, n_amb)
    in_case = {c: set(v) for c, v in cases.items()}

    sv = SectionVectors(jd=jd, v_list=[], u_list=[], z_at={}, b_at={},
                        pairings=[])
    pending_z: Dict[int, list] = {}

    for k in range(1, jd.d + 1):
        ik, jk = jd.i_seq[k - 1], jd.j_seq[k - 1]
        re_i, im_i = mode_re[ik - 1], mode_im[ik - 1]

        if k in in_case[5] and ik in pending_z:
            z_ik = pending_z.pop(ik)
        elif k in in_case[0]:
            z_ik = re_i
        elif k in in_case[1]:
            rho_jk = sv.rho(vectors[jk - 1], l)
            b1 = l.pair(rho_jk, re_i)
            b2 = l.pair(rho_jk, im_i)
            z_ik = _add(_scale(re_i, b1), _scale(im_i, b2))
        elif k in in_case[2]:
            # the partner pair index m with j_m immediately below i_k
            m = next((m for m in range(1, min(k, len(sv.v_list) + 1))
                      if jd.j_seq[m - 1] == ik - 1), None)
            if m is None:
                raise UnsupportedCaseError(
                    f"pair {k}: no computed partner below index {ik}")
            a1 = l.pair(mode_re[jd.j_seq[m - 1] - 1], sv.v_list[m - 1])
            a2 = l.pair(mode_im[jd.j_seq[m - 1] - 1], sv.v_list[m - 1])
            z_ik = _add(_scale(re_i, -a2), _scale(im_i, -a1))
        elif k in in_case[3]:
            z_ik = im_i
        elif k in in_case[4]:
            z_ik = re_i
        else:
            raise UnsupportedCaseError(f"pair {k} falls in no supported case")

        vk = sv.rho(z_ik, l)
        re_j, im_j = mode_re[jk - 1], mode_im[jk - 1]
        a1 = l.pair(re_j, vk)
        a2 = l.pair(im_j, vk)
        z_jk = _add(_scale(re_j, a1), _scale(im_j, a2))
        uk = sv.rho(z_jk, l)
        pairing = l.pair(vk, uk)
        if is_zero(pairing, tol):
            raise LayerMismatchError(f"pairing of dual pair {k} vanishes")

        sv.v_list.append(vk)
        sv.u_list.append(uk)
        sv.pairings.append(pairing)
        sv.z_at[ik] = z_ik
        sv.z_at[jk] = z_jk

        if (k in in_case[4] and k + 1 <= jd.d and jd.i_seq[k] == ik + 1
                and basis.sigma[jd.j_seq[k]] == jk):
            num = l.pair(uk, im_i)
            den = l.pair(uk, re_i)
            if is_zero(den, tol):
                raise UnsupportedCaseError(
                    f"pair {k}: degenerate adjacent-pair combination")
            nxt = jd.i_seq[k]
            z_next = _add(_scale(mode_re[nxt - 1], -(num / den)),
                          _scale(mode_im[nxt - 1], -1))
            pending_z[nxt] = z_next

    # b values on pair indices whose weight pairs with U_k
    for k in range(1, jd.d + 1):
        ik = jd.i_seq[k - 1]
        if ik > basis.n:
            continue
        gamma = _weight_on(basis, ik, sv.u_list[k - 1])
        if is_zero(gamma, tol):
            continue
        denom = l.pair(vectors[ik - 1], sv.u_list[k - 1])
        if is_zero(denom, tol):
            raise LayerMismatchError(f"b value at index {ik} is singular")
        sv.b_at[ik] = gamma / denom
    return sv


def layer_descriptor(f: Functional, basis: AdaptableBasis,
                     ambient: str) -> LayerDescriptor:
    """``strata.layer_descriptor`` with a fresh ``layer_data`` table and
    the real-basis section vectors, for one sample."""
    jd = jump_data(f, basis, ambient)
    sv = section_vectors(f, basis, jd, ambient)
    stable, primes, cases = layer_data(basis, jd, basis.ambient(ambient))
    return LayerDescriptor(ambient=ambient, e_set=jd.e_set, i_seq=jd.i_seq,
                           j_seq=jd.j_seq, stable_set=stable, primes=primes,
                           case_sets=cases, phi=tuple(sorted(sv.b_at)))


def contains(oracle, f: Functional) -> bool:
    """Whether f is in the section of oracle (a ``SectionOracle``): the
    jump pairs of f must match the layer's and the section vectors of this
    module must build, then every equation is evaluated at f in the order
    of the section's definition, jump equations first, by the zero test of
    f. Errors of ``section_vectors`` other than LayerMismatchError reach
    the caller, whatever the point's coordinates."""
    tol = f.tol
    basis, layer = oracle.basis, oracle.n_layer
    jd = jump_data(f, basis, "n")
    if jd.e_set != layer.e_set or jd.j_seq != layer.j_seq:
        return False
    try:
        sv = section_vectors(f, basis, jd, "n")
    except LayerMismatchError:
        return False
    if not all(is_zero(f.value(sv.z_at[j]), tol) for j in layer.e_set):
        return False
    if oracle.kind == "Lambda":
        return True
    if any(is_zero(f.z(j), tol) for j in range(1, basis.n + 1)
           if j not in layer.e_set):
        return False
    if oracle.kind == "LambdaNu":
        return True
    for j in oracle.phi:
        z = f.z(j)
        if not is_zero(z * z.conjugate() - 1, tol):
            return False
    if oracle.kind == "SigmaCirc":
        return True
    nd = basis.spec.n_dim
    return all(is_zero(f.value([ZERO] * nd +
                               [GaussianRational.coerce(c) for c in a]), tol)
               for a in oracle.stab.a_basis)
