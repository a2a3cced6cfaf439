"""The flag/annihilator recursion for jump data, kept as a test oracle.

This is the recursion ``solvlie.strata.jump_data`` replaced by one
symplectic reduction of the skew matrix. It walks the flag through the
annihilators h_0 > h_1 > ... with ``perp``, ``Subspace.intersect`` and
``_flag_meet_profile``, and keeps the whole flag ``h_flag``. The tests
compare the two on corpus points and seeded points, all exact.

``bilinear_form`` and ``perp`` are the real-coordinate views of the orbit
form the recursion is built on: the matrix of (X, Y) -> l[X, Y] on
subspace bases, and the annihilator of a set of vectors inside a subspace.
``flag(basis, j)`` is the span of the first j adapted vectors.

``_orbit_form`` and ``_skew_reduce`` are the dense kernel that
``solvlie.strata`` replaced by sparse rows filled from integer linear forms:
the orbit form as a dense n_amb x n_amb matrix filled from the adapted
values l(Z_k), and the symplectic reduction in place on it. They are kept
verbatim; the tests compare the sparse kernel with them exactly at exact
points, and read the dense reduced form off them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from solvlie.adapted import AdaptableBasis
from solvlie.functionals import Functional, adapted_values
from solvlie.gaussian import ZERO
from solvlie.linalg import Subspace, zero_test
from solvlie.strata import LayerMismatchError
from rref_oracle import kernel


_FLAGS = weakref.WeakKeyDictionary()   # basis -> {j: flag subspace}


def flag(basis: AdaptableBasis, j: int) -> Subspace:
    """Span of the first j adapted vectors, j in 0..dim, built once per
    basis and j."""
    flags = _FLAGS.setdefault(basis, {})
    if j not in flags:
        flags[j] = Subspace([list(v) for v in basis.vectors[:j]], basis.dim)
    return flags[j]


def bilinear_form(l: Functional, s: Subspace, t: Optional[Subspace] = None):
    """Matrix of (X, Y) -> l[X, Y] on the given subspace bases."""
    if t is None:
        t = s
    return [[l.pair(list(a), list(b)) for b in t.rows] for a in s.rows]


def perp(l: Functional, s_rows: Sequence, ambient: Subspace) -> Subspace:
    """{v in ambient : l[s, v] = 0 for all s}, as a subspace of g_C; l exact."""
    if not s_rows:
        return ambient
    mat = [[l.pair(list(s), list(t)) for t in ambient.rows] for s in s_rows]
    combos = kernel(mat, len(ambient.rows))
    rows = []
    for combo in combos:
        vec = [sum((combo[i] * ambient.rows[i][m] for i in range(len(ambient.rows))),
                   ZERO) for m in range(l.basis.dim)]
        rows.append(vec)
    return Subspace(rows, l.basis.dim)


def radical(l: Functional, ambient: Subspace) -> Subspace:
    return perp(l, ambient.rows, ambient)


@dataclass
class JumpData:
    i_seq: Tuple[int, ...]
    j_seq: Tuple[int, ...]
    h_flag: List[Subspace]          # h_0 (ambient) down to h_d
    ambient: str

    @property
    def d(self) -> int:
        return len(self.i_seq)

    @property
    def e_set(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.i_seq) | set(self.j_seq)))

    def key(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return (self.e_set, self.j_seq)


def _flag_meet_profile(vectors: Sequence, n_amb: int,
                       sub: Subspace) -> List[int]:
    """dims of (span of the first j vectors) cap sub, for j = 0..n_amb.

    Uses dim(c_j cap S) = j + dim S - dim(c_j + S) with one incremental
    elimination pass, instead of j separate intersections.
    """
    dim = sub.ambient_dim
    # sub.rows are already in RREF: each pivot column is zero elsewhere
    work: List[list] = [list(r) for r in sub.rows]
    pivots: List[int] = []
    for r in work:
        pivots.append(next(c for c in range(dim) if r[c]))
    s = len(work)
    out = [0]
    joined = s
    for j in range(1, n_amb + 1):
        v = vectors[j - 1]
        for r, p in zip(work, pivots):
            if v[p]:
                f = v[p] / r[p]
                v = [a - f * b for a, b in zip(v, r)]
        piv = next((c for c in range(dim) if v[c]), None)
        if piv is not None:
            # keep every pivot column zero in the other rows, so one
            # elimination pass stays sufficient for later vectors
            for idx, r in enumerate(work):
                if r[piv]:
                    f = r[piv] / v[piv]
                    work[idx] = [a - f * b for a, b in zip(r, v)]
            work.append(v)
            pivots.append(piv)
            joined += 1
        out.append(j + s - joined)
    return out


def jump_data(l: Functional, basis: Optional[AdaptableBasis] = None,
              ambient: str = "g") -> JumpData:
    """Run the flag/annihilator recursion at an exact point l.

    ambient 'n' restricts everything to the nilpotent part (giving the
    jump set of the restricted point); 'g' uses the whole algebra.
    """
    if basis is None:
        basis = l.basis
    if not l.exact:
        raise ValueError("the recursion runs at exact points only")
    vectors = basis.vectors
    flags = [flag(basis, j) for j in range(basis.dim + 1)]
    n_amb = basis.ambient(ambient)
    amb = flags[n_amb]

    def first_escape(inside: Subspace, outside: Subspace) -> Optional[int]:
        # min j with (c_j cap inside) not contained in outside
        prof_in = _flag_meet_profile(vectors, n_amb, inside)
        prof_out = _flag_meet_profile(vectors, n_amb, inside.intersect(outside))
        for j in range(1, n_amb + 1):
            if prof_in[j] > prof_out[j]:
                return j
        return None

    i_seq: List[int] = []
    j_seq: List[int] = []
    h_flag: List[Subspace] = [amb]

    # first step: flag escapes the radical; h_1 annihilates a single vector
    rad = radical(l, amb)
    i1 = first_escape(amb, rad)
    if i1 is None:
        return JumpData((), (), h_flag, ambient)
    h1 = perp(l, [vectors[i1 - 1]], amb)
    j1 = first_escape(amb, h1)
    if j1 is None:
        raise LayerMismatchError("first jump has no partner")
    i_seq.append(i1)
    j_seq.append(j1)
    h_flag.append(h1)

    while True:
        h_prev = h_flag[-1]
        p = perp(l, h_prev.rows, amb)
        ik = first_escape(h_prev, p)
        if ik is None:
            break
        hk = perp(l, h_prev.intersect(flags[ik]).rows, amb).intersect(h_prev)
        jk = first_escape(h_prev, hk)
        if jk is None:
            raise LayerMismatchError(f"jump {ik} has no partner")
        i_seq.append(ik)
        j_seq.append(jk)
        h_flag.append(hk)

    return JumpData(tuple(i_seq), tuple(j_seq), h_flag, ambient)


# ---------------------------------------------------------------------------
# the dense orbit form and its reduction
# ---------------------------------------------------------------------------

def _orbit_form(l: Functional, basis: AdaptableBasis, n_amb: int):
    """(zvals, M, columns): the values zvals[k] = l(Z_{k+1}), k < n
    (``functionals.adapted_values``), and
    M[p][q] = l[Z_{p+1}, Z_{q+1}] = sum_k C_pq^k l(Z_{k+1}) on the first
    n_amb adapted vectors, from the basis's adapted structure constants.
    ``columns[q]`` lists the nonzero (p, M[p][q]) by increasing p; they are
    recorded as M is filled, since only the entries with a row of C can be
    nonzero."""
    zero = l.zero
    zvals = adapted_values(l, basis.terms[:basis.n])
    form = [[zero] * n_amb for _ in range(n_amb)]
    # keys run by q, then by p, so each column gets its rows in order:
    # first p < q at key (p, q), then p > q at the later keys (q, p)
    columns: List[list] = [[] for _ in range(n_amb)]
    for table in (basis.structure, basis.h_structure):
        for (p, q), row in table.items():
            if q >= n_amb:
                break
            # sums start at their first nonzero product, saving an
            # addition to zero
            x = zero
            for k, c in row.items():
                zk = zvals[k]
                if zk:
                    x = c * zk if x is zero else x + c * zk
            if x:
                y = -x
                form[p][q] = x
                form[q][p] = y
                columns[q].append((p, x))
                columns[p].append((q, y))
    return zvals, form, columns


def _skew_reduce(m: List[list], tol: Optional[float]):
    """One symplectic reduction of the skew matrix m, in place.

    Positions g stay active while their reduced vector y_g can still pair.
    Step k takes the first active row i_k with a nonzero entry in an active
    column, and j_k as the first such column; every active g with
    m[i_k][g] != 0 is reduced by y_g <- y_g - c * y_{j_k},
    c = m[i_k][g] / m[i_k][j_k], which clears row i_k in the active
    columns other than j_k. Then i_k and j_k leave the active set. Each
    step is a congruence of determinant 1.

    Returns (i_seq, j_seq, reductions, pivots), positions 1-based:
    ``reductions[k - 1]`` lists the (g, c) of step k and ``pivots[k - 1]``
    is the reduced m[i_k][j_k].
    """
    zero = zero_test(tol)
    active = list(range(len(m)))
    # the active rows not yet seen to be zero in every active column; such a
    # row never changes again (zero in column i_k, it is not reduced; zero in
    # column j_k, it is not among the columns that move), so it leaves the
    # scan for good
    scan = list(active)
    i_seq: List[int] = []
    j_seq: List[int] = []
    reductions = []
    pivots = []
    while scan:
        ik = scan.pop(0)
        row_i = m[ik]
        jk = next((q for q in active if not zero(row_i[q])), None)
        if jk is None:
            continue
        active.remove(ik)
        active.remove(jk)
        scan.remove(jk)
        row_j = m[jk]
        piv = row_i[jk]
        # row j_k is fixed during the step; only its nonzero columns move
        cols = [q for q in active if not zero(row_j[q])]
        steps = []
        for g in active:
            if zero(row_i[g]):
                continue
            c = row_i[g] / piv
            steps.append((g + 1, c))
            row_g = m[g]
            for q in cols:
                if q != g:
                    x = row_g[q] - c * row_j[q]
                    row_g[q] = x
                    m[q][g] = -x
        i_seq.append(ik + 1)
        j_seq.append(jk + 1)
        reductions.append(tuple(steps))
        pivots.append(piv)
    return i_seq, j_seq, reductions, pivots
