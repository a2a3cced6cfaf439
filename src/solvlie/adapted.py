"""Ordered complexified bases adapted to the dilation action.

An adapted basis Z_1..Z_n (+ the h part) satisfies, for every k:

  1. the span of Z_1..Z_k is an ideal of the complexified algebra;
  2. if that span is not conjugation-stable, the next vector is the
     conjugate of the current one (conjugate pairs sit adjacent);
  3. steps where the flag is conjugation-stable twice in a row are real;
  4. each Z_j is an eigenvector of every ad(A) modulo the previous flag
     member, with weight of the form lambda*(1 + i*alpha_j).

Constructed bases are exact joint eigenbases ordered along the ascending
central series of n; a user hint overrides the construction and is verified
against the four conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (DiagonalizationError, LieAlgebraSpec, Vector,
                      weight_decomposition)
from .gaussian import GaussianRational, ZERO
from .linalg import Subspace, kernel, rank, rref, solve

GR1 = GaussianRational(1)


class HintInvalidError(ValueError):
    def __init__(self, condition: int, message: str):
        super().__init__(f"adapted-basis condition {condition} fails: {message}")
        self.condition = condition


class ConstructionFailedError(ValueError):
    pass


def _conj_vec(vec: Sequence[GaussianRational]) -> Vector:
    return tuple(x.conjugate() for x in vec)


def _is_real_vec(vec) -> bool:
    return all(x.is_real() for x in vec)


@dataclass(frozen=True)
class ModeData:
    """An adapted basis in one arithmetic mode, 0-based throughout.

    ``vectors`` are the Z_j over the real basis of g. ``brackets`` lists
    (p, q, terms) for each p < q with [Z_p, Z_q] != 0, ordered by q, where
    terms are the nonzero (m, c) of the bracket over the real basis.
    ``h_weights[i][p - n]`` is gamma_{i+1}(Z_p) for the h-part vectors Z_p,
    p >= n, and each n-part index i.
    """
    vectors: Tuple[Tuple, ...]
    brackets: Tuple[Tuple[int, int, Tuple[Tuple[int, object], ...]], ...]
    h_weights: Tuple[Tuple, ...]


class AdaptableBasis:
    """An adapted basis for g; the h part defaults to the given h basis.

    ``nvecs`` are Gaussian-rational coordinate vectors over the real basis
    of g (support inside n); ``hvecs`` are real vectors supported in h.
    Verification of the flag conditions happens at construction.
    """

    def __init__(self, spec: LieAlgebraSpec, nvecs: Sequence[Vector],
                 hvecs: Optional[Sequence[Vector]] = None):
        self.spec = spec
        if hvecs is None:
            hvecs = [spec.basis_vector(spec.n_dim + t) for t in range(spec.h_dim)]
        self.nvecs = [tuple(v) for v in nvecs]
        self.hvecs = [tuple(v) for v in hvecs]
        self.vectors = self.nvecs + self.hvecs
        if len(self.nvecs) != spec.n_dim or len(self.hvecs) != spec.h_dim:
            raise HintInvalidError(1, "wrong number of basis vectors")
        if any(any(not v[m].is_zero() for m in range(spec.n_dim, spec.dim))
               for v in self.nvecs):
            raise HintInvalidError(1, "n-part vectors must be supported in n")
        if any(any(not v[m].is_zero() for m in range(spec.n_dim))
               or not _is_real_vec(v) for v in self.hvecs):
            raise HintInvalidError(1, "h-part vectors must be real and supported in h")
        if rank([list(v) for v in self.vectors]) != spec.dim:
            raise HintInvalidError(1, "vectors are not a basis")

        self._flags: List[Subspace] = [Subspace([], spec.dim)]
        for v in self.vectors:
            self._flags.append(Subspace(self._flags[-1].rows + [list(v)], spec.dim))

        self._verify_flag_conditions()
        self._compute_pairing()
        self._compute_weights()
        self._modes: Dict[Optional[float], ModeData] = {}

    # -- structure -------------------------------------------------------

    @property
    def n(self) -> int:
        return self.spec.n_dim

    @property
    def r(self) -> int:
        return self.spec.h_dim

    @property
    def dim(self) -> int:
        return self.spec.dim

    def vector(self, j: int) -> Vector:
        """The j-th basis vector, 1-based."""
        return self.vectors[j - 1]

    def flag(self, j: int) -> Subspace:
        """Span of the first j vectors, j in 0..dim."""
        return self._flags[j]

    def mode(self, tol: Optional[float]) -> ModeData:
        """The basis in the arithmetic mode of tol, built once per mode.

        Exact mode (tol None) hands out the vectors held here and exact
        tables; float mode hands out complex copies of all three.
        """
        data = self._modes.get(tol)
        if data is None:
            if tol is None:
                spec, vecs, nd = self.spec, self.vectors, self.n
                brackets = []
                for q in range(self.dim):
                    for p in range(q):
                        terms = tuple((m, c) for m, c in
                                      enumerate(spec.bracket(vecs[p], vecs[q])) if c)
                        if terms:
                            brackets.append((p, q, terms))
                # gamma_i(Z_p) = sum_t Z_p[n + t] gamma_i(A_t)
                h_weights = tuple(
                    tuple(sum((z[nd + t] * w for t, w in enumerate(ws)), ZERO)
                          for z in vecs[nd:])
                    for ws in self.weights[:nd])
                data = ModeData(tuple(vecs), tuple(brackets), h_weights)
            else:
                exact = self.mode(None)
                data = ModeData(
                    tuple(tuple(complex(x) for x in v) for v in exact.vectors),
                    tuple((p, q, tuple((m, complex(c)) for m, c in terms))
                          for p, q, terms in exact.brackets),
                    tuple(tuple(complex(w) for w in row) for row in exact.h_weights))
            self._modes[tol] = data
        return data

    def ambient(self, ambient: str) -> Tuple[int, Subspace]:
        if ambient == "n":
            return self.n, self._flags[self.n]
        if ambient == "g":
            return self.dim, self._flags[self.dim]
        raise ValueError(f"ambient must be 'n' or 'g', got {ambient!r}")

    def self_conjugate_steps(self) -> Tuple[int, ...]:
        """1-based flag indices j (plus 0) with conj-stable span, over all of g."""
        out = [0]
        reach = 0   # the largest sigma(p) over p <= j
        for j in range(1, self.dim + 1):
            reach = max(reach, self.sigma[j])
            if reach <= j:
                out.append(j)
        return tuple(out)

    # -- verification ------------------------------------------------------

    def _verify_flag_conditions(self):
        spec = self.spec
        conj_stable = [True]  # index 0: zero space
        for j in range(1, self.dim + 1):
            flag = self._flags[j]
            conj_rows = [list(_conj_vec(r)) for r in flag.rows]
            conj_stable.append(flag.contains(Subspace(conj_rows, spec.dim)))
        self._conj_stable = conj_stable

        for j in range(1, self.dim + 1):
            # condition 1: ideal
            flag = self._flags[j]
            for m in range(spec.dim):
                img = spec.bracket(spec.basis_vector(m), self.vectors[j - 1])
                if not flag.contains_vector(img):
                    raise HintInvalidError(
                        1, f"span of the first {j} vectors is not an ideal")
            # condition 2: conjugate adjacency
            if not conj_stable[j]:
                if j == self.dim:
                    raise HintInvalidError(2, "the full span must be conj-stable")
                nxt = self.vectors[j]
                if any(a != b for a, b in zip(_conj_vec(self.vectors[j - 1]), nxt)):
                    raise HintInvalidError(
                        2, f"vector {j + 1} must be the conjugate of vector {j}")
            # condition 3: double-stable steps are real
            if conj_stable[j] and conj_stable[j - 1]:
                if not _is_real_vec(self.vectors[j - 1]):
                    raise HintInvalidError(3, f"vector {j} must be real")

    def _compute_pairing(self):
        sigma = [0] * (self.dim + 1)  # 1-based
        for j in range(1, self.dim + 1):
            if not self._conj_stable[j]:
                sigma[j] = j + 1
            elif not self._conj_stable[j - 1]:
                sigma[j] = j - 1
            else:
                sigma[j] = j
        self.sigma = tuple(sigma)
        for j in range(1, self.dim + 1):
            target = self.vectors[self.sigma[j] - 1]
            if any(a != b for a, b in zip(_conj_vec(self.vectors[j - 1]), target)):
                raise HintInvalidError(2, f"conjugate of vector {j} is not "
                                          f"vector {self.sigma[j]}")

    def _compute_weights(self):
        """Extract gamma_j(A_t) from [A_t, Z_j] = gamma Z_j mod previous flag."""
        spec = self.spec
        weights: List[Tuple[GaussianRational, ...]] = []
        self.diagonal_exact = True
        for j in range(1, self.dim + 1):
            zj = self.vectors[j - 1]
            row: List[GaussianRational] = []
            for t in range(spec.h_dim):
                a_vec = spec.basis_vector(spec.n_dim + t)
                img = spec.bracket(a_vec, zj)
                # solve img = sum_{p<=j} c_p Z_p; weight is c_j
                cols = [[self.vectors[p][m] for p in range(j)]
                        for m in range(spec.dim)]
                coeffs = solve(cols, list(img))
                if coeffs is None:
                    raise HintInvalidError(
                        4, f"[{spec.h_names[t]}, Z_{j}] does not lie in the flag")
                gamma = coeffs[j - 1]
                row.append(GaussianRational.coerce(gamma))
                rest = [img[m] - gamma * zj[m] for m in range(spec.dim)]
                if any(not x.is_zero() for x in rest):
                    self.diagonal_exact = False
            weights.append(tuple(row))
        self.weights = weights

        # factorization Im(gamma_j) = alpha_j * Re(gamma_j), per root
        alphas: List[Optional[Fraction]] = []
        for j in range(1, self.dim + 1):
            row = weights[j - 1]
            re_part = [w.re for w in row]
            im_part = [w.im for w in row]
            if all(x == 0 for x in re_part):
                if any(x != 0 for x in im_part):
                    raise HintInvalidError(
                        4, f"weight of vector {j} is purely imaginary")
                alphas.append(None)
                continue
            t0 = next(i for i, x in enumerate(re_part) if x != 0)
            alpha = im_part[t0] / re_part[t0]
            if any(im != alpha * re for re, im in zip(re_part, im_part)):
                raise HintInvalidError(
                    4, f"weight of vector {j} is not of the form "
                       "lambda*(1+i*alpha)")
            alphas.append(alpha)
        self.alpha = alphas

    def with_h_part(self, hvecs: Sequence[Vector]) -> "AdaptableBasis":
        return AdaptableBasis(self.spec, self.nvecs, hvecs)

    def describe(self) -> List[str]:
        """Human-readable expansion of each basis vector."""
        out = []
        for v in self.vectors:
            terms = []
            for m, c in enumerate(v):
                if c.is_zero():
                    continue
                cs = str(c)
                name = self.spec.names[m]
                terms.append(name if cs == "1" else f"({cs}) {name}")
            out.append(" + ".join(terms) if terms else "0")
        return out


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _weight_key(ws_weights: Tuple[GaussianRational, ...]):
    return tuple((w.re, w.im) for w in ws_weights)


def _real_rows(rows: List[List[GaussianRational]]) -> List[List[GaussianRational]]:
    """Real points of a conj-stable span, as rational rows."""
    cand = []
    for r in rows:
        cand.append([GaussianRational(x.re) for x in r])
        cand.append([GaussianRational(x.im) for x in r])
    red, _ = rref(cand)
    return red


def build_adaptable_basis(spec: LieAlgebraSpec,
                          hint: Optional[Sequence[Vector]] = None) -> AdaptableBasis:
    """Construct (or verify, when a hint is given) an adapted basis.

    The construction orders exact joint eigenvectors of the dilation action
    along the ascending central series of n, conjugate pairs adjacent, real
    vectors on conj-stable steps. A hint replaces the construction entirely
    and is only verified.
    """
    if hint is not None:
        nvecs = []
        for v in hint:
            if len(v) == spec.n_dim:
                v = tuple(v) + tuple([ZERO] * spec.h_dim)
            nvecs.append(tuple(GaussianRational.coerce(c) for c in v))
        return AdaptableBasis(spec, nvecs)

    try:
        spaces = weight_decomposition(spec)
    except DiagonalizationError as exc:
        raise ConstructionFailedError(
            f"CONSTRUCTION_FAILED: {exc}; supply an adaptable hint") from exc

    nd = spec.n_dim
    # ascending central series of n: v in the next level iff [n, v] is in
    # the previous one, expressed through the previous level's annihilator
    levels = []
    prev = Subspace([], spec.dim)
    while prev.dim < nd:
        ann = _annihilator_rows(prev, spec.dim)
        cond_rows = []
        for i in range(nd):
            for a in ann:
                row = []
                for p in range(nd):
                    img = spec.bracket_basis(i, p)
                    row.append(sum((a[m] * img[m] for m in range(spec.dim)), ZERO))
                cond_rows.append(row)
        null = kernel(cond_rows, nd)
        rows = [list(v) + [ZERO] * spec.h_dim for v in null]
        level = Subspace(rows, spec.dim)
        if level.dim <= prev.dim:
            raise ConstructionFailedError(
                "CONSTRUCTION_FAILED: central series stalls (n not nilpotent?)")
        levels.append(level)
        prev = level

    # order weight spaces deterministically; conjugate partners grouped
    indexed = sorted(range(len(spaces)), key=lambda i: _weight_key(spaces[i].weights))
    conj_of = {}
    for i in indexed:
        wconj = tuple(w.conjugate() for w in spaces[i].weights)
        for k in indexed:
            if spaces[k].weights == wconj:
                conj_of[i] = k
                break

    placed: List[Vector] = []
    placed_span = Subspace([], spec.dim)
    for level in levels:
        for i in indexed:
            ws = spaces[i]
            partner = conj_of.get(i)
            if partner is None:
                raise ConstructionFailedError(
                    "CONSTRUCTION_FAILED: weight spaces not closed under conjugation")
            if partner != i and _weight_key(spaces[partner].weights) < _weight_key(ws.weights):
                continue  # handled together with the partner
            full_rows = [list(r) + [ZERO] * spec.h_dim for r in ws.rows]
            inter = Subspace(full_rows, spec.dim).intersect(level)
            rows = _real_rows(inter.rows) if partner == i else inter.rows
            for row in rows:
                if placed_span.contains_vector(row):
                    continue
                vec = tuple(row)
                placed.append(vec)
                placed_span = Subspace(placed_span.rows + [list(vec)], spec.dim)
                if partner != i:
                    cv = _conj_vec(vec)
                    placed.append(cv)
                    placed_span = Subspace(placed_span.rows + [list(cv)], spec.dim)
    if len(placed) != nd:
        raise ConstructionFailedError(
            f"CONSTRUCTION_FAILED: placed {len(placed)} of {nd} vectors")
    return AdaptableBasis(spec, placed)


def _annihilator_rows(sub: Subspace, dim: int) -> List[List[GaussianRational]]:
    if not sub.rows:
        return [[GR1 if i == j else ZERO for j in range(dim)] for i in range(dim)]
    return kernel(sub.rows, dim)
