"""Ordered complexified bases adapted to the dilation action.

An adapted basis Z_1..Z_n (+ the h part) satisfies, for every k:

  1. the span of Z_1..Z_k is an ideal of the complexified algebra;
  2. if that span is not conjugation-stable, the next vector is the
     conjugate of the current one (conjugate pairs sit adjacent);
  3. steps where the flag is conjugation-stable twice in a row are real;
  4. each Z_j is an eigenvector of every ad(A) modulo the previous flag
     member, with weight of the form lambda*(1 + i*alpha_j).

Constructed bases are exact joint eigenbases ordered along the ascending
central series of n, which ``LieAlgebraSpec.central_series`` builds once
per spec from the sparse structure constants and shares with validation (a
series that stalls fails the construction). Each level is h-invariant, so
only its new rows are split by weight, each once: a new row is expressed
over the joint eigenbasis (through the inverse ``LieAlgebraSpec.eigenbasis``
keeps, one inversion per spec), and its coordinates on each weight space
give its component there, which extends that space's piece of the level,
held in RREF (``linalg.extend_rref``). Only a piece that grew is read: its
rows are placed while they extend the echelon of what was placed from its
weight space (``linalg.extend_echelon``), until the two have the same
dimension. A user hint overrides the construction.

Every basis, built or hinted, is verified through its adapted structure
constants: one inversion of the n block of the basis matrix gives C_pq^k,
the coordinates of [Z_p, Z_q] over the Z_k, as sparse rows, and the
coordinates of [A_t, Z_j] and of conj Z_j. Condition 1 holds iff no bracket
with Z_j has a coordinate beyond j; gamma_j(A_t) is the diagonal
coefficient of [A_t, Z_j]; conj-stability of each flag member reads off the
coordinates of the conjugates. Swapping the h part (``with_h_part``) checks
only the new h vectors, since no n-part result depends on them.

The basis keeps what the verification computed: C as sparse rows
(``structure``), the inverse of the n block (``n_inverse``) and, from the
h-part check, the inverse of the h block (``h_inverse``), plus the rows of
C for the brackets with the h-part vectors (``h_structure``). The orbit
form, the verdict algebra and ``Functional.from_adapted`` read them;
``with_h_part`` rebuilds only ``h_structure`` and the h-block inverse.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (DiagonalizationError, HypothesisViolation,
                      LieAlgebraSpec, Vector, root_factor)
from .gaussian import GaussianRational, ONE, ZERO, _FIELDS, _reduced
from .linalg import extend_echelon, extend_rref, invert


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


def _terms(vec) -> Tuple[Tuple[int, GaussianRational], ...]:
    return tuple((m, c) for m, c in enumerate(vec) if c)


def _conj_terms(terms) -> Tuple[Tuple[int, GaussianRational], ...]:
    return tuple((m, c.conjugate()) for m, c in terms)


def _is_real_terms(terms) -> bool:
    return all(c.is_real() for _, c in terms)


def _inverse_rows(rows: List[List[GaussianRational]]):
    """Sparse rows of the inverse of a square matrix, or None if singular.

    Row m of the result lists the nonzero (k, x) of row m of the inverse,
    which is what ``_coords`` reads.
    """
    inv = invert(rows)
    return None if inv is None else [tuple(row.items()) for row in inv]


def _coords(terms, inv) -> Dict[int, GaussianRational]:
    """The nonzero coordinates k, over the rows whose inverse is inv, of the
    vector whose coordinates over the real basis are the (m, c) of terms,
    each k keyed where the terms first reach it; an m beyond inv, or a
    zero c, adds nothing. A dense vector v is ``enumerate(v)``; a sparse
    row r is ``r.items()``, which need list only its nonzero coordinates."""
    out: Dict[int, GaussianRational] = {}
    size = len(inv)
    for m, c in terms:
        if m < size and c:
            for k, x in inv[m]:
                out[k] = out.get(k, ZERO) + c * x
    return {k: x for k, x in out.items() if x}


def _bracket_terms(table, u, v) -> List[Tuple[int, GaussianRational]]:
    """[u, v] for the vectors with the nonzero (i, a) of u and (j, b) of v
    over the real basis, from the structure constants ``table`` (read as
    ``LieAlgebraSpec.brackets``): its (m, c) by increasing m, a zero sum
    included. That is the order of a dense expansion, so ``_coords`` fills
    each row of C in the same key order."""
    out: Dict[int, GaussianRational] = {}
    for i, a in u:
        for j, b in v:
            entry = table.get((i, j))
            if entry:
                ab = a * b
                for m, c in entry:
                    out[m] = out[m] + ab * c if m in out else ab * c
    return sorted(out.items())


class AdaptableBasis:
    """An adapted basis for g; the h part defaults to the given h basis.

    ``nvecs`` are Gaussian-rational coordinate vectors over the real basis
    of g (support inside n); ``hvecs`` are real vectors supported in h.
    Verification of the flag conditions happens at construction, and keeps
    the adapted structure constants and the block inverses (0-based):

    - ``structure[(p, q)]``, p < q < n, is {k: C_pq^k} for each nonzero
      bracket [Z_p, Z_q] = sum_k C_pq^k Z_k;
    - ``h_structure[(p, q)]``, p < n <= q, is the same for the brackets
      with the h-part vectors (all k < n, as [n, h] lies in n);
    - ``terms[j]`` lists the nonzero (m, c) of Z_{j+1} over the real basis;
    - ``n_inverse[m]`` and ``h_inverse[m]`` list the nonzero (k, x) of row
      m of the inverse of the n block and of the h block of the basis
      matrix (the rows of the blocks are the Z_j).

    ``layer_tables`` memoizes, on first use, the case table of ``strata``
    per (ambient, i_seq, j_seq), its g orbit-form table under
    "orbit_form", its h-weight table under "gamma", its generic path per
    ambient under ("pivots", ambient) and the block inverses on integers
    that ``Functional.from_adapted`` reads under "inverse"; ``with_h_part``
    starts it with the n* case tables of its source alone, which depend on
    the n part only.
    ``n_form`` holds, once built, the n orbit-form table of ``strata``
    (the entries of ``structure``), which depends on the n part alone;
    ``with_h_part`` keeps it.
    """

    def __init__(self, spec: LieAlgebraSpec, nvecs: Sequence[Vector],
                 hvecs: Optional[Sequence[Vector]] = None):
        self.spec = spec
        if hvecs is None:
            hvecs = [spec.basis_vector(spec.n_dim + t) for t in range(spec.h_dim)]
        self.nvecs = [tuple(v) for v in nvecs]
        self.n_form: Optional[tuple] = None
        if len(self.nvecs) != spec.n_dim or len(hvecs) != spec.h_dim:
            raise HintInvalidError(1, "wrong number of basis vectors")
        if any(any(not v[m].is_zero() for m in range(spec.n_dim, spec.dim))
               for v in self.nvecs):
            raise HintInvalidError(1, "n-part vectors must be supported in n")
        self.terms = [_terms(v) for v in self.nvecs]
        self._set_h_part(hvecs)
        self._verify()
        self._set_h_structure()

    def _set_h_part(self, hvecs: Sequence[Vector]):
        """Check and install the h vectors: real, supported in h, a basis of h."""
        nd = self.spec.n_dim
        hvecs = [tuple(v) for v in hvecs]
        if len(hvecs) != self.spec.h_dim:
            raise HintInvalidError(1, "wrong number of basis vectors")
        if any(any(not v[m].is_zero() for m in range(nd))
               or not _is_real_vec(v) for v in hvecs):
            raise HintInvalidError(1, "h-part vectors must be real and supported in h")
        inv = _inverse_rows([list(v[nd:]) for v in hvecs])
        if inv is None:
            raise HintInvalidError(1, "vectors are not a basis")
        self.h_inverse = inv
        self.hvecs = hvecs
        self.vectors = self.nvecs + hvecs
        self.terms = self.terms[:nd] + [_terms(v) for v in hvecs]
        self.layer_tables: Dict[object, tuple] = {}
        self._description: Optional[Tuple[str, ...]] = None

    # -- structure -------------------------------------------------------

    @property
    def n(self) -> int:
        return self.spec.n_dim

    @property
    def dim(self) -> int:
        return self.spec.dim

    def vector(self, j: int) -> Vector:
        """The j-th basis vector, 1-based."""
        return self.vectors[j - 1]

    def coords(self, vec) -> Dict[int, GaussianRational]:
        """The nonzero coordinates {p: x_p} of vec in n_C over Z_{p+1},
        0-based, from the stored inverse of the n block."""
        return _coords(enumerate(vec), self.n_inverse)

    def ambient(self, ambient: str) -> int:
        """Number of leading basis vectors spanning the ambient 'n' or 'g'."""
        if ambient == "n":
            return self.n
        if ambient == "g":
            return self.dim
        raise ValueError(f"ambient must be 'n' or 'g', got {ambient!r}")

    def self_conjugate_steps(self) -> Tuple[int, ...]:
        """1-based flag indices j (plus 0) with conj-stable span, over all of g."""
        return self._conj_steps

    # -- verification ------------------------------------------------------

    def _verify(self):
        """Check conditions 1-4 through the adapted structure constants.

        The basis matrix is block diagonal (n part, h part), so one inversion
        of the n block gives the adapted coordinates of everything in n_C:
        the brackets [Z_p, Z_q] (C), the brackets [A_t, Z_j] with the real
        basis A_t of h, and conj Z_j. Each is built sparse, from the nonzero
        terms of the vectors (``terms``) and ``spec.brackets``, with no
        dense vector. Condition 1 at j holds iff no such bracket with Z_j
        has a coordinate beyond j: the brackets with the h-part vectors are
        real combinations of those with the A_t, and for j > n the flag
        contains n_C, which holds every bracket. So nothing checked here
        depends on the h-part vectors.
        """
        spec, nd, dim, terms = self.spec, self.n, self.dim, self.terms
        table = spec.brackets
        inv = _inverse_rows([list(v[:nd]) for v in self.nvecs])
        if inv is None:
            raise HintInvalidError(1, "vectors are not a basis")

        # C_pq^k for p < q < n as sparse rows; [Z_p, Z_q] leaves the flag at
        # p + 1 (and then also at q + 1) iff it has a coordinate beyond p.
        # Only the pairs whose terms meet a nonzero constant are bracketed,
        # by increasing (q, p)
        self.n_inverse = inv
        self.structure: Dict[Tuple[int, int], Dict[int, GaussianRational]] = {}
        first_bad = dim + 1         # the first j (1-based) failing condition 1
        holders: Dict[int, List[int]] = {}     # m -> the p with a term at m
        for p in range(nd):
            for m, _ in terms[p]:
                holders.setdefault(m, []).append(p)
        pairs = {(q, p) for i, j in table for p in holders.get(i, ())
                 for q in holders.get(j, ()) if p < q}
        for q, p in sorted(pairs):
            row = _coords(_bracket_terms(table, terms[p], terms[q]), inv)
            if not row:
                continue
            self.structure[(p, q)] = row
            if max(row) > p:
                first_bad = min(first_bad, p + 1)
        self._ad_h = ad_h = []      # ad_h[t][j]: coordinates of [A_t, Z_j]
        for t in range(spec.h_dim):
            a = ((nd + t, ONE),)
            ad_h.append([_coords(_bracket_terms(table, a, z), inv)
                         for z in terms[:nd]])
            for j, row in enumerate(ad_h[t]):
                if row and max(row) > j:
                    first_bad = min(first_bad, j + 1)

        # conj(span of the first j) lies in it iff no conj Z_p, p <= j, has
        # a coordinate beyond j; h-part vectors are real
        reach = 0
        conj_stable = [True]
        for j, v in enumerate(terms, start=1):
            if j <= nd and not _is_real_terms(v):
                conj = ((m, c.conjugate()) for m, c in v)
                reach = max(reach, max(_coords(conj, inv)) + 1)
            else:
                reach = max(reach, j)
            conj_stable.append(reach <= j)

        for j in range(1, dim + 1):
            if j == first_bad:
                raise HintInvalidError(
                    1, f"span of the first {j} vectors is not an ideal")
            # condition 2: conjugate adjacency
            if not conj_stable[j]:
                if j == dim:
                    raise HintInvalidError(2, "the full span must be conj-stable")
                if _conj_terms(terms[j - 1]) != terms[j]:
                    raise HintInvalidError(
                        2, f"vector {j + 1} must be the conjugate of vector {j}")
            # condition 3: double-stable steps are real
            if conj_stable[j] and conj_stable[j - 1]:
                if not _is_real_terms(terms[j - 1]):
                    raise HintInvalidError(3, f"vector {j} must be real")

        sigma = [0] * (dim + 1)  # 1-based
        for j in range(1, dim + 1):
            if not conj_stable[j]:
                sigma[j] = j + 1
            elif not conj_stable[j - 1]:
                sigma[j] = j - 1
            else:
                sigma[j] = j
        self.sigma = tuple(sigma)
        self._conj_steps = tuple(j for j, s in enumerate(conj_stable) if s)

        # condition 4: gamma_j(A_t) is the diagonal coefficient of [A_t, Z_j];
        # the h-part vectors have weight 0 ([h, h] = 0)
        self.weights: List[Tuple[GaussianRational, ...]] = [
            tuple(ad_h[t][j].get(j, ZERO) for t in range(spec.h_dim))
            for j in range(nd)] + [(ZERO,) * spec.h_dim] * spec.h_dim

        # factorization Im(gamma_j) = alpha_j * Re(gamma_j), per root
        alphas: List[Optional[Fraction]] = []
        for j in range(1, dim + 1):
            alpha, why = root_factor(self.weights[j - 1])
            if why == "imaginary":
                raise HintInvalidError(
                    4, f"weight of vector {j} is purely imaginary")
            if why:
                raise HintInvalidError(
                    4, f"weight of vector {j} is not of the form "
                       "lambda*(1+i*alpha)")
            alphas.append(alpha)
        self.alpha = alphas

    def _set_h_structure(self):
        """The rows of C for the brackets with the h-part vectors.

        For H = Z_q = sum_t H_t A_t, [Z_p, H] = -sum_t H_t [A_t, Z_p], from
        the coordinates of [A_t, Z_p] that ``_verify`` kept; its diagonal
        coefficient is -gamma_p(H). [h, h] = 0. Each coordinate is summed
        on the integer fields of its terms, the real H_t = a / s times
        (n + m i) / d, with one gcd at the end.
        """
        nd = self.n
        self.h_structure: Dict[Tuple[int, int], Dict[int, GaussianRational]] = {}
        for q, h in enumerate(self.hvecs, start=nd):
            coeffs = [(_FIELDS(ht), ad_t) for ht, ad_t in zip(h[nd:], self._ad_h)]
            for p in range(nd):
                # k -> (n, m, d) of sum_t H_t [A_t, Z_p]_k so far
                acc: Dict[int, Tuple[int, int, int]] = {}
                for (a, _, s), ad_t in coeffs:
                    if not a:       # adds nothing, but keeps the key order
                        for k in ad_t[p]:
                            acc.setdefault(k, (0, 0, 1))
                        continue
                    for k, c in ad_t[p].items():
                        n, m, d = _FIELDS(c)
                        n, m, d = a * n, a * m, s * d
                        prev = acc.get(k)
                        if prev is not None:
                            x, y, e = prev
                            if e == d:
                                n, m = x + n, y + m
                            else:
                                n, m, d = x * d + n * e, y * d + m * e, d * e
                        acc[k] = (n, m, d)
                row = {k: _reduced(-n, -m, d)
                       for k, (n, m, d) in acc.items() if n or m}
                if row:
                    self.h_structure[(p, q)] = row

    def with_h_part(self, hvecs: Sequence[Vector]) -> "AdaptableBasis":
        """The same n part with new h vectors.

        Only the new vectors are checked (real, supported in h, a basis of
        h, which also inverts the h block), and the rows of C for the
        brackets with them rebuilt: the n-part checks, sigma, the weights,
        alpha, ``structure`` and the n-block inverse do not depend on them.
        The n orbit-form table (``n_form``) and the n* case tables built so
        far are kept, so they are built once for both bases; the g* case
        tables and the other tables of ``layer_tables`` are not.
        """
        out = copy.copy(self)
        out._set_h_part(hvecs)
        out._set_h_structure()
        out.layer_tables.update(
            (key, table) for key, table in self.layer_tables.items()
            if isinstance(key, tuple) and key[0] == "n")
        return out

    def describe(self) -> List[str]:
        """Human-readable expansion of each basis vector, built once per
        basis (``_set_h_part`` resets it) and copied out on each call."""
        if self._description is None:
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
            self._description = tuple(out)
        return list(self._description)

# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _weight_key(ws_weights: Tuple[GaussianRational, ...]):
    return tuple((w.re, w.im) for w in ws_weights)


def build_adaptable_basis(spec: LieAlgebraSpec,
                          hint: Optional[Sequence[Vector]] = None) -> AdaptableBasis:
    """Construct (or verify, when a hint is given) an adapted basis.

    The construction orders exact joint eigenvectors of the dilation action
    along the ascending central series of n, conjugate pairs adjacent, real
    vectors on conj-stable steps. A hint replaces the construction entirely
    and is only verified.

    Level k of the series is L_{k-1} plus its new rows, and each L_k is
    h-invariant, so L_k cap W_i is L_{k-1} cap W_i plus the W_i components
    of the new rows (``_weight_splitter``): one RREF per weight space takes
    them in, and only a piece that grew is read again. Its RREF rows are
    placed in order while they extend the echelon of what was placed from
    W_i; that echelon spans L_{k-1} cap W_i, so the rows stop as soon as it
    is as large as the piece.
    """
    if hint is not None:
        nvecs = []
        for v in hint:
            if len(v) == spec.n_dim:
                v = tuple(v) + tuple([ZERO] * spec.h_dim)
            nvecs.append(tuple(GaussianRational.coerce(c) for c in v))
        return AdaptableBasis(spec, nvecs)

    try:
        spaces = spec.weight_spaces()
    except DiagonalizationError as exc:
        raise ConstructionFailedError(
            f"CONSTRUCTION_FAILED: {exc}; supply an adaptable hint") from exc

    try:
        levels = spec.central_series()
    except HypothesisViolation as exc:
        raise ConstructionFailedError(
            "CONSTRUCTION_FAILED: central series stalls (n not nilpotent?)") from exc

    nd = spec.n_dim

    # order weight spaces deterministically; conjugate partners grouped
    keys = [_weight_key(sp.weights) for sp in spaces]
    indexed = sorted(range(len(spaces)), key=keys.__getitem__)
    where = {sp.weights: i for i, sp in enumerate(spaces)}
    conj_of = [where.get(tuple(w.conjugate() for w in sp.weights)) for sp in spaces]
    if levels and None in conj_of:
        raise ConstructionFailedError(
            "CONSTRUCTION_FAILED: weight spaces not closed under conjugation")

    # each placed vector lies in one weight space, and the weight spaces are
    # independent, so a candidate from W_i is in the span of everything
    # placed iff it is in the span of what was placed from W_i: one echelon
    # (rows, pivots) per weight space
    split = _weight_splitter(spec)
    pieces: List[Dict[int, dict]] = [{} for _ in spaces]   # RREF of L_k cap W_i
    spans = [([], []) for _ in spaces]
    placed: List[Vector] = []
    pad = [ZERO] * spec.h_dim
    seen: set = set()           # the last columns of the rows split so far
    for level in levels:
        grown = set()
        for row in level:
            f = max(row)
            if f in seen:
                continue        # a row of an earlier level, or one it became
            seen.add(f)
            for i, comp in split(row):
                if extend_rref(pieces[i], comp):
                    grown.add(i)
        if sum(map(len, pieces)) != len(level):
            raise ConstructionFailedError(
                "CONSTRUCTION_FAILED: a central series level is not "
                "h-invariant (Jacobi fails?)")
        for i in indexed:
            partner = conj_of[i]
            if i not in grown or (partner != i and keys[partner] < keys[i]):
                continue  # nothing new, or handled together with the partner
            # the RREF rows of the piece; a real weight's piece is
            # conj-stable, so its unique RREF rows are real already
            piece = pieces[i]
            rows = [piece[c] for c in sorted(piece)]
            span = spans[i]
            for row in rows:
                if len(span[0]) == len(rows):
                    break
                if not extend_echelon(*span, row):
                    continue
                vec = [ZERO] * nd + pad
                for m, c in row.items():
                    vec[m] = c
                placed.append(tuple(vec))
                if partner != i:
                    placed.append(_conj_vec(vec))
    if len(placed) != nd:
        raise ConstructionFailedError(
            f"CONSTRUCTION_FAILED: placed {len(placed)} of {nd} vectors")
    return AdaptableBasis(spec, placed)


def _weight_splitter(spec: LieAlgebraSpec):
    """Split vectors of h-invariant subspaces of n_C by weight, through the
    inverse of the joint eigenbasis that ``spec.eigenbasis()`` keeps (one
    inversion per spec, shared with the dilation flow).

    The returned function maps a sparse row v to the (i, component of v in
    W_i) of its nonzero components: v is written over the joint
    eigenbasis, and its coordinates on W_i give its component there, which
    lies in any invariant subspace holding v. The components are summed as
    sparse rows over the nonzero entries of the eigenbasis.
    """
    spaces = spec.weight_spaces()
    eig = spec.eigenbasis()
    owner = [i for i, sp in enumerate(spaces) for _ in sp.rows]
    nd = spec.n_dim
    eig_terms = [_terms(row[:nd]) for row in eig.rows]

    def split(row):
        comps: Dict[int, Dict[int, GaussianRational]] = {}
        for k, y in _coords(row.items(), eig.exact_inverse).items():
            comp = comps.setdefault(owner[k], {})
            for m, e in eig_terms[k]:
                comp[m] = comp[m] + y * e if m in comp else y * e
        return comps.items()
    return split
