"""Lie algebra structure data for g = n x| h, with validation.

The input is a finite table of structure constants over an ordered real
basis: nilpotent part labels first, then the abelian dilation part. All
coefficients are exact rationals; bracket values always live in n.

Spec file format (JSON):

    {
      "name": "...",
      "n_basis": ["Z", "Y", "X"],
      "h_basis": ["A", "B"],
      "brackets": [
        {"x": "X", "y": "Y", "value": [{"c": "1", "b": "Z"}]},
        {"x": "A", "y": "X", "value": [{"c": "1/2", "b": "X"}]}
      ],
      "adaptable_hint": [
        {"label": "Z1", "value": [{"c": "1", "b": "Z"}]}
      ]
    }

Rational coefficients are strings "p/q"; hint coefficients may be Gaussian
rationals "p/q+r/s i" (ASCII minus). Omitted brackets are zero and the
antisymmetric completion is automatic.

A spec holds its structure constants once, as ``LieAlgebraSpec.brackets``:
(i, j) maps to the nonzero (m, C_ij^m) of [e_i, e_j], by increasing m, for
both orders of every nonzero bracket, so every consumer reads C_ij^m and
C_ji^m = -C_ij^m off the same table.

The ascending central series of n and the weight spaces are built once per
spec, shared by validation and the adapted-basis construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .gaussian import (GaussianRational, ONE, ZERO, _FIELDS, _made, _reduced,
                       parse_gaussian)
from .linalg import (extend_echelon, invert, is_zero, reduce_row, rref,
                     rref_kernel)

Vector = Tuple[GaussianRational, ...]


class SpecFormatError(ValueError):
    """Raised when a spec file does not conform to the input format."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class HypothesisViolation(ValueError):
    """The algebra falls outside the standing hypotheses of the pipeline."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.detail = message


class LieAlgebraSpec:
    """Structure constants of g = n x| h over a named real basis.

    ``brackets`` is the read-only table of the constants: (i, j) maps to
    ((m, C_ij^m), ...), the nonzero coordinates of [e_i, e_j] over n as
    GaussianRationals by increasing m, under both (i, j) and (j, i) for
    every nonzero bracket. A zero bracket, and every (i, i), has no key.
    The constructor reads each bracket as a {label: c} combo, each c a
    real rational (an int, a Fraction or a real GaussianRational).
    """

    def __init__(self, name: str, n_names: Sequence[str], h_names: Sequence[str],
                 brackets: Dict[Tuple[str, str], Dict[str, object]],
                 adaptable_hint: Optional[List[Vector]] = None):
        self.name = name
        self.n_names = tuple(n_names)
        self.h_names = tuple(h_names)
        names = self.n_names + self.h_names
        if len(set(names)) != len(names):
            raise SpecFormatError("basis labels are not unique")
        self.names = names
        self._index = {lab: i for i, lab in enumerate(names)}
        self.adaptable_hint = adaptable_hint
        self.antisymmetry_conflicts: List[Tuple[str, str]] = []
        self.h_bracket_entries: List[Tuple[str, str]] = []

        # the one table of structure constants, read-only as ``brackets``
        table: Dict[Tuple[int, int], tuple] = {}
        self._computed: Dict[str, object] = {}
        ndim = len(self.n_names)
        for (x, y), combo in brackets.items():
            for lab in (x, y):
                if lab not in self._index:
                    raise SpecFormatError(f"unknown basis label {lab!r}")
            coords: Dict[int, object] = {}
            for blab, c in combo.items():
                m = self._index.get(blab)
                if m is None or m >= ndim:
                    raise SpecFormatError(
                        f"bracket value label {blab!r} is not in the nilpotent basis")
                coords[m] = coords[m] + c if m in coords else c
            if not any(coords.values()):
                continue
            i, j = self._index[x], self._index[y]
            if i >= ndim and j >= ndim:
                self.h_bracket_entries.append((x, y))
                continue
            if i == j:
                self.antisymmetry_conflicts.append((x, y))
                continue
            entry = tuple((m, GaussianRational.coerce(c))
                          for m, c in sorted(coords.items()) if c)
            if (i, j) in table:     # [y, x] came first
                if table[(i, j)] != entry:
                    self.antisymmetry_conflicts.append((x, y))
                continue
            table[(i, j)] = entry
            table[(j, i)] = tuple((m, -c) for m, c in entry)
        self.brackets: Mapping[Tuple[int, int], tuple] = MappingProxyType(table)

    # -- dimensions -----------------------------------------------------

    @property
    def n_dim(self) -> int:
        return len(self.n_names)

    @property
    def h_dim(self) -> int:
        return len(self.h_names)

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, label: str) -> int:
        return self._index[label]

    # -- brackets --------------------------------------------------------

    def bracket_sparse(self, i: int, j: int):
        """[e_i, e_j] as a tuple of (coordinate index, coefficient)."""
        return self.brackets.get((i, j), ())

    def bracket(self, u: Sequence, v: Sequence) -> list:
        """Bilinear extension of the bracket to coordinate vectors.

        Exact on GaussianRational coordinates; a term with a complex
        coordinate is complex, as GaussianRational arithmetic with a
        complex number falls through to complex.
        """
        out = [ZERO] * self.dim
        v_nonzero = [(j, vj) for j, vj in enumerate(v) if not is_zero(vj)]
        for i, ui in enumerate(u):
            if is_zero(ui):
                continue
            for j, vj in v_nonzero:
                if i == j:
                    continue
                sparse = self.bracket_sparse(i, j)
                if not sparse:
                    continue
                c = ui * vj
                for m, bm in sparse:
                    out[m] = out[m] + c * bm
        return out

    def basis_vector(self, label_or_index) -> Vector:
        i = label_or_index if isinstance(label_or_index, int) else self._index[label_or_index]
        return tuple(GaussianRational(1) if m == i else ZERO for m in range(self.dim))

    def vector_from_labels(self, combo: Dict[str, Fraction]) -> Vector:
        out = [ZERO] * self.dim
        for lab, c in combo.items():
            out[self._index[lab]] = out[self._index[lab]] + GaussianRational(c)
        return tuple(out)

    def _once(self, key: str, compute, errors=()):
        """compute(self), on first use only; an exception of type ``errors``
        is kept and raised again on every call."""
        if key not in self._computed:
            try:
                self._computed[key] = compute(self)
            except errors as exc:
                self._computed[key] = exc
        out = self._computed[key]
        if isinstance(out, Exception):
            raise out
        return out

    def central_series(self) -> List[List[Dict[int, GaussianRational]]]:
        """The ascending central series of n as sparse rows, one basis per
        level (which may raise NOT_NILPOTENT)."""
        return self._once("central_series", central_series, HypothesisViolation)

    def weight_spaces(self) -> List["WeightSpace"]:
        """The joint weight decomposition of n_C (may raise DiagonalizationError)."""
        return self._once("weight_spaces", weight_decomposition,
                          DiagonalizationError)

    def eigenbasis(self) -> "EigenBasis":
        """The joint eigenbasis of the weight spaces and the inverse of its n
        block, the one inversion the basis construction and the flow read."""
        return self._once("eigenbasis", eigenbasis)

    def ad_traces(self) -> Tuple[Fraction, ...]:
        """tr(ad e_p) for each basis element, in basis order."""
        return self._once("ad_traces", ad_traces)

    def n_is_commutative(self) -> bool:
        nd = self.n_dim
        return all(not (i < nd and j < nd) for (i, j) in self.brackets)


# ---------------------------------------------------------------------------
# traces of ad
# ---------------------------------------------------------------------------

def ad_traces(spec: LieAlgebraSpec) -> Tuple[Fraction, ...]:
    """tr(ad e_i) = sum_j C_ij^j for every basis element, in one pass over
    ``spec.brackets``: the e_j-coordinate of [e_i, e_j] is the diagonal
    entry j of ad e_i, and no other constant reaches a diagonal."""
    traces = [Fraction(0)] * spec.dim
    for (i, j), entry in spec.brackets.items():
        for m, c in entry:
            if m == j:
                traces[i] += c.re
    return tuple(traces)


def trace_ad(spec: LieAlgebraSpec, w) -> Fraction:
    """tr(ad w) = sum_p w_p tr(ad e_p), read off ``spec.ad_traces()`` (the
    trace is linear in w). ``w`` is a coordinate vector, a label or a label
    dict, and ad w must be real: when w has a non-real coordinate, ad of
    its imaginary part must vanish, and then that part adds no trace."""
    if isinstance(w, str):
        w = spec.basis_vector(w)
    elif isinstance(w, dict):
        w = spec.vector_from_labels(w)
    w = [GaussianRational.coerce(x) for x in w]
    if not all(x.is_real() for x in w):
        im = [GaussianRational(x.im) for x in w]
        if any(any(spec.bracket(im, spec.basis_vector(m))) for m in range(spec.dim)):
            raise ValueError("ad matrix of a real element must be real")
    return sum((x.re * t for x, t in zip(w, spec.ad_traces())), Fraction(0))


# ---------------------------------------------------------------------------
# joint weight decomposition of the h-action on n_C
# ---------------------------------------------------------------------------

@dataclass
class WeightSpace:
    weights: Tuple[GaussianRational, ...]  # value on each h basis element
    rows: List[List[GaussianRational]]     # basis of the space, coords over n

    @property
    def dim(self) -> int:
        return len(self.rows)


class DiagonalizationError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _combine(terms) -> Dict[int, GaussianRational]:
    """sum of x * v over (x, v) in terms, each v given by its (index,
    value) pairs, as the sparse row of its nonzero entries."""
    out: Dict[int, GaussianRational] = {}
    for x, vec in terms:
        if x:
            for r, a in vec:
                if a:
                    out[r] = out[r] + a * x if r in out else a * x
    return {r: a for r, a in out.items() if a}


def _restricted(images, rows) -> List[Dict[int, GaussianRational]]:
    """The matrix R of an operator on the span of the sparse RREF ``rows``,
    as sparse rows, given the sparse images of the rows, image_i = sum_j
    R[i][j] rows[j]. Row j is 1 at its pivot and the only row nonzero
    there, so R[i][j] is image i at that pivot."""
    at = {min(row): j for j, row in enumerate(rows)}
    return [{at[c]: x for c, x in img.items() if c in at} for img in images]


def _diagonal(mat) -> Optional[List[GaussianRational]]:
    """The diagonal of the sparse square mat when every entry off it is
    zero, else None."""
    if any(row.keys() - {i} for i, row in enumerate(mat)):
        return None
    return [row.get(i, ZERO) for i, row in enumerate(mat)]


def _krylov_polynomial(mat, u) -> Tuple[List[GaussianRational], list]:
    """The monic minimal polynomial m_u of the sparse row vector u under
    x -> x mat, coefficients from the constant term up, and the Krylov
    vectors u, u mat, ..., u mat^(d-1) it was read from, d = deg m_u, as
    {column: value} rows. The Krylov vectors extend a sparse echelon in
    turn, the k-th carrying one more entry, 1 at column size + k, so that
    its remainder carries its combination of Krylov vectors in those
    columns. The first whose remainder has no column below size stops the
    sequence: its combination, with coefficient 1 on itself, is m_u.
    """
    size = len(mat)
    rows: list = []
    pivots: List[int] = []
    vectors: list = []
    for k in range(size + 1):
        rem = extend_echelon(rows, pivots, {**u, size + k: ONE})
        if min(rem) >= size:
            return [rem.get(size + i, ZERO) for i in range(k + 1)], vectors
        vectors.append(u)
        u = {j: sum((x * mat[i][j] for i, x in u.items() if x), ZERO)
             for j in range(size)}


def _horner(poly, x):
    val = ZERO
    for a in reversed(poly):
        val = val * x + a
    return val


def _poly_rem(f, g) -> list:
    """The remainder of f by g over Q(i), coefficients from the constant
    term up, g with a nonzero leading coefficient; [] is zero."""
    f = list(f)
    while len(f) >= len(g):
        q = f.pop() / g[-1]
        shift = len(f) - len(g) + 1
        for k, b in enumerate(g[:-1], shift):
            f[k] = f[k] - q * b
        while f and not f[-1]:
            f.pop()
    return f


def _poly_gcd(f, g) -> list:
    """The monic gcd over Q(i) of the polynomials f != 0 and g, coefficients
    from the constant term up, by Euclid's algorithm."""
    while g:
        f, g = g, _poly_rem(f, g)
    return [a / f[-1] for a in f]


def _eval_mod(f, x, q):
    """f(x) mod q as a pair (re, im), for f in Z[i][x] given by the pairs
    (re, im) of its coefficients from the constant term up, and x a pair."""
    a, b = x
    vr = vi = 0
    for cr, ci in reversed(f):
        vr, vi = (vr * a - vi * b + cr) % q, (vr * b + vi * a + ci) % q
    return vr, vi


def _gaussian_roots(poly) -> List[GaussianRational]:
    """The distinct roots in Q(i) of a monic polynomial over Q(i),
    coefficients from the constant term up, by (Re ascending, Im
    descending); none when it has a repeated root.

    Scaled by L, the lcm of its denominators, poly is f in Z[i][x] with
    leading coefficient L, and Z[i] is integrally closed, so every root in
    Q(i) is w/L with w in Z[i], and |w| < L + max |f_k| (Cauchy's bound).
    For a prime p = 3 (mod 4), Z[i]/p is the field with p^2 elements. The
    first such p not dividing L at which every root of f mod p is simple
    (f squarefree, so only the primes of its discriminant fail) is taken,
    the roots mod p are found by exhaustion, and each is lifted by Newton
    steps mod p^(2^k) to x mod q with q > 2 (L + max |f_k|). Every root
    w/L reduces to one of them, so w is the symmetric residue of L x, and
    w/L is kept when it is a root exactly (p-adic lifting; Loos, SIAM J.
    Comput. 12, 1983).
    """
    if len(poly) == 2:
        return [-poly[0]]
    if len(_poly_gcd(poly, [k * a for k, a in enumerate(poly)][1:])) > 1:
        return []
    fields = [_FIELDS(a) for a in poly]
    lead = math.lcm(*(d for _, _, d in fields))
    f = [(n * (lead // d), m * (lead // d)) for n, m, d in fields]
    df = [(k * n, k * m) for k, (n, m) in enumerate(f)][1:]
    bound = 2 * (lead + max(abs(n) + abs(m) for n, m in f[:-1]))
    p = 3
    while True:
        if lead % p:
            mod_roots = [(a, b) for a in range(p) for b in range(p)
                         if _eval_mod(f, (a, b), p) == (0, 0)]
            if all(_eval_mod(df, x, p) != (0, 0) for x in mod_roots):
                break
        p += 4
        while any(p % k == 0 for k in range(3, math.isqrt(p) + 1, 2)):
            p += 4
    lifted = []
    for x in mod_roots:
        q = p
        while q <= bound:
            q *= q
            (vr, vi), (dr, di) = _eval_mod(f, x, q), _eval_mod(df, x, q)
            # x - f(x)/f'(x), dividing by f'(x) as conj(f'(x)) / |f'(x)|^2
            s = pow(dr * dr + di * di, -1, q)
            x = ((x[0] - (vr * dr + vi * di) * s) % q,
                 (x[1] - (vi * dr - vr * di) * s) % q)
        lifted.append([c - q if 2 * c > q else c for c in (lead * x[0] % q,
                                                           lead * x[1] % q)])
    lifted.sort(key=lambda w: (w[0], -w[1]))
    return [r for r in (_reduced(a, b, lead) for a, b in lifted)
            if not _horner(poly, r)]


def _eigenspaces(mat) -> List[Tuple[GaussianRational, list]]:
    """The eigenvalues r in Q(i) of the square matrix mat, found exactly,
    each with independent sparse rows x, x mat = r x, that span its
    eigenspace when mat is diagonalizable over Q(i).

    Take the first unit vector u outside the span of the eigenvectors kept
    so far, its Krylov minimal polynomial m_u and the Krylov vectors u
    mat^k, k < d = deg m_u (``_krylov_polynomial``). For each root r of m_u
    in Q(i) (``_gaussian_roots``), q_r = m_u / (x - r) gives q_r(mat) u =
    sum_k q_r,k u mat^k, nonzero as deg q_r < d, and an eigenvector for r
    as (x - r) q_r kills u: the Lagrange idempotents of a diagonalizable
    operator, applied to u (Hoffman and Kunze, Linear Algebra, ch. 6). It
    is kept under r when it extends the span. The search stops when the
    span fills or a start vector adds nothing. m_u with a repeated root
    brings no root: it divides the minimal polynomial of mat, which is then
    not diagonalizable. When mat is diagonalizable over Q(i), u outside the
    span has a component u_r outside the part of the span in the eigenspace
    of r, and q_r(mat) u is a nonzero multiple of u_r, so every start
    vector adds one, and the kept rows fill the space.

    This gives what taking each eigenspace as the kernel of mat - r gave,
    with the span grown by whole eigenspaces:

    - the same roots in the same order. The first unit vector outside the
      eigenvector span is either the kernel route's next start vector, and
      then it brings the same new roots in the same order, or it lies in
      the sum of the known eigenspaces, and then it brings no new root. A
      new root's eigenvector lies outside the span, so it is kept at once;
    - the same rows: the kept rows are independent and each lies in the
      eigenspace of its root, so when they fill the space the rows of r
      span that eigenspace, and RREF rows are unique;
    - the same errors: the span falls short of the space exactly when mat
      has no eigenbasis over Q(i) (a Jordan block, or a weight outside
      Q(i)), as the kernels fell short.

    ``weight_decomposition`` splits a diagonal mat itself, so here mat has
    an entry off its diagonal."""
    size = len(mat)
    found: Dict[GaussianRational, list] = {}
    span: list = []         # echelon rows of the eigenvectors kept so far
    pivots: List[int] = []
    while len(span) < size:
        c = next(c for c in range(size) if reduce_row(span, pivots, {c: ONE}))
        poly, vectors = _krylov_polynomial(mat, {c: ONE})
        before = len(span)
        for r in _gaussian_roots(poly):
            # q_r from its top coefficient down, by synthetic division
            q = accumulate(reversed(poly[1:]), lambda b, a: a + r * b)
            x = _combine(zip(q, (v.items() for v in reversed(vectors))))
            if extend_echelon(span, pivots, x):
                found.setdefault(r, []).append(x)
        if len(span) == before:
            break
    return list(found.items())


def weight_decomposition(spec: LieAlgebraSpec) -> List[WeightSpace]:
    """Split n_C into joint eigenspaces of the commuting operators ad(A).

    For each A_t and each space found so far, the matrix R of ad(A_t) on
    the space is read off the pivots of its RREF rows. When R is diagonal
    the space splits with no elimination: the weight space of a diagonal
    value r is the space's own rows at the entries r, the values in order
    of first appearance. That is what the Krylov route gives on a diagonal
    R: unit vector k is an eigenvector of its entry, and a subset of RREF
    rows is already in RREF. Otherwise the weights and their eigenvectors
    are read off Krylov vectors (``_eigenspaces``): the Q(i) roots of their
    minimal polynomials, found by p-adic lifting (``_gaussian_roots``), and
    for each root r the combination of the Krylov vectors that the
    quotient of the polynomial by x - r gives. Each weight space is the
    RREF over n of the eigenvectors of its root, and the space splits only
    when they fill it.
    Raises DiagonalizationError when no Gaussian-rational eigenbasis exists.
    """
    nd = spec.n_dim
    # (weights, sparse RREF rows) of each space found so far
    spaces: List[tuple] = [((), [{i: ONE} for i in range(nd)])]
    for t in range(spec.h_dim):
        # ad(A_t) on n, exact: column m is [A_t, e_m] as sparse (r, c)
        cols = [spec.bracket_sparse(nd + t, m) for m in range(nd)]
        new_spaces: List[tuple] = []
        for weights, rows in spaces:
            # restriction of ad(A_t) to the space, invariant since the
            # ad(A)'s commute
            images = [_combine((x, cols[c]) for c, x in row.items())
                      for row in rows]
            restricted = _restricted(images, rows)
            diagonal = _diagonal(restricted)
            if diagonal is not None:
                for cand in dict.fromkeys(diagonal):
                    new_spaces.append((weights + (cand,), [
                        row for row, d in zip(rows, diagonal) if d == cand]))
                continue

            size = len(rows)
            mat = [[r.get(j, ZERO) for j in range(size)] for r in restricted]
            found = _eigenspaces(mat)
            if sum(len(vectors) for _, vectors in found) != size:
                raise DiagonalizationError(
                    "EIGEN_NOT_GAUSSIAN_RATIONAL",
                    f"ad({spec.h_names[t]}) has no Gaussian-rational eigenbasis "
                    f"on a {size}-dimensional invariant subspace")
            new_spaces += [(weights + (cand,), rref([
                _combine((x, rows[i].items()) for i, x in v.items())
                for v in vectors])[0]) for cand, vectors in found]
        spaces = new_spaces
    return [WeightSpace(weights, [[r.get(c, ZERO) for c in range(nd)] for r in rows])
            for weights, rows in spaces]


@dataclass(frozen=True)
class EigenBasis:
    """The rows of all weight spaces, in order, for the dilation flow.

    ``rows`` are the eigenvectors over n padded to full width, ``weights``
    gives gamma(A_t) for each t per row. ``exact_inverse[m]`` lists the
    nonzero (k, x) of row m of the inverse of the square matrix of the rows
    over n, so a vector v of n_C is sum_k (sum_m v_m x) rows[k]; the
    adapted-basis construction splits by weight through it. The flow alone
    reads the float views, built on first use: ``inverse`` is the same
    inverse, dense and complex, which maps eigen coordinates y back to real
    coordinates by x = inverse y, and ``float_terms[i]`` lists the nonzero
    (m, complex(c)) of row i, from which the flow reads the eigen
    coordinates of a float point.
    """
    rows: Tuple[Tuple[GaussianRational, ...], ...]
    weights: Tuple[Tuple[GaussianRational, ...], ...]
    exact_inverse: Tuple[Tuple[Tuple[int, GaussianRational], ...], ...]

    @cached_property
    def float_terms(self) -> Tuple[Tuple[Tuple[int, complex], ...], ...]:
        return tuple(tuple((m, complex(c)) for m, c in enumerate(r) if c)
                     for r in self.rows)

    @cached_property
    def inverse(self) -> Tuple[Tuple[complex, ...], ...]:
        size = len(self.exact_inverse)
        return tuple(tuple(complex(dict(row).get(k, ZERO)) for k in range(size))
                     for row in self.exact_inverse)


def eigenbasis(spec: LieAlgebraSpec) -> EigenBasis:
    """Collect the rows of ``spec.weight_spaces()`` (which may raise) and
    invert their n block exactly. Rows of distinct joint eigenvalues are
    independent and the weight spaces fill n, so the block is invertible."""
    nd = spec.n_dim
    pad = (ZERO,) * spec.h_dim
    rows, weights = [], []
    for sp in spec.weight_spaces():
        for r in sp.rows:
            rows.append(tuple(r) + pad)
            weights.append(sp.weights)
    inverse = invert([r[:nd] for r in rows])
    return EigenBasis(tuple(rows), tuple(weights),
                      tuple(tuple(row.items()) for row in inverse))


def root_factor(weights: Sequence[GaussianRational]):
    """The factorization gamma = lambda (1 + i alpha) of the root gamma with
    the given values on the h basis, i.e. Im gamma = alpha Re gamma as
    functionals on h: (alpha, None), with alpha None for the zero root, or
    (None, why) when there is none, ``why`` being "imaginary" when Re gamma
    = 0 != Im gamma and "partly imaginary" when gamma is purely imaginary on
    part of h only."""
    # w = (n + m i) / d: Re w = 0 iff n = 0, and Im w = alpha Re w with
    # alpha = m0 / n0 iff m n0 = m0 n
    fields = [_FIELDS(w)[:2] for w in weights]
    t0 = next((t for t, (n, _) in enumerate(fields) if n), None)
    if t0 is None:
        return (None, "imaginary") if any(m for _, m in fields) else (None, None)
    n0, m0 = fields[t0]
    if any(m * n0 != m0 * n for n, m in fields):
        return None, "partly imaginary"
    return Fraction(m0, n0), None


def check_exponential_roots(spaces: List[WeightSpace]) -> Optional[str]:
    """Every root must satisfy Im(weight) = alpha * Re(weight) as functionals.

    Equivalently: the root takes no purely imaginary nonzero value anywhere
    on h. Returns an error message, or None when all roots are fine.
    """
    for sp in spaces:
        _, why = root_factor(sp.weights)
        if why == "imaginary":
            return (f"root {tuple(str(w) for w in sp.weights)} is purely "
                    "imaginary and nonzero")
        if why:
            return (f"root {tuple(str(w) for w in sp.weights)} takes a purely "
                    "imaginary value on part of h")
    return None


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    ok: bool
    code: Optional[str] = None
    detail: Optional[str] = None
    witness: Optional[tuple] = None

    def as_dict(self):
        out = {"name": self.name, "ok": self.ok}
        if not self.ok:
            out["code"] = self.code
            out["detail"] = self.detail
            if self.witness is not None:
                out["witness"] = list(self.witness)
        return out


@dataclass
class ValidationReport:
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def codes(self) -> List[str]:
        return [c.code for c in self.checks if not c.ok]

    def as_dict(self):
        return {"ok": self.ok, "checks": [c.as_dict() for c in self.checks]}


def central_series(spec: LieAlgebraSpec) -> List[List[Dict[int, GaussianRational]]]:
    """The ascending central series of n up to n, one basis per level.

    A level L comes back as the kernel basis ``rref_kernel`` gives of any
    system with kernel L: for each f of a set F, the row whose last nonzero
    entry is 1 at f, 0 at the other columns of F, by increasing f. The next
    level is L plus the center of n/L, which has a basis over the columns J
    off F: the v with [e_i, v] in L for every i in J ([L, n] lies in L, and
    e_f for f in F is a vector over J modulo L). So a level costs one
    ``rref`` of the [e_i, e_j] mod L with i, j in J, read off the nonzero
    structure constants and reduced by the rows at the columns of F they
    hold; its kernel over J gives the new rows, whose last columns join F,
    and the old rows shed their entries at those columns. A level that does
    not grow raises NOT_NILPOTENT, naming where the series stops.

    A level shares its unchanged rows with the level before it. Only its
    span counts: the adapted-basis construction splits each level's new
    rows by weight and reduces each weight piece again.
    """
    nd = spec.n_dim
    # the (i, j, [e_i, e_j]) of the nonzero brackets within n
    within = [(i, j, entry) for (i, j), entry in spec.brackets.items()
              if i < nd and j < nd]
    levels: List[List[Dict[int, GaussianRational]]] = []
    held: Dict[int, Dict[int, GaussianRational]] = {}   # f -> its row
    while len(held) < nd:
        cond: Dict[Tuple[int, int], Dict[int, GaussianRational]] = {}
        for i, j, entry in within:
            if i in held or j in held:
                continue
            hit = [m for m, _ in entry if m in held]
            image = reduce_row([held[m] for m in hit], hit, dict(entry)).items() \
                if hit else entry
            for m, c in image:
                cond.setdefault((i, m), {})[j] = c
        new = {max(v): v for v in rref_kernel(*rref(list(cond.values())), nd)
               if max(v) not in held}
        if not new:
            raise HypothesisViolation(
                "NOT_NILPOTENT", f"ascending central series of n stalls at "
                                 f"dimension {len(held)} of {nd}")
        for f, row in held.items():
            hit = [g for g in row if g in new]
            if hit:
                held[f] = reduce_row([new[g] for g in hit], hit, row)
        held.update(new)
        levels.append([held[f] for f in sorted(held)])
    return levels


def _jacobi_witness(spec: LieAlgebraSpec) -> Optional[Tuple[str, ...]]:
    """The names of the first basis triple a < b < c, in
    ``itertools.combinations`` order, whose Jacobi sum
    [[e_a, e_b], e_c] + [[e_b, e_c], e_a] + [[e_c, e_a], e_b] is nonzero,
    or None.

    Only the products C_xy^k C_kz^m that exist are visited: for each
    nonzero bracket (x, y) of ``spec.brackets``, each k of it and each z
    with [e_k, e_z] nonzero. When (x, y, z) is a cyclic order of its sorted
    triple, the product adds to that triple's sum at m; the other orders
    are the same terms with the sign of [e_y, e_x], and are skipped."""
    table = spec.brackets
    # the (z, [e_k, e_z]) of each k
    after: Dict[int, List[tuple]] = {}
    for (k, z), entry in table.items():
        after.setdefault(k, []).append((z, entry))
    sums: Dict[Tuple[int, int, int], Dict[int, GaussianRational]] = {}
    for (x, y), entry in table.items():
        for k, u in entry:
            for z, inner in after.get(k, ()):
                if x < y:
                    if z > y:
                        triple = (x, y, z)
                    elif z < x:
                        triple = (z, x, y)
                    else:
                        continue
                elif y < z < x:
                    triple = (y, z, x)
                else:
                    continue
                total = sums.setdefault(triple, {})
                for m, w in inner:
                    total[m] = total[m] + u * w if m in total else u * w
    first = min((t for t, total in sums.items() if any(total.values())),
                default=None)
    return None if first is None else tuple(spec.names[i] for i in first)


def validate_spec(spec: LieAlgebraSpec) -> ValidationReport:
    """Run the standing-hypothesis checks; failures are itemized with witnesses.

    n is nilpotent iff ``spec.central_series()`` reaches n. For a Lie algebra
    that is the lower central series reaching 0; the two rules may differ
    only where Jacobi fails, which is reported first.
    """
    report = ValidationReport()
    add = report.checks.append

    if spec.antisymmetry_conflicts:
        add(CheckResult("antisymmetry", False, "ANTISYMMETRY_FAIL",
                        f"conflicting entries for {spec.antisymmetry_conflicts}",
                        witness=spec.antisymmetry_conflicts[0]))
    else:
        add(CheckResult("antisymmetry", True))

    if spec.h_bracket_entries:
        add(CheckResult("h_abelian", False, "H_NOT_ABELIAN",
                        f"nonzero bracket on h pairs {spec.h_bracket_entries}",
                        witness=spec.h_bracket_entries[0]))
    else:
        add(CheckResult("h_abelian", True))

    jac_witness = _jacobi_witness(spec)
    if jac_witness:
        add(CheckResult("jacobi", False, "JACOBI_FAIL",
                        f"Jacobi identity fails on {jac_witness}",
                        witness=jac_witness))
    else:
        add(CheckResult("jacobi", True))

    try:
        spec.central_series()
    except HypothesisViolation as exc:
        add(CheckResult("n_nilpotent", False, exc.code, exc.detail))
    else:
        add(CheckResult("n_nilpotent", True))

    # carrying on with eigen-structure only makes sense on a Lie algebra
    if jac_witness is None and not spec.antisymmetry_conflicts:
        try:
            spaces = spec.weight_spaces()
            add(CheckResult("h_diagonalizable", True))
            msg = check_exponential_roots(spaces)
            if msg is None:
                add(CheckResult("exponential_roots", True))
            else:
                add(CheckResult("exponential_roots", False,
                                "PURELY_IMAGINARY_ROOT", msg))
        except DiagonalizationError as exc:
            add(CheckResult("h_diagonalizable", False, exc.code, str(exc)))
    return report


def require_noncommutative(spec: LieAlgebraSpec) -> None:
    if spec.n_is_commutative():
        raise HypothesisViolation(
            "N_COMMUTATIVE", "the nilpotent part must be non-commutative")


# ---------------------------------------------------------------------------
# JSON input format
# ---------------------------------------------------------------------------

def _checked(value, kind, what: str):
    """value, which must be a JSON array (kind list) or string (kind str)."""
    if not isinstance(value, kind):
        raise SpecFormatError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def _labels(value, what: str) -> List[str]:
    return [_checked(x, str, f"{what} entry") for x in _checked(value, list, what)]


def _terms(items, what: str):
    """The (c, b) pairs of a JSON list of {"c": ..., "b": label} terms."""
    for item in _checked(items, list, f"{what}: value"):
        if not isinstance(item, dict) or "c" not in item or "b" not in item:
            raise SpecFormatError(f"{what}: each term needs 'c' and 'b'")
        yield item["c"], _checked(item["b"], str, f"{what}: term label 'b'")


def _rational(c) -> GaussianRational:
    """The rational ``Fraction(str(c))`` reads, as a GaussianRational; an
    integer string (no underscore, which not every Fraction parser takes)
    is read by ``int``, a tenth of the cost."""
    text = str(c)
    if "_" not in text:
        try:
            return _made(int(text), 0, 1)
        except ValueError:
            pass
    return GaussianRational(Fraction(text))


def _parse_combo(items, what: str) -> Dict[str, GaussianRational]:
    combo: Dict[str, GaussianRational] = {}
    for c, b in _terms(items, what):
        try:
            c = _rational(c)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFormatError(f"{what}: bad rational {c!r}: {exc}")
        combo[b] = combo[b] + c if b in combo else c
    return combo


def _parse_gaussian_combo(items, labels, what: str) -> List[GaussianRational]:
    out = [ZERO] * len(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    for c, b in _terms(items, what):
        if b not in index:
            raise SpecFormatError(f"{what}: unknown basis label {b!r}")
        try:
            c = parse_gaussian(str(c))
        except ValueError as exc:
            raise SpecFormatError(f"{what}: {exc}")
        except ZeroDivisionError:
            raise SpecFormatError(
                f"{what}: bad Gaussian rational {c!r}: zero denominator")
        out[index[b]] = out[index[b]] + c
    return out


def spec_from_dict(doc: dict) -> LieAlgebraSpec:
    """The spec of a parsed spec document; SpecFormatError when it does not
    have the documented shape."""
    if not isinstance(doc, dict):
        raise SpecFormatError("spec document must be a JSON object")
    if "n_basis" not in doc:
        raise SpecFormatError("missing required field 'n_basis'")
    n_names = _labels(doc["n_basis"], "n_basis")
    h_names = _labels(doc.get("h_basis", []), "h_basis")
    brackets: Dict[Tuple[str, str], Dict[str, GaussianRational]] = {}
    for ent in _checked(doc.get("brackets", []), list, "brackets"):
        if not isinstance(ent, dict) or "x" not in ent or "y" not in ent:
            raise SpecFormatError("each bracket needs 'x' and 'y'")
        key = (_checked(ent["x"], str, "bracket x"),
               _checked(ent["y"], str, "bracket y"))
        combo = _parse_combo(ent.get("value", []), f"bracket [{key[0]},{key[1]}]")
        if key in brackets:
            raise SpecFormatError(f"duplicate bracket entry for {key}")
        brackets[key] = combo
    hint = None
    if "adaptable_hint" in doc:
        hint = []
        for ent in _checked(doc["adaptable_hint"], list, "adaptable_hint"):
            if not isinstance(ent, dict) or "label" not in ent:
                raise SpecFormatError("each hint entry needs 'label' and 'value'")
            label = _checked(ent["label"], str, "hint label")
            vec = _parse_gaussian_combo(ent.get("value", []), n_names,
                                        f"hint {label}")
            hint.append(tuple(vec))
    return LieAlgebraSpec(_checked(doc.get("name", "unnamed"), str, "name"),
                          n_names, h_names, brackets, adaptable_hint=hint)


def parse_spec_text(text: str) -> LieAlgebraSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(str(exc), line=exc.lineno, column=exc.colno)
    return spec_from_dict(doc)


def load_spec(path) -> LieAlgebraSpec:
    """The spec in a file; SpecFormatError when it is not UTF-8 or not a spec."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SpecFormatError(f"not UTF-8 text: {exc}") from exc
    return parse_spec_text(text)
