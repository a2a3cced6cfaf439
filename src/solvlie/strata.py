"""Jump indices, layers and section vectors of the coadjoint form.

For a point l of g* and the flag c_1 < c_2 < ... of an adapted basis, the
jump pairs (i_k, j_k) mark where the flag escapes the successive
annihilators h_0 > h_1 > ... of the form (X, Y) -> l[X, Y]. They come from
one symplectic Gram-Schmidt pass over the skew matrix M = (l[Z_p, Z_q]) in
flag order (Pukanszky's characterization; see Currey, Michigan Math. J. 38,
1991): each step pairs the first vector that still pairs with the first
one it pairs with, and reduces the rest against them. Their union e(l) has
even cardinality and is constant on layers. The same reduction, run exact
on any skew matrix, gives its Pfaffian as the signed product of its
pivots; the Plancherel density |Pf| is read that way. On a fixed layer,
point-dependent vectors V_k, U_k (dual pairs of the form) and combinations
Z_j(l) are produced case by case; they cut out the orbit cross-sections.

M[p][q] = sum_k C_pq^k l(Z_k) is, through the adapted structure constants
and the adapted vectors, an integer linear form in the values of l on the
real basis, over one denominator. These forms are composed once per
ambient (``_form_table``): the n table once per n part, kept by the
``with_h_part`` copies, and the g table once per basis, so a point is
read only through its real coordinates and M is filled once per point
into sparse rows, one pair of entries per nonzero bracket, with no dense
matrix and no adapted values.
At an exact point the rows hold D M, D the table's denominator times the
point's, as Gaussian integers built with no gcd: a plain int for a real
entry, a GaussianRational with denominator 1 for any other (at a float
point D is 1 and the rows hold M). These rows are the one copy of the form
a point keeps (``JumpData.form``, with D as ``JumpData.den``): the jump
reduction runs on a copy of them, every product M y is read off them with
y taken over D (``JumpData.image``), and the Plancherel Pfaffian is read
off the pivots of that reduction (``JumpData.pfaffian``). The section
vectors are computed in coordinates over the adapted vectors, where
Re Z_i = (Z_i + Z_sigma(i)) / 2 and Im Z_i = (Z_i - Z_sigma(i)) / 2i, and
paired through that product.

At an exact point the reduction is fraction-free (``_skew_reduce``): a
step scales the reduced vectors by the pivot entry, y_g <- p y_g -
a_g y_j, instead of dividing by it, so each stored entry is the true
reduced entry times a nonzero factor per vector and one common factor, and
every zero test and pivot choice is that of the division path. The
coefficients a_g / p and the pivots are kept as exact quotients and read
as GaussianRationals only on demand (``JumpData.pfaffian``).
The entries stay bounded because, once a pivot entry grows past 2^64,
they are divided back to the Pfaffian minors of D M, an exact division.

Which case of the section-vector table each pair falls in depends only on
the jump pairs, not on the point. So the case table (conj-stable positions,
primes, case sets, and e) is built once per (ambient, i_seq, j_seq) and
kept, read-only, on the basis (``AdaptableBasis.layer_tables``, which also
keeps the g form table, the h-weight table and the generic path of each
ambient); the points of one layer share it, and only the descriptor
``generic_layer`` returns gets its own copies. An n* case table depends on
the n part alone, so a ``with_h_part`` copy keeps those of its source.

A layer key is (e, j, phi). On a keyed layer, one whose dual pairs stay
real at a real point (every pair in case 0, in case 1 with Z_{j_k} real,
in case 3, or in a case-4/5 block; see ``_case_table``),
``layer_descriptor`` reads the key off the jump reduction alone, in either
ambient: each pairing is -|p|^2, -|p|^4 or -|p|^2/4 there, with p a pivot
of the reduction, and a block's two pairings multiply to
|p_k p_{k+1}|^2 / 16, so none vanishes; phi follows from the reduction's h
coordinates. Every valid corpus entry's generic layer is keyed in both
ambients; only the other layers build section vectors per sampled point.

``generic_layer`` keys each sample from its integer coordinates
(``_sample_key``), with no Functional, JumpData or descriptor per sample.
Once per basis and ambient, ``_pivot_path`` runs ``_skew_reduce`` itself
on the orbit form with polynomial entries over Z[i] in the coordinates
(``_Poly``), and keeps the (e, j) of that generic path, its pivot
polynomials and, on a keyed layer, the h-pair sums that decide phi. A
sample at which no pivot polynomial vanishes takes the path's key, with
phi read from the sums evaluated there. This is the key the reduction at
the sample gives: evaluation is a ring homomorphism, the rows and
columns the symbolic run passes over are the zero polynomial, and the
pivots it takes are nonzero at the sample, so the reduction there makes
every choice the symbolic run made and its vectors differ from the
evaluated ones by nonzero factors. Any other sample takes the fill, the
reduction and the key rule (``_layer_key``); so does every sample of a
layer whose symbolic run passes its budget, ``_TERMS`` terms and degree
``_DEGREE`` in one product (a dense form, whose pivots grow like its
minors). The samples are then described level by level, in the winner
order of their (e, j), until a level counts one: a keyed winner gets one
``layer_descriptor``, and each sample of an unkeyed level up to the
winner's gets its own; no sample of a lower level is described. The key
is read in integers only: phi
(``_reduction_phi``) sums over an integer table of the h weights
(``_gamma_table``, built once per basis and kept in
``basis.layer_tables``). The form table and the ambient size are looked up
once per ``generic_layer`` call, not per sample, and the case table of a
sample's jump pairs holds the sorted e of its key.

The y vectors of the reduction are replayed by one routine,
``_replay``: fraction-free, over sparse coordinates, each replayed vector
kept as s_g y_g with one nonzero scale s_g, and at an exact point divided
by the gcd of the integer parts of s_g and s_g y_g after each update, so
that the integers stay bounded. phi replays the h-steps alone
and reads the scaled vectors; a nonzero scale changes no exact zero test,
and at a float point the test divides each sum by its scale once.
``JumpData.polarization`` replays every step and divides each row of h_d
by its scale once, which gives sparse rows over the adapted vectors.

All decisions are exact over Q(i). The kernels also run at a float point
(one moved by a dilation flow, which the membership oracles may be asked
about): the mode is the point's, and every zero test here uses ``l.tol``,
None for an exact point and ``linalg.FLOAT_TOL`` for a float one. A float
point keeps the division path (``_skew_reduce_float``). No elimination
runs in floats; the polarizing rows, which feed exact subspaces, are
available at exact points only.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import (Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple)

from .adapted import AdaptableBasis
from .functionals import (Functional, NeedsFloatError, _draw_integers,
                          _integer_point)
from .gaussian import GaussianRational, ZERO, _FIELDS, _made
from .linalg import Subspace, zero_test

GR1 = GaussianRational(1)
# the size of a pivot entry past which ``_skew_reduce`` divides its entries
# back to the Pfaffian minors
_LIMIT = 1 << 64
HALF = GaussianRational(Fraction(1, 2))
MINUS_HALF_I = GaussianRational(0, Fraction(-1, 2))
_NUMERATOR = attrgetter("numerator")
_DENOMINATOR = attrgetter("denominator")


class LayerMismatchError(ValueError):
    """A functional is not in the layer a computation assumed (zero pairing)."""


class UnsupportedCaseError(ValueError):
    """Section-vector case outside the supported table."""


class InconsistentSamplingError(ValueError):
    """Random sampling found no stable majority layer."""


class OddDimensionError(ValueError):
    pass


class NotSkewError(ValueError):
    pass


# ---------------------------------------------------------------------------
# jump data
# ---------------------------------------------------------------------------

@dataclass
class JumpData:
    """Jump pairs (i_k, j_k) at a point, and the reduction that found them.

    ``form[p]`` is {q: D M[p][q]} over the nonzero entries of row p of the
    unreduced orbit form M = (l[Z_{p+1}, Z_{q+1}]) at ``point``, by
    increasing q, as ``jump_data`` fills it, with D = ``den``: Gaussian
    integers at an exact point, M itself (D = 1) at a float one. It is the
    one copy of the form the point keeps. ``steps[k - 1]`` is
    ((p, d), ((g, num, den), ...)) for step k, over the reduced g by
    increasing g: step k is y_g <- y_g - c y_{j_k} with c = num / den, and
    its pivot is p / d (that of D M): exact quotients of the fraction-free
    integers of ``_skew_reduce`` at an exact point, of the values of
    ``_skew_reduce_float`` at a float one.
    """
    i_seq: Tuple[int, ...]
    j_seq: Tuple[int, ...]
    ambient: str
    basis: AdaptableBasis = field(repr=False, compare=False)
    steps: Tuple[tuple, ...] = field(default=(), repr=False, compare=False)
    point: Optional[Functional] = field(default=None, repr=False, compare=False)
    form: Optional[List[dict]] = field(default=None, repr=False, compare=False)
    den: int = field(default=1, repr=False, compare=False)

    @property
    def d(self) -> int:
        return len(self.i_seq)

    @property
    def e_set(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.i_seq) | set(self.j_seq)))

    def key(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return (self.e_set, self.j_seq)

    def image(self, y: Mapping[int, object]) -> dict:
        """M y for the coordinates {q: y_q} of y over the adapted vectors,
        as {p: (M y)_p} over the p that some nonzero y_q reaches.
        (M y)_p = sum_q (D M)[p][q] (y_q / D) is read off row p of
        ``form``, over the q of y in their order, each y_q times the
        GaussianRational 1 / D once per call (so an int or Fraction y_q
        stays exact).
        ``_fill`` stores M[p][q] and M[q][p] together, so the p reached
        from y_q are the keys of row q, taken by increasing p."""
        form = self.form
        if self.den == 1:
            ys = [(q, yq) for q, yq in y.items() if yq]
        else:
            s = _made(1, 0, self.den)
            ys = [(q, yq * s) for q, yq in y.items() if yq]
        out = {}
        for q, _ in ys:
            for p in form[q]:
                if p not in out:
                    row = form[p]
                    total = None
                    for r, yr in ys:
                        if r in row:
                            # y_r first: a form entry may be a plain int
                            t = yr * row[r]
                            total = t if total is None else total + t
                    out[p] = total
        return out

    def _require_exact(self, what: str):
        if not self.point.exact:
            raise NeedsFloatError(f"{what} requires an exact functional")

    def polarization(self) -> Tuple[List[dict], Subspace]:
        """h_d, the last member of the flag h_0 > h_1 > ... > h_d, from one
        replay of the reductions (``_replay``): (rows, subspace). The rows
        are the reduced vectors y_g at the positions g outside j_seq, each
        a sparse {p: x} over the ambient's adapted vectors Z_{p+1}, keys
        ascending, GaussianRational entries: the replay keeps s_g y_g, and
        each row is divided by its scale s_g once. Each y_g is e_g plus
        terms at positions in j_seq, so they are independent. The subspace
        is their span in g_C over the real basis. Exact points only: raises
        NeedsFloatError at a float point."""
        self._require_exact("polarization")
        ys = _replay(self.j_seq, self.steps, 0)
        dead = set(self.j_seq)
        terms = self.basis.terms
        rows, real = [], []
        for g in range(1, self.basis.ambient(self.ambient) + 1):
            if g in dead:
                continue
            s_g, y_g = ys.get(g, (1, {g: 1}))
            inv = GR1 / s_g
            y = {p - 1: inv * y_g[p] for p in sorted(y_g) if y_g[p]}
            rows.append(y)
            # sum_p y_p Z_{p+1} over the real basis, as a sparse row
            out = {}
            for p, x in y.items():
                for m, c in terms[p]:
                    out[m] = out[m] + x * c if m in out else x * c
            real.append(out)
        return rows, Subspace(real, self.basis.dim)

    def pfaffian(self) -> GaussianRational:
        """Pf(M_e) over e = ``e_set`` by increasing index:
        sgn(i_1 j_1 i_2 j_2 ...) prod_k pivot_k / D^d, the tail that
        ``pfaffian`` shares (``_pivot_pfaffian``). Exact points only.

        These are the steps ``pfaffian`` takes on D M_e itself. A step
        changes only the rows and columns of the positions it reduces, a
        division back to the minors divides each entry by factors of its
        own row and column, and a position outside e is never paired: its
        row is zero on every active column when it is scanned. So the
        entries on e x e go through the steps of the reduction of D M_e,
        with the same (i_k, j_k), coefficients, kappa factors and divisions
        back: the same pivots, and Pf(D M_e) = D^d Pf(M_e)."""
        self._require_exact("pfaffian")
        return _pivot_pfaffian(self.i_seq, self.j_seq, self.steps, self.den)


class FormTable(NamedTuple):
    """The orbit form of one basis on one ambient as integer linear forms;
    see ``_form_table``."""
    entries: Tuple[tuple, ...]   # (p, q, re, im, d, den // d)
    den: int                     # lcm of the entry denominators d


def _compose(rows, terms) -> Tuple[tuple, ...]:
    """The entries (p, q, re, im, d) of ``_form_table`` for the rows of C
    in rows ({(p, q): {k: C_pq^k}}), composed with ``terms`` on the
    integer fields of the GaussianRationals.

    Each coefficient a_m + i b_m = sum_k C_pq^k t_km is summed over the one
    denominator D of its products, in the order the m first appear; the
    least denominator of the entry is d = D / g with g = gcd(D, every a_m
    and b_m), since the least denominator of a_m / D is D / gcd(a_m, D).
    The coefficients over d are a_m / g and b_m / g, each exact."""
    out = []
    for (p, q), row in rows.items():
        prods = []
        for k, c in row.items():
            cn, cm, cd = _FIELDS(c)
            for m, t in terms[k]:
                tn, tm, td = _FIELDS(t)
                prods.append((m, cn * tn - cm * tm, cn * tm + cm * tn,
                              cd * td))
        big = lcm(*(x[3] for x in prods))
        coef: Dict[int, List[int]] = {}
        for m, a, b, dd in prods:
            s = big // dd
            ab = coef.setdefault(m, [0, 0])
            ab[0] += a * s
            ab[1] += b * s
        g = gcd(big, *(x for ab in coef.values() for x in ab))
        out.append((p, q,
                    tuple((m, a // g) for m, (a, _) in coef.items() if a),
                    tuple((m, b // g) for m, (_, b) in coef.items() if b),
                    big // g))
    return tuple(out)


def _form_table(basis: AdaptableBasis, ambient: str = "g") -> FormTable:
    """The orbit form on the ambient as integer linear forms in a point's
    real coordinates.

    Entry (p, q, re, im, d, s), p < q, stands for
    M[p][q] = l[Z_{p+1}, Z_{q+1}] = sum_k C_pq^k l(Z_{k+1})
    = (sum_m a_m x_m + i sum_m b_m x_m) / d, with (m, a_m) in re and
    (m, b_m) in im the nonzero integer coefficients over the values x_m of
    l on the real basis, composed from the adapted structure constants and
    ``terms`` (``_compose``); s = den / d brings it over the table's one
    denominator ``den``. The entries run by q, then by p, as the keys of
    ``structure`` and then ``h_structure`` do.

    The n table holds the entries with q < n over their own lcm. They
    depend on ``structure`` and the n-part terms only, which
    ``with_h_part`` keeps, so the n table is built once per n part and
    kept in ``basis.n_form``, which a copy made after that keeps. The g
    table, kept in ``basis.layer_tables``, takes the entries of the n
    table, composes those of ``h_structure`` and sets ``den`` and the
    scales s over all of them: only a g table composes h-part entries.
    ``_fill`` stops at q >= n on either table, and a float fill reads
    only each entry's own d."""
    if ambient == "n":
        if basis.n_form is None:
            basis.n_form = _over_lcm(_compose(basis.structure, basis.terms))
        return basis.n_form
    table = basis.layer_tables.get("orbit_form")
    if table is None:
        entries = tuple(e[:5] for e in _form_table(basis, "n").entries)
        table = basis.layer_tables["orbit_form"] = _over_lcm(
            entries + _compose(basis.h_structure, basis.terms))
    return table


def _over_lcm(entries: Tuple[tuple, ...]) -> FormTable:
    """The entries (p, q, re, im, d) of ``_compose`` as a FormTable over
    the lcm of their denominators d."""
    den = lcm(*(e[4] for e in entries))
    return FormTable(tuple(e + (den // e[4],) for e in entries), den)


def _fill(table: FormTable, n_amb: int, xs: Sequence, exact: bool) -> List[dict]:
    """The sparse rows of the orbit form on the first n_amb adapted vectors
    at the point whose values on the real basis are xs (over a denominator
    the caller keeps, at an exact point), filled from the table:
    ``rows[p]`` is {q: entry} over the nonzero entries of row p. The
    entries run by q, then by p, so every row gets its keys in increasing
    order; they are the only copy of the form built.

    At an exact point the xs are integers and an entry is the Gaussian
    integer D M[p][q], D = table.den times the caller's denominator: a
    plain int when it is real, else a GaussianRational with denominator 1,
    with no gcd either way. At a float point it is complex(a, b) / d."""
    rows: List[dict] = [{} for _ in range(n_amb)]
    for p, q, re_terms, im_terms, d, s in table.entries:
        if q >= n_amb:
            break
        a = b = 0
        for m, c in re_terms:
            a += c * xs[m]
        for m, c in im_terms:
            b += c * xs[m]
        if a or b:
            if not exact:
                x = complex(a, b) / d
            elif b:
                x = _made(a * s, b * s, 1)
            else:
                x = a * s
            rows[p][q] = x
            rows[q][p] = -x
    return rows


def _norm(z) -> int:
    """|z|^2 of a Gaussian integer, an int or a GaussianRational with
    denominator 1, in integers (no size overflows a float)."""
    if type(z) is int:
        return z * z
    n, m, _ = _FIELDS(z)
    return n * n + m * m


def _divide(x, y):
    """x / y for Gaussian integers x, y with an integer quotient: floor
    division on two ints, the GaussianRational quotient otherwise."""
    if type(x) is int and type(y) is int:
        return x // y
    return x / y


def _grown(p) -> bool:
    """Whether the Gaussian-integer pivot entry p has passed 2^64, the size
    past which ``_skew_reduce`` divides its entries back to the Pfaffian
    minors."""
    return _norm(p) > _LIMIT * _LIMIT


def _skew_reduce(rows: List[dict], grown=_grown):
    """The symplectic reduction of a skew matrix with Gaussian-integer
    entries, fraction-free, in place on its sparse rows {q: m[p][q]}; an
    entry missing from a row is zero. The one reduction at exact points.

    The positions, pairs and coefficients are those of the division path
    (``_skew_reduce_float``, run exact): positions g stay active while
    their reduced vector y_g can still pair; step k takes the first active
    row i_k with a nonzero entry in an active column, and j_k as the first
    such column; every active g with m[i_k][g] != 0 is reduced by
    y_g <- y_g - c * y_{j_k}, c = m[i_k][g] / m[i_k][j_k]; then i_k and
    j_k leave the active set. The reduced form after step k is the Schur
    complement of the paired block, R_k[g][q] = omega(y_g, y_q) on the
    active positions, and R_k[i_k][j_k] is the pivot of step k.

    Here each y carries an integer factor. With p = m[i][j] and
    a_g = m[i][g] as stored, step k takes y_g <- p y_g - a_g y_j on the
    reduced g, with no division: row g becomes p m[g][q] - a_g m[j][q]
    (its other entries are scaled by p), and column g with it, while every
    other row keeps its entries. So each stored entry is the true entry
    R_k[g][q] times a nonzero factor per vector and one common factor,
    every zero test and every choice of (i, j) is the division path's, and
    the true coefficient is c = (a_g kappa_j) / (p kappa_g), kappa_g the
    product of the p that have scaled y_g.

    Growth is bounded by the Pfaffian minors. Let P_k be the product of
    the first k pivots, +-Pf(m_I) over the positions I paired so far, and
    S_k = P_k R_k; by the Schur complement identity for Pfaffians,
    S_k[g][q] = +-Pf(m_{I u {g, q}}) (Knuth, "Overlapping Pfaffians",
    Electron. J. Combin. 3(2), 1996), a Gaussian integer. The stored
    entries are S_k[g][q] kappa_g kappa_q P_t / P_k, with t the last step
    at which they were brought back to S_k (and kappa reset to 1), so the
    pivot of step k + 1 is p / (P_t kappa_i kappa_j). While the pivot
    entries stay below 2^64 the entries are left as they are, which on
    the sparse forms of a sampled point is always; past it, every active
    entry is divided back to S_{k+1} (exactly: it is a minor). That is
    Bareiss's division by the previous pivot (Math. Comp. 22, 1968) in its
    Pfaffian form, so a dense form grows no faster than its minors. An
    entry is a plain int when it is real and a GaussianRational with
    denominator 1 otherwise. An entry that becomes zero stays stored; the
    zero test reads it. The rows are left as working storage.

    The entries are read only through their ring operations (``*``, ``-``
    and the truth test) and the hook grown(p), which says when a pivot
    entry p asks for the division back (``_divide``). So the same run
    takes polynomial entries over Z[i] (``_Poly``, for ``_pivot_path``),
    whose hook never asks for it: they are bounded by a term budget.

    Returns (i_seq, j_seq, steps), positions 1-based: ``steps[k - 1]`` is
    ((p, P_t kappa_i kappa_j), ((g, a_g kappa_j, p kappa_g), ...)) over
    the reduced g of step k by increasing g, as ``JumpData.steps`` keeps
    them: the pivot and the coefficients of step k as exact quotients.
    """
    active = set(range(len(rows)))
    # the active rows not yet seen to be zero in every active column; such a
    # row never changes again (it is never reduced, and a reduced row adds
    # nothing to its entries), so it leaves the scan for good. An empty row
    # is such a row from the start.
    scan = [p for p, row in enumerate(rows) if row]
    kappa = [1] * len(rows)
    pf_t = 1                           # P_t
    since = []                         # the pivots of the steps after t
    i_seq: List[int] = []
    j_seq: List[int] = []
    steps = []
    while scan:
        ik = scan.pop(0)
        row_i = rows[ik]
        jk = None
        for q, x in row_i.items():
            if x and q in active and (jk is None or q < jk):
                jk = q
        if jk is None:
            continue
        active.remove(ik)
        active.remove(jk)
        scan.remove(jk)
        p = row_i[jk]
        k_j = kappa[jk]
        pivot = (p, pf_t * kappa[ik] * k_j)
        coefs = []
        reduced = sorted(g for g, x in row_i.items() if x and g in active)
        if reduced:
            # row j_k as it stands; b[g] follows y_g once g is reduced, so
            # that a later g of the step pairs with the new y_g
            b = {q: x for q, x in rows[jk].items() if x and q in active}
            for g in reduced:
                a_g = row_i[g]
                # kappa_g of the new y_g; a factor 1, the usual case on a
                # sparse form, is not multiplied in
                k_g = p if kappa[g] == 1 else p * kappa[g]
                coefs.append((g + 1, a_g if k_j == 1 else a_g * k_j, k_g))
                row_g = rows[g]
                new = {q: p * x for q, x in row_g.items() if q in active}
                for q, b_q in b.items():
                    if q != g:
                        new[q] = (new[q] - a_g * b_q if q in new
                                  else -(a_g * b_q))
                for q, x in new.items():
                    row_g[q] = x
                    rows[q][g] = -x
                if g in b:
                    b[g] = p * b[g]
                kappa[g] = k_g
        i_seq.append(ik + 1)
        j_seq.append(jk + 1)
        steps.append((pivot, tuple(coefs)))
        since.append(pivot)
        if grown(p):
            # P_{k+1} from the pivots since t, then every active entry back
            # to S_{k+1}
            pf = pf_t
            for num, den in since:
                pf = _divide(pf * num, den)
            for g in active:
                row_g = rows[g]
                k_g = pf_t * kappa[g]
                for q, x in row_g.items():
                    if x and q > g and q in active:
                        x = _divide(x * pf, k_g * kappa[q])
                        row_g[q] = x
                        rows[q][g] = -x
            kappa = [1] * len(rows)
            pf_t = pf
            since = []
    return i_seq, j_seq, steps


def _skew_reduce_float(rows: List[dict], tol: float):
    """The symplectic reduction at a float point, with division, in place
    on the sparse rows: the positions, pairs and coefficients of
    ``_skew_reduce``, on the values themselves, every zero test
    |x| <= tol. Each reduced g takes y_g <- y_g - c * y_{j_k},
    c = m[i_k][g] / m[i_k][j_k], which clears row i_k in the active
    columns other than j_k. Each step is a congruence of determinant 1.
    An entry that becomes zero stays stored; the zero test reads it.

    Returns (i_seq, j_seq, steps) as ``_skew_reduce`` does, with
    steps[k - 1] = ((p, 1), ((g, m[i_k][g], p), ...)) for the pivot
    p = m[i_k][j_k].
    """
    zero = zero_test(tol)
    active = set(range(len(rows)))
    # as in _skew_reduce: a row found zero in every active column stays so
    scan = [p for p, row in enumerate(rows) if row]
    i_seq: List[int] = []
    j_seq: List[int] = []
    steps = []
    while scan:
        ik = scan.pop(0)
        row_i = rows[ik]
        jk = None
        for q, x in row_i.items():
            if q in active and not zero(x) and (jk is None or q < jk):
                jk = q
        if jk is None:
            continue
        active.remove(ik)
        active.remove(jk)
        scan.remove(jk)
        row_j = rows[jk]
        piv = row_i[jk]
        # row j_k is fixed during the step; only its nonzero columns move
        cols = [(q, x) for q, x in row_j.items()
                if q in active and not zero(x)]
        red = []
        for g in sorted(g for g, x in row_i.items()
                        if g in active and not zero(x)):
            c = row_i[g] / piv
            red.append((g + 1, row_i[g], piv))
            row_g = rows[g]
            for q, x_j in cols:
                if q != g:
                    x = row_g[q] - c * x_j if q in row_g else -(c * x_j)
                    row_g[q] = x
                    rows[q][g] = -x
        i_seq.append(ik + 1)
        j_seq.append(jk + 1)
        steps.append(((piv, 1), tuple(red)))
    return i_seq, j_seq, steps


def jump_data(l: Functional, basis: Optional[AdaptableBasis] = None,
              ambient: str = "g") -> JumpData:
    """Jump pairs at l by one symplectic reduction of M = (l[Z_p, Z_q]).

    ``l.exact`` picks the mode, once. The reduction runs on a copy of the
    sparse rows of D M that ``_fill`` fills from the ambient's form table
    (``_form_table``); the result keeps them, unreduced, as ``form`` and D
    as ``den``. At an exact point D is the common denominator of the
    values (1 at every sampled point) times the table's, every entry is a
    Gaussian integer built with no gcd, and ``_skew_reduce`` reduces
    fraction-free; at a float point D = 1 and ``_skew_reduce_float``
    divides, testing zero by ``l.tol``.

    Positions g of the ambient flag stay active while their reduced vector
    y_g can still pair; step k pairs the first active row i_k that pairs
    with the first active column j_k it pairs with, and y_{i_k} stays in
    h_k (in its radical) while y_{j_k} does not.

    This is the flag/annihilator recursion h_k = perp(h_{k-1} cap c_{i_k})
    cap h_{k-1}: by the choice of i_k, h_{k-1} cap c_{i_k - 1} already lies
    in perp(h_{k-1}), so h_k = h_{k-1} cap perp(y_{i_k}). The surviving y's
    are therefore a flag-adapted basis of h_k, and the reduced M is the form
    restricted to h_k.

    ambient 'n' restricts everything to the nilpotent part (giving the
    jump set of the restricted point); 'g' uses the whole algebra.
    """
    if basis is None:
        basis = l.basis
    table = _form_table(basis, ambient)
    n_amb = basis.ambient(ambient)
    values = l.values
    if l.exact:
        den = lcm(*map(_DENOMINATOR, values))
        xs = (list(map(_NUMERATOR, values)) if den == 1 else
              [v.numerator * (den // v.denominator) for v in values])
        form = _fill(table, n_amb, xs, True)
        den *= table.den
        i_seq, j_seq, steps = _skew_reduce(list(map(dict.copy, form)))
    else:
        form, den = _fill(table, n_amb, values, False), 1
        i_seq, j_seq, steps = _skew_reduce_float(list(map(dict.copy, form)),
                                                 l.tol)
    return JumpData(tuple(i_seq), tuple(j_seq), ambient, basis,
                    tuple(steps), l, form, den)


# ---------------------------------------------------------------------------
# layer data: conj-stable positions, primes, case sets
# ---------------------------------------------------------------------------

@dataclass
class LayerDescriptor:
    ambient: str
    e_set: Tuple[int, ...]
    i_seq: Tuple[int, ...]
    j_seq: Tuple[int, ...]
    stable_set: Tuple[int, ...]               # conj-stable flag positions, incl 0
    primes: Dict[int, Tuple[int, int]]        # j -> (j', j'')
    case_sets: Dict[int, Tuple[int, ...]]     # 0..5 -> pair indices k (1-based)
    phi: Tuple[int, ...]
    consistency: float = 1.0

    @property
    def d(self) -> int:
        return len(self.i_seq)

    def key(self):
        return (self.e_set, self.j_seq, self.phi)

    def as_dict(self):
        return {
            "ambient": self.ambient,
            "e": list(self.e_set),
            "i": list(self.i_seq),
            "j": list(self.j_seq),
            "stable_positions": list(self.stable_set),
            "primes": {str(j): list(v) for j, v in sorted(self.primes.items())},
            "case_sets": {f"K{k}": list(v) for k, v in self.case_sets.items()},
            "phi": list(self.phi),
            "sampling_agreement": self.consistency,
        }


class CaseTable(NamedTuple):
    """The case table of one (ambient, i_seq, j_seq); see ``_case_table``."""
    stable: Tuple[int, ...]                  # conj-stable positions, incl 0
    primes: Mapping[int, Tuple[int, int]]    # j -> (j', j'')
    cases: Mapping[int, Tuple[int, ...]]     # 0..5 -> pair indices k
    in_case: Mapping[int, frozenset]         # the same, as sets
    keyed: bool
    h_pairs: Tuple[Tuple[int, int], ...]     # (i_k, j_k), i_k <= n < j_k
    blocks: Tuple[int, ...]                  # k opening a case-4/5 block
    e: Tuple[int, ...]                       # i_seq and j_seq, sorted


def _case_table(basis: AdaptableBasis, ambient: str,
                i_seq: Tuple[int, ...], j_seq: Tuple[int, ...]) -> CaseTable:
    """The case table of the jump pairs (i_seq, j_seq) in the ambient,
    built once per key and kept on the basis. Every point of the layer
    shares it, so its mappings are read-only views.

    The layer is keyed when every pair k, taken in the case order of
    ``section_vectors``, is in
      (0) case 0, where Z_{i_k} is real; when Z_{j_k} is not, its
          conjugate position sigma(j_k) is outside e and below i_{k+1};
      (1) case 1, where sigma(i_k) = i_k + 1 is outside e, with Z_{j_k}
          real;
      (3) case 3 with j_k = i_k + 1 = sigma(i_k);
      (4) a case-4/5 block: pair k in case 4 (so sigma(i_k) = i_k + 1),
          then pair k + 1 with i_{k+1} = i_k + 1 and sigma(j_{k+1}) = j_k.
    Then the dual pairs V_k, U_k stay real at a real point, and
    ``layer_descriptor`` reads the key without section vectors. Case 2,
    case 1 with Z_{j_k} complex and a case-4 pair outside a block are left
    out, since no such argument covers them. ``blocks`` lists the k that
    open a block on any layer, keyed or not: there ``section_vectors``
    takes Z_{i_{k+1}} from the pending combination of pair k. The h pairs
    are the (i_k, j_k) with i_k <= n < j_k, the only pairs whose b value
    can be nonzero on a keyed layer. ``e`` is the union of the pairs,
    sorted: the e of the layer key."""
    key = (ambient, i_seq, j_seq)
    table = basis.layer_tables.get(key)
    if table is not None:
        return table
    top = basis.ambient(ambient)
    stable = [j for j in basis.self_conjugate_steps() if j <= top]
    stable_set = set(stable)
    primes = {}
    for j in range(1, top + 1):
        # stable is sorted and starts at 0: the nearest positions around j
        at = bisect_left(stable, j)
        primes[j] = (stable[at - 1], stable[at] if at < len(stable) else top)
    i_set = set(i_seq)
    j_set = set(j_seq)
    e_set = i_set | j_set
    cases: Dict[int, List[int]] = {c: [] for c in range(6)}
    for k, ik in enumerate(i_seq, start=1):
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
    sigma = basis.sigma
    # i_{k+1} and j_{k+1}, past the end for k = d
    nxt_i = i_seq[1:] + (top + 1,)
    nxt_j = j_seq[1:] + (0,)
    keyed, blocks = True, []
    for k, (ik, jk, ni, nj) in enumerate(
            zip(i_seq, j_seq, nxt_i, nxt_j), start=1):
        if blocks and blocks[-1] == k - 1:
            continue                        # the second pair of a block
        sj = sigma[jk]
        if k in cases[0]:
            keyed &= sj == jk or (sj not in e_set and sj < ni)
        elif k in cases[1]:
            keyed &= sj == jk
        elif k in cases[2]:
            keyed = False
        elif k in cases[3]:
            keyed &= jk == ik + 1
        elif k in cases[4] and ni == ik + 1 and sigma[nj] == jk:
            blocks.append(k)
        else:
            keyed = False
    nd = basis.n
    h_pairs = tuple((ik, jk) for ik, jk in zip(i_seq, j_seq)
                    if ik <= nd < jk)
    table = CaseTable(
        tuple(stable), MappingProxyType(primes),
        MappingProxyType({c: tuple(v) for c, v in cases.items()}),
        MappingProxyType({c: frozenset(v) for c, v in cases.items()}),
        keyed, h_pairs, tuple(blocks), tuple(sorted(e_set)))
    basis.layer_tables[key] = table
    return table


def _gamma_table(basis: AdaptableBasis) -> Tuple[tuple, int]:
    """(rows, den): the diagonal coefficients C_{i,p}^i = -gamma_i(Z_p) of
    the brackets [Z_i, Z_p], i <= n < p (1-based), times their common
    denominator den, built once per basis and kept in
    ``basis.layer_tables``. ``rows[i - 1]`` lists the nonzero
    (p, den C_{i,p}^i) by increasing p, as Gaussian integers: a plain int
    when real, else a GaussianRational with denominator 1."""
    table = basis.layer_tables.get("gamma")
    if table is None:
        rows = [[(p + 1,) + _FIELDS(row[i])
                 for (k, p), row in sorted(basis.h_structure.items())
                 if k == i and i in row] for i in range(basis.n)]
        den = lcm(1, *(d for row in rows for _, _, _, d in row))
        table = basis.layer_tables["gamma"] = (tuple(
            tuple((p, _made(a * (den // d), b * (den // d), 1) if b
                   else a * (den // d)) for p, a, b, d in row)
            for row in rows), den)
    return table


# ---------------------------------------------------------------------------
# section vectors
# ---------------------------------------------------------------------------

@dataclass
class SectionVectors:
    """Dual pairs V_k, U_k, combinations Z_j(l), b values and l[V_k, U_k].

    The vectors are sparse coordinates {p: x_p} over the adapted vectors
    Z_{p+1} (``v_adapted``, ``u_adapted``, ``z_adapted``); the vector over
    the real basis of g is sum_p x_p Z_{p+1}, with Z_{p+1} =
    ``basis.vector(p + 1)``. Two of them pair as x . (M y) through the
    orbit form M at the point, with M y = ``jd.image(y)`` when jd is the
    point's own jump data.
    """
    jd: JumpData
    v_adapted: List[dict]
    u_adapted: List[dict]
    z_adapted: Dict[int, dict]
    b_at: Dict[int, object]            # i_k in phi -> b value
    pairings: List[object]             # l[V_k, U_k]


def section_vectors(l: Functional, basis: Optional[AdaptableBasis] = None,
                    jd: Optional[JumpData] = None,
                    ambient: str = "g") -> SectionVectors:
    """Dual pairs V_k, U_k and the combinations Z_j(l), case by case.

    Works in sparse coordinates x over the adapted vectors of the ambient,
    pairing x and y as x . (M y), with M y from ``JumpData.image`` on the
    orbit form M at l: that of ``jd`` when jd is the jump data of l, else
    that of the jump data of l itself. There
    Re Z_i = (e_i + e_s) / 2 and Im Z_i = (e_i - e_s) / 2i with s = sigma(i),
    since the basis verified conj Z_i = Z_s; the b values read gamma_i of
    the h-part vectors off the diagonal of their rows of C.

    Raises LayerMismatchError when a pairing l[V_k, U_k] vanishes (the point
    is not in the layer the case table assumed) and UnsupportedCaseError for
    pair patterns outside the table.
    """
    if basis is None:
        basis = l.basis
    if jd is None:
        jd = jump_data(l, basis, ambient)
    tol = l.tol
    own = jd.point is l and jd.basis is basis and jd.ambient == ambient
    image = (jd if own else jump_data(l, basis, ambient)).image
    table = _case_table(jd.basis, jd.ambient, jd.i_seq, jd.j_seq)
    in_case = table.in_case
    vanishes = zero_test(tol)
    if tol is None:
        zero, one, half, minus_half_i = ZERO, GR1, HALF, MINUS_HALF_I
    else:
        zero, one, half, minus_half_i = 0j, 1 + 0j, 0.5 + 0j, -0.5j
    sigma = basis.sigma

    def parts(i):
        """Re Z_i and Im Z_i."""
        s = sigma[i]
        if s == i:
            return {i - 1: one}, {}
        return ({i - 1: half, s - 1: half},
                {i - 1: minus_half_i, s - 1: -minus_half_i})

    def dot(x, w):
        total = zero
        for p, xp in x.items():
            wp = w.get(p)
            if wp:
                total = xp * wp if total is zero else total + xp * wp
        return total

    def pair(x, y):
        return dot(x, image(y))

    def add(out, c, x):
        """out += c * x, in place."""
        for q, xq in x.items():
            out[q] = out[q] + c * xq if q in out else c * xq
        return out

    def mix(i, a, b):
        """a Re Z_i + b Im Z_i."""
        s = sigma[i]
        if s == i:
            return {i - 1: a}
        x, y = a * half, b * minus_half_i
        return {i - 1: x + y, s - 1: x - y}

    v_ad: List[dict] = []
    u_ad: List[dict] = []
    mv_ad: List[dict] = []             # M V_k and M U_k, so that pairing
    mu_ad: List[dict] = []             # with V_k or U_k is one dot product
    pairings: List[object] = []
    z_ad: Dict[int, dict] = {}

    def rho(x):
        for vm, um, mv, mu, den in zip(v_ad, u_ad, mv_ad, mu_ad, pairings):
            c_u = dot(x, mu)
            c_v = dot(x, mv)
            if c_u or c_v:
                x = add(add(dict(x), -(c_u / den), vm), c_v / den, um)
        return x

    pending_z: Dict[int, dict] = {}

    for k in range(1, jd.d + 1):
        ik, jk = jd.i_seq[k - 1], jd.j_seq[k - 1]
        re_i, im_i = parts(ik)

        if k in in_case[5] and ik in pending_z:
            z_ik = pending_z.pop(ik)
        elif k in in_case[0]:
            z_ik = re_i
        elif k in in_case[1]:
            rho_jk = rho({jk - 1: one})
            z_ik = mix(ik, pair(rho_jk, re_i), pair(rho_jk, im_i))
        elif k in in_case[2]:
            # the partner pair index m with j_m immediately below i_k
            m = next((m for m in range(1, min(k, len(v_ad) + 1))
                      if jd.j_seq[m - 1] == ik - 1), None)
            if m is None:
                raise UnsupportedCaseError(
                    f"pair {k}: no computed partner below index {ik}")
            re_m, im_m = parts(jd.j_seq[m - 1])
            a1 = dot(re_m, mv_ad[m - 1])
            a2 = dot(im_m, mv_ad[m - 1])
            z_ik = mix(ik, -a2, -a1)
        elif k in in_case[3]:
            z_ik = im_i
        elif k in in_case[4]:
            z_ik = re_i
        else:
            raise UnsupportedCaseError(f"pair {k} falls in no supported case")

        vk = rho(z_ik)
        mv = image(vk)
        re_j, im_j = parts(jk)
        z_jk = mix(jk, dot(re_j, mv), dot(im_j, mv))
        uk = rho(z_jk)
        mu = image(uk)
        pairing = dot(vk, mu)
        if vanishes(pairing):
            raise LayerMismatchError(f"pairing of dual pair {k} vanishes")

        v_ad.append(vk)
        u_ad.append(uk)
        mv_ad.append(mv)
        mu_ad.append(mu)
        pairings.append(pairing)
        z_ad[ik] = z_ik
        z_ad[jk] = z_jk

        if k in table.blocks:
            num = pair(uk, im_i)
            den = pair(uk, re_i)
            if vanishes(den):
                raise UnsupportedCaseError(
                    f"pair {k}: degenerate adjacent-pair combination")
            nxt = jd.i_seq[k]
            pending_z[nxt] = mix(nxt, -(num / den), -one)

    # b values on pair indices whose weight pairs with U_k; gamma_i of an
    # h-part vector H is minus the diagonal coefficient of [Z_i, H]
    nd = basis.n
    b_at: Dict[int, object] = {}
    for ik, uk, mu in zip(jd.i_seq, u_ad, mu_ad):
        if ik > nd:
            continue
        gamma = zero
        for p, c in uk.items():
            if p >= nd:
                g = basis.h_structure.get((ik - 1, p), {}).get(ik - 1)
                if g is not None:
                    gamma = gamma - c * g
        if vanishes(gamma):
            continue
        denom = mu.get(ik - 1, zero)
        if vanishes(denom):
            raise LayerMismatchError(f"b value at index {ik} is singular")
        b_at[ik] = gamma / denom
    return SectionVectors(jd=jd, v_adapted=v_ad,
                          u_adapted=u_ad, z_adapted=z_ad, b_at=b_at,
                          pairings=pairings)


def _replay(j_seq: Tuple[int, ...], steps, low: int) -> Dict[int, tuple]:
    """The y vectors of the reduction, replayed fraction-free over the
    steps with pivot position j_k > low: {g: (s_g, s_g y_g)} for the g
    those steps reduce, s_g y_g a sparse {p: x} over the 1-based positions
    p; every other y_g is Z_g, with s_g = 1. steps are the reduction's, as
    ``JumpData.steps`` keeps them; only their (g, num, den) are read.

    Each y_g carries one nonzero scale s_g (1 until g is reduced), and a
    step with pivot position j takes s_g y_g <- den s_j (s_g y_g) -
    num s_g (s_j y_j), so s_g <- den s_j s_g and no coefficient num / den
    is formed. At an exact point num and den are Gaussian integers, so
    every product is one of integers, and each updated (s_g, s_g y_g) is
    divided by the gcd of its integer parts (``_content``). That is a
    positive integer, so y_g and every zero test on a scaled sum stay as
    they were, and the integers no longer grow with every step that
    reduces g. At a float point num and den are complex, and in
    ``_pivot_path`` polynomials; neither is divided."""
    ys: Dict[int, tuple] = {}
    for jp, (_, red) in zip(j_seq, steps):
        if jp > low:
            s_j, y_j = ys.get(jp, (1, {jp: 1}))
            for g, num, den in red:
                s_g, y_g = ys.get(g, (1, {g: 1}))
                a, b = den * s_j, num * s_g
                new = {p: a * x for p, x in y_g.items()}
                for p, x in y_j.items():
                    new[p] = new[p] - b * x if p in new else -(b * x)
                s_g = a * s_g
                c = _content(s_g, new.values())
                if c > 1:
                    s_g = _over(s_g, c)
                    new = {p: _over(x, c) for p, x in new.items()}
                ys[g] = (s_g, new)
    return ys


def _content(s, xs) -> int:
    """The gcd of the integer parts of s and the xs when each is a Gaussian
    integer (an int, or a GaussianRational with denominator 1), else 1."""
    parts = []
    for x in (s, *xs):
        kind = type(x)
        if kind is int:
            parts.append(x)
        elif kind is GaussianRational:
            n, m, d = _FIELDS(x)
            if d != 1:
                return 1
            parts += (n, m)
        else:
            return 1
    return gcd(*parts)


def _over(x, c: int):
    """The Gaussian integer x divided by c, a positive int that divides
    both its parts."""
    if type(x) is int:
        return x // c
    n, m, _ = _FIELDS(x)
    return _made(n // c, m // c, 1)


def _reduction_phi(basis: AdaptableBasis, j_seq: Tuple[int, ...], steps,
                   h_pairs: Tuple[Tuple[int, int], ...],
                   tol: Optional[float]) -> Tuple[int, ...]:
    """phi on a keyed layer, from the h coordinates of the y vectors of the
    reduction (see ``layer_descriptor``): the i_k of the h pairs
    (i_k, j_k), i_k <= n < j_k, with
    sum_{p > n} (y_{j_k})_p gamma_{i_k}(Z_p) != 0, by the zero test of tol
    (None at an exact point). () without h pairs, as in the ambient 'n',
    where no j_k exceeds n. steps are the reduction's, as ``JumpData.steps``
    keeps them.

    Only the h-steps (j_k > n) move h coordinates, so ``_replay`` replays
    those alone (low = n) and keeps each y_g as s_g y_g. The sum of each h
    pair is taken over the integer table of ``_gamma_table``: it is the
    true sum times s_{j_k} and the table's denominator, a nonzero factor,
    which changes no exact zero test; at an exact point every product is
    one of Gaussian integers. At a float point the zero test divides the
    sum by that factor once (``zero_test`` with a scale), so it reads
    |sum| <= tol on the true sum, as with division at each step."""
    if not h_pairs:
        return ()
    yh = _replay(j_seq, steps, basis.n)
    vanishes = zero_test(tol, True)
    rows, den = _gamma_table(basis)
    phi = []
    for ik, jk in h_pairs:
        # gamma_{i_k}(Z_p) is minus the coefficient c; the sign does not
        # change whether the sum vanishes
        s_j, y_j = yh.get(jk, (1, {jk: 1}))
        total = 0
        for p, c in rows[ik - 1]:
            total = total + y_j.get(p, 0) * c
        if not vanishes(total, s_j * den):
            phi.append(ik)
    return tuple(phi)


def _layer_key(basis: AdaptableBasis, table: CaseTable,
               j_seq: Tuple[int, ...], steps, tol: Optional[float]):
    """The layer key (e, j, phi) of a reduction with the jump pairs of the
    case table. On a keyed layer phi is read off the reduction's steps
    (``_reduction_phi``); on any other it is None, since it needs section
    vectors. The one key rule of ``layer_descriptor`` and of the
    per-sample kernel ``_sample_key``."""
    phi = (_reduction_phi(basis, j_seq, steps, table.h_pairs, tol)
           if table.keyed else None)
    return table.e, j_seq, phi


def layer_descriptor(l: Functional, basis: Optional[AdaptableBasis] = None,
                     ambient: str = "g") -> LayerDescriptor:
    """Full layer data at l: jumps, conj-stable positions, case sets, phi.

    The primes and case sets are read-only views of the case table that
    the basis keeps for the key (``_case_table``).

    On a keyed layer (``_case_table``) the key is read off the jump data
    alone, in either ambient, and ``section_vectors`` is not run. With
    p = pivot_k, the k-th pivot of the reduction (the true one, which
    ``_skew_reduce`` holds as P_k / P_{k-1}), the pairing l[V_k, U_k] is -|p|^2 for
    a pair in class (0), -|p|^4 in class (1) and -|p|^2/4 in class (3), so
    none vanishes. On a case-4/5 block (class (4)) at pairs k, k + 1 they
    are -|P|^2 and -|p_k p_{k+1}|^2 / (16 |P|^2), where 2 P is the sum of
    the entries (i_k, j_k) and (i_k + 1, j_k) of the reduced form at step
    k. |2 P| >= |p_{k+1}|, so neither vanishes either, and the point needs
    no test beyond the pivots. phi (the i_k with a nonzero b value)
    follows from the reduction's h coordinates. The argument, at a real
    point l (every ``Functional`` is real), with omega(x, y) = l[x, y] on
    the complexified ambient:

    - Reduction. At step k the active positions A_k are those not yet
      paired, and the reduced M is R_k[g][h] = omega(y_g, y_h) on A_k,
      with the y vectors of the reduction (``_skew_reduce`` holds each
      times a nonzero factor, which changes no zero test). W'_k = span{y_{i_m}, y_{j_m}
      : m < k} is nondegenerate (the pivots are nonzero), and I_k =
      span{y_{i_m} : m < k} is Lagrangian in it and orthogonal to every
      y_g, g in A_k. As y_g - Z_g lies in W'_k, the symplectic projection
      rho' along W'_k has rho' Z_g = y_g - w with w in I_k, so
      omega(rho' Z_g, rho' Z_h) = R_k[g][h] on A_k, and rho' Z_q = 0 for
      q paired. A row found zero when it is scanned stays zero, so j_k is
      the first active column with R_k[i_k][j_k] != 0, and j_k > i_k.
    - h coordinates. Call step m an h-step when j_m > n. Row i_m is zero
      on every active column below j_m, so an h-step reduces no position
      g <= n, and every other step subtracts some y_{j_m} with j_m <= n.
      By induction every y_g with g <= n lies in n, and only h-steps move
      h coordinates.
    - Induction. rho (of ``section_vectors``) is the symplectic projection
      along W_k = span{V_m, U_m : m < k}; write x_g = rho Z_g. Let G be
      the radical of omega and N = G cap n. The hypothesis is: W_k is real
      and W_k + N = W'_k + N. It holds for k = 1. It gives W_k^perp =
      W'_k^perp, so rho x - rho' x lies in N for every x and
      omega(x_g, x_h) = R_k[g][h] on A_k; and, W_k being real,
      conj x_g = x_{sigma(g)} and omega(conj x, conj y) = conj omega(x, y).
    - Step k, with i = i_k, j = j_k, p = R_k[i][j] and P = omega(V_k, Z_j).
      If V_k is real, then a = l[Re Z_j, V_k] and b = l[Im Z_j, V_k] are
      real, z_j = a Re Z_j + b Im Z_j and U_k = rho z_j are real, and
      l[V_k, U_k] = l[V_k, z_j] = -a^2 - b^2 = -|P|^2, as P = -a - ib.
      (0) Z_i is real: V_k = x_i is real and P = R_k[i][j] = p.
      (1) i + 1 is outside e, so active and not j: R_k[i][i+1] = 0. As
          Z_j is real, R_k[j][i+1] = conj R_k[j][i] = -conj p, so z_i =
          (-conj p Z_i - p Z_{i+1}) / 2 is real, V_k = rho z_i, and
          P = -|p|^2.
      (3) V_k = rho Im Z_i = (x_i - x_j) / 2i is real, and P = p / 2i.
      So each pairing is the one stated, and case 0, 1 or 3 never reaches
      UnsupportedCaseError. z_i and z_j lie in span{Z_i, Z_j, Z_s}, with
      s the conjugate position outside the pair, if any: i + 1 in (1),
      sigma(j) in (0). s is outside e and below i_{k+1} (by the key in
      (0); in (1) by case 1 and i_{k+1} > i), so s is scanned before
      step k + 1 and found zero: its row of R_{k+1} vanishes,
      rho'_{k+1} Z_s is in G, and it is in n, since s <= n and every
      i_m <= i_k lies in n. So V_k and U_k lie in W'_{k+1} + N.
      W_{k+1} is real and nondegenerate, so it meets N in 0, and both
      sides of the hypothesis at k + 1 have dimension 2k + dim N: it
      holds.
    - Block (4), with i = i_k, i' = i + 1 = sigma(i) = i_{k+1}, j = j_k
      and j' = sigma(j) = j_{k+1} != j. Z_j is complex, so j, j' <= n; all
      four positions are active at step k. Write p = R_k[i][j],
      q = R_k[i][j'] and p' = pivot_{k+1}. As i' < j is active,
      R_k[i][i'] = 0; and R_k[i'][g] = omega(conj x_i, x_g) =
      conj R_k[i][sigma(g)], so R_k[i'][j] = conj q and R_k[i'][j'] =
      conj p. Step k leaves y_{i'} alone and sets y_{j'} <- y_{j'} -
      (q / p) y_j, so p' = conj p - |q|^2 / p and p p' = |p|^2 - |q|^2.
      V_k = rho Re Z_i = (x_i + x_{i'}) / 2 is real, and P =
      omega(V_k, x_j) = (p + conj q) / 2, so l[V_k, U_k] = -|P|^2 and
      U_k = -(conj P x_j + P x_{j'}) / 2. P does not vanish:
      |2 P| >= ||p| - |q|| = |p'|. So the pending denominator
      l[U_k, Re Z_i] = omega(U_k, V_k) = |P|^2 is nonzero, and
      UnsupportedCaseError is not reached. rho_{k+1} kills Re Z_i, which
      is V_k modulo W_k, so V_{k+1} = rho_{k+1} Im Z_i, whatever the
      pending coefficient: real, with l[V_{k+1}, U_{k+1}] = -|P'|^2 and
      P' = omega(V_{k+1}, x_{j'}). Write Im x_i = rho Im Z_i =
      (x_i - x_{i'}) / 2i. From omega(Im x_i, V_k) = 0 (as R_k[i][i'] =
      0), omega(Im x_i, U_k) = -Im(p q) / 2 and omega(V_k, x_{j'}) =
      conj P follows P' = i (|p|^2 - |q|^2) / (4 P), so the pairings
      multiply to |p p'|^2 / 16 and neither vanishes. V_k, U_k, V_{k+1}
      and U_{k+1} lie in W_k + span{Z_i, Z_{i'}, Z_j, Z_{j'}}, which is in
      W'_{k+2} + N (each y_g - Z_g is in W'_m, m the step that pairs g).
      W_{k+2} is real and nondegenerate, so the hypothesis holds at k + 2
      by the same dimension count, 2 (k + 1) + dim N. U_k and U_{k+1} are
      rho_k of vectors of span{Z_i, Z_{i'}, Z_j, Z_{j'}}, inside n, plus
      multiples of V_k and U_k, so they lie in n as rho' z_j does below,
      and gamma = 0 at i and at i'.
    - b values. The b value at i = i_k <= n is gamma / (M U_k)_i. Every
      i_m, m < k, is in n, so I_k lies in n, and U_k has the h part of
      rho' z_j. If j <= n, z_j lies in n (which is conj-stable), so does
      rho' z_j, and gamma = 0. If j > n, Z_j is real, z_j = -P Z_j, and
      the h part of U_k is -P y_j^h. So gamma = -P sum_{p > n} (y_j)_p
      gamma_i(Z_p), with gamma_i(Z_p) = -C_{i, p}^{i} from
      ``h_structure`` (``_gamma_table``), and i is in phi exactly when
      i <= n < j and that sum is nonzero (``_reduction_phi``, tested
      exactly at each point).
      The denominator l[Z_i, U_k] = omega(x_i, U_k) is -|p|^2 in (0) and
      |p|^2 p in (1) (classes (3) and (4) have j <= n), so neither
      LayerMismatchError can occur. In the ambient 'n' there are no h
      coordinates and phi is ().

    Other layers run ``section_vectors``. At a float point a keyed layer
    rests on the pivot test of ``jump_data``.
    """
    if basis is None:
        basis = l.basis
    jd = jump_data(l, basis, ambient)
    table = _case_table(basis, ambient, jd.i_seq, jd.j_seq)
    e_set, j_seq, phi = _layer_key(basis, table, jd.j_seq, jd.steps, l.tol)
    if phi is None:
        phi = tuple(sorted(section_vectors(l, basis, jd, ambient).b_at))
    return LayerDescriptor(ambient=ambient, e_set=e_set, i_seq=jd.i_seq,
                           j_seq=j_seq, stable_set=table.stable,
                           primes=table.primes, case_sets=table.cases,
                           phi=phi)


# ---------------------------------------------------------------------------
# generic layer by seeded sampling
# ---------------------------------------------------------------------------

# the budget of the symbolic run of ``_pivot_path``: a product of more
# terms or of a higher degree than these stops it, and the layer keeps the
# fill and reduction per sample
_TERMS = 8
_DEGREE = 6


class _OverBudget(Exception):
    """A product of ``_Poly`` entries passed the budget."""


class _Poly:
    """A polynomial over Z[i] in the real coordinates x_0, x_1, ... of a
    point, an entry of the symbolic run of ``_pivot_path``. ``terms`` is
    {monomial: (a, b)} over the nonzero coefficients a + ib, a monomial the
    sorted tuple of its variables, with repetition. It has the ring
    operations of ``_skew_reduce`` and ``_replay``, an int on either side
    of a product; a product of more than ``_TERMS`` terms or of degree
    above ``_DEGREE`` raises _OverBudget."""
    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __neg__(self):
        return _Poly({m: (-a, -b) for m, (a, b) in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for m, (a, b) in other.terms.items():
            c, d = out.pop(m, (0, 0))
            if c + a or d + b:
                out[m] = (c + a, d + b)
        return _Poly(out)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if type(other) is int:
            return _Poly({m: (a * other, b * other)
                          for m, (a, b) in self.terms.items()} if other else {})
        out: Dict[tuple, Tuple[int, int]] = {}
        for m, (a, b) in self.terms.items():
            for n, (c, d) in other.terms.items():
                mn = tuple(sorted(m + n))
                if len(mn) > _DEGREE:
                    raise _OverBudget
                e, f = out.pop(mn, (0, 0))
                e, f = e + a * c - b * d, f + a * d + b * c
                if e or f:
                    out[mn] = (e, f)
            if len(out) > _TERMS:
                raise _OverBudget
        return _Poly(out)

    __rmul__ = __mul__

    def compiled(self) -> Tuple[tuple, ...]:
        """The real and imaginary parts, each a tuple of (coefficient,
        monomial), the parts with no term left out: the form
        ``_vanishes_at`` reads."""
        parts = (tuple((a, m) for m, (a, _) in self.terms.items() if a),
                 tuple((b, m) for m, (_, b) in self.terms.items() if b))
        return tuple(part for part in parts if part)


def _vanishes_at(parts: Tuple[tuple, ...], xs: Sequence[int]) -> bool:
    """Whether the polynomial compiled into parts (``_Poly.compiled``) is
    zero at the integer point xs: both its parts are."""
    for part in parts:
        total = 0
        for c, m in part:
            for v in m:
                c *= xs[v]
            total += c
        if total:
            return False
    return True


class _PivotPath(NamedTuple):
    """The generic path of one basis and ambient; see ``_pivot_path``."""
    e: Tuple[int, ...]
    j_seq: Tuple[int, ...]
    pivots: Tuple[tuple, ...]              # compiled pivot polynomials
    sums: Optional[Tuple[tuple, ...]]      # (i_k, compiled h-pair sum)


def _pivot_path(basis: AdaptableBasis, ambient: str, form: FormTable,
                size: int):
    """The path of the reduction at an indeterminate point of the ambient,
    built once per basis and ambient and kept in ``basis.layer_tables``:
    a _PivotPath, or False when the symbolic run passed the budget.

    The form table is filled with ``_Poly`` entries, D M[p][q] as linear
    forms in the coordinates x_0, ..., x_{size-1} of the real basis, and
    ``_skew_reduce`` runs on them fraction-free, with no division back:
    its zero tests ask whether a polynomial is zero, so it takes the path
    of the division path over the field Q(i)(x). The _PivotPath keeps the
    (e, j) of that path, its pivot entries p_k and, on a keyed layer, the
    h-pair sums of ``_reduction_phi`` as polynomials, replayed by
    ``_replay`` over the same steps (sums = None on a layer that is not
    keyed, and only the sums that are not the zero polynomial kept). See
    ``_sample_key`` for why a draw at which no p_k vanishes reads its key
    off them."""
    rows: List[dict] = [{} for _ in range(size)]
    for p, q, re_terms, im_terms, _, s in form.entries:
        if q >= size:
            break
        terms = {(m,): (c * s, 0) for m, c in re_terms}
        for m, c in im_terms:
            terms[(m,)] = (terms.get((m,), (0, 0))[0], c * s)
        if terms:
            x = rows[p][q] = _Poly(terms)
            rows[q][p] = -x
    try:
        i_seq, j_seq, steps = _skew_reduce(rows, lambda p: False)
        j_seq = tuple(j_seq)
        table = _case_table(basis, ambient, tuple(i_seq), j_seq)
        sums = None
        if table.keyed:
            ys = _replay(j_seq, steps, basis.n)
            gamma, _ = _gamma_table(basis)
            sums = []
            for ik, jk in table.h_pairs:
                _, y_j = ys.get(jk, (1, {jk: 1}))
                total = _Poly({})
                for p, c in gamma[ik - 1]:
                    if p in y_j:
                        c = (c, 0) if type(c) is int else _FIELDS(c)[:2]
                        total = total + y_j[p] * _Poly({(): c})
                if total:
                    sums.append((ik, total.compiled()))
            sums = tuple(sums)
        path = _PivotPath(table.e, j_seq,
                         tuple(p.compiled() for (p, _), _ in steps), sums)
    except _OverBudget:
        path = False
    basis.layer_tables[("pivots", ambient)] = path
    return path


def _sample_key(basis: AdaptableBasis, ambient: str, form: FormTable,
                size: int, xs: Sequence[int]):
    """The layer key (e, j, phi) at the exact point with integer values xs
    on the leading real basis vectors of the ambient (0 past them), phi
    None on a layer that is not keyed, with no Functional, no JumpData and
    no descriptor. form is the form table of the basis (that of the
    ambient, or of g) and size the ambient's, which ``generic_layer``
    looks up once per call, not per sample.

    When no pivot polynomial of the generic path (``_pivot_path``)
    vanishes at xs, the key is that path's (e, j), with phi the i_k whose
    h-pair sum does not vanish at xs. Any other point, and every point
    when the symbolic run passed its budget, takes the fill, the reduction
    and the key rule of ``layer_descriptor`` (``_layer_key``): the rows
    hold form.den M as plain or Gaussian integers, and ``_skew_reduce``
    and the phi replay run fraction-free on them.

    Both give the same key. Evaluation at xs is a ring homomorphism from
    Z[i][x] to Z[i]. By induction over the steps, each stored entry of
    the symbolic run evaluates to omega(y_g, y_q) at xs for vectors y
    that are nonzero multiples of those of the division path at xs, as
    the entries of the run at xs are (a division back there only rescales
    them). A column the symbolic run passes over, and a row it finds zero,
    is the zero polynomial, so it is zero at xs; the column it takes holds
    the pivot, nonzero at xs. So the run at xs takes the same (i_k, j_k)
    at every step, and skips the same rows. Where a coefficient a_g is a
    nonzero polynomial that vanishes at xs, the symbolic step
    y_g <- p y_g - a_g y_j evaluates to p y_g, a scaling by the nonzero
    p(xs), while the run at xs leaves y_g alone (its coefficient is 0):
    the factor of y_g changes, not the vector. So each replayed s_j y_j
    evaluates to the true y_j at xs times a product of pivot entries,
    nonzero at xs, and each h-pair sum to the true sum of
    ``_reduction_phi`` times a nonzero factor: it vanishes exactly when
    the true sum does.

    The symbolic run is the budgeted one of ``_pivot_path``: a product of
    more than ``_TERMS`` terms or of degree above ``_DEGREE`` stops it,
    and then every sample of the basis and ambient takes the fill and
    reduction."""
    path = basis.layer_tables.get(("pivots", ambient))
    if path is None:
        path = _pivot_path(basis, ambient, form, size)
    if path:
        for p in path.pivots:
            if _vanishes_at(p, xs):
                break
        else:
            sums = path.sums
            return path.e, path.j_seq, (
                None if sums is None else
                tuple(ik for ik, s in sums if not _vanishes_at(s, xs)))
    i_seq, j_seq, steps = _skew_reduce(_fill(form, size, xs, True))
    j_seq = tuple(j_seq)
    table = _case_table(basis, ambient, tuple(i_seq), j_seq)
    return _layer_key(basis, table, j_seq, steps, None)


# the number of points ``generic_layer`` draws: it only locates the
# generic layer, and the report states it as "trials"
TRIALS = 64


def generic_layer(basis: AdaptableBasis, ambient: str = "g",
                  seed: int = 42) -> LayerDescriptor:
    """Layer of a Zariski-dense set, found by exact evaluation at TRIALS
    (64) random integer points drawn from ``seed``, with coordinates in
    [-9, 9]. The winner has maximal card(e); ties break toward the
    lexicographically smallest (e, j). Raises InconsistentSamplingError
    unless more than half of the samples agree with the winner (exactly
    half is not enough), or when no sample gives a usable layer.

    The coordinates are drawn as ``sample_functional`` draws them, and
    ``_sample_key`` reads one key per sample off them, building no
    Functional or descriptor: off the pivot polynomials of the generic
    path (``_pivot_path``) when none vanishes at the sample, since the
    reduction at such a sample makes every choice of the reduction at an
    indeterminate point, and by the fill and reduction otherwise, and at
    every sample of a layer whose symbolic run passes its term and degree
    budget.

    The samples are then described level by level, a level being the
    (e, j) of a key, in the winner order (-card e, e, j), and in draw
    order within a level; the first level that counts a sample wins, and
    no later level is looked at. On a keyed level every sample counts
    under its key, with no descriptor. On a level that is not keyed, where
    phi needs section vectors, each sample gets a ``layer_descriptor`` and
    counts under the descriptor's key; a sample that leaves the layer
    (LayerMismatchError) is skipped, and one that ``section_vectors`` has
    no case for (UnsupportedCaseError) is kept. The keys counted at the
    winning level share its (e, j), and the winner is the one counted
    first. A keyed winner gets one ``layer_descriptor``, on its first
    sample (every descriptor field is a function of the key); a winner
    that is not keyed returns the descriptor of its first sample.

    A kept UnsupportedCaseError sorts at or before the winner, and the
    first one in draw order is raised again, before the count is read, as
    it is when no sample is usable: the generic layer may be one the tool
    cannot describe. A sample on a lower layer is never described, so one
    there that the tool cannot describe is passed over like a mismatch.
    This is the result of describing every sample: the winner, its count,
    its first sample and the errors that sort at or before it depend only
    on the samples whose level sorts at or before the winner's, and the
    order never reads phi.
    """
    rng = random.Random(seed)
    drawn = basis.ambient(ambient)
    form = _form_table(basis, ambient)
    # the samples of each level (e, j), in draw order, with their keys
    levels: Dict[tuple, List[tuple]] = {}
    for t in range(TRIALS):
        xs = _draw_integers(rng, 9, drawn)
        if any(xs):
            key = _sample_key(basis, ambient, form, drawn, xs)
            levels.setdefault(key[:2], []).append((t, xs, key))

    def order(level):
        return (-len(level[0]), level[0], level[1])

    counts: Dict[tuple, int] = {}
    unsupported: List[Tuple[int, UnsupportedCaseError]] = []
    for level in sorted(levels, key=order):
        for t, xs, key in levels[level]:
            desc = None
            if key[2] is None:
                try:
                    desc = layer_descriptor(_integer_point(basis, xs), basis,
                                            ambient)
                except LayerMismatchError:
                    continue
                except UnsupportedCaseError as err:
                    unsupported.append((t, err))
                    continue
                key = desc.key()
            if not counts:
                winner = key, xs, desc
            counts[key] = counts.get(key, 0) + 1
        if counts:
            break
    if unsupported:
        raise min(unsupported, key=itemgetter(0))[1]
    if not counts:
        raise InconsistentSamplingError("no sample produced a usable layer")
    best_key, xs, desc = winner
    count = counts[best_key]
    agreement = count / TRIALS
    if agreement <= 0.5:
        raise InconsistentSamplingError(
            f"winning layer holds only {count}/{TRIALS} samples; more than "
            f"half of the samples must agree with it")
    if desc is None:
        desc = layer_descriptor(_integer_point(basis, xs), basis, ambient)
    # the one descriptor returned, with copies, so that it shares no
    # mapping with the memo
    return replace(desc, primes=dict(desc.primes),
                   case_sets=dict(desc.case_sets), consistency=agreement)


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------

def pfaffian(mat: Sequence[Sequence[GaussianRational]]) -> GaussianRational:
    """Exact Pfaffian of a skew matrix: the signed product of the pivots of
    its symplectic reduction.

    Each step of the reduction is a congruence of determinant 1, so it
    keeps the Pfaffian, and after step k row i_k is zero on every column
    still active except j_k. Expanding along rows i_1, i_2, ... in turn
    leaves one term: Pf = sgn(i_1 j_1 i_2 j_2 ...) * prod_k piv_k. When the
    reduction finds fewer than n/2 pairs, what is left is a zero block and
    Pf = 0.

    The entries are brought over their common denominator D, and
    ``_skew_reduce`` runs fraction-free on the Gaussian integers D m (plain
    ints when m is real), giving each pivot of D m as an exact quotient.
    Their product is +-Pf(D m) = +-D^(n/2) Pf(m), so one division at the
    end gives Pf(m) (``_pivot_pfaffian``, which ``JumpData.pfaffian``
    shares). O(n^3) integer operations, every one exact.
    """
    n = len(mat)
    if n % 2:
        raise OddDimensionError(f"Pfaffian needs even dimension, got {n}")
    if any(len(row) != n for row in mat):
        raise NotSkewError("matrix is not square")
    m = [[GaussianRational.coerce(x) for x in row] for row in mat]
    for i in range(n):
        for j in range(i, n):
            if m[i][j] != -m[j][i]:
                raise NotSkewError(f"entries ({i},{j}) and ({j},{i}) are not skew")
    fields = [[_FIELDS(x) for x in row] for row in m]
    den = lcm(*(d for row in fields for _, _, d in row))
    rows = [{q: (_made(re * (den // d), im * (den // d), 1) if im
                 else re * (den // d))
             for q, (re, im, d) in enumerate(row) if re or im}
            for row in fields]
    i_seq, j_seq, steps = _skew_reduce(rows)
    if 2 * len(steps) < n:
        return ZERO
    return _pivot_pfaffian(i_seq, j_seq, steps, den)


def _pivot_pfaffian(i_seq, j_seq, steps, den: int) -> GaussianRational:
    """sgn(i_1 j_1 i_2 j_2 ...) prod_k pivot_k / den^d over the d steps of
    ``_skew_reduce`` run on den times a skew form: the Pfaffian of the form
    on the positions the steps pair, by increasing position."""
    order = [p for pair in zip(i_seq, j_seq) for p in pair]
    inversions = sum(a > b for x, a in enumerate(order) for b in order[x + 1:])
    out = GR1
    for (num, d), _ in steps:
        out = out * num / d
    out = out / den ** len(steps)
    return -out if inversions % 2 else out
