"""Points of g* and the two coadjoint flows.

A functional is stored through its values on the real basis of g, which
makes the reality constraint l(conj(Z)) = conj(l(Z)) automatic. Exact
functionals carry Fractions; float functionals carry Python floats (used
for dilation flows, whose matrices have entries e^{t}).

Conventions fixed once for the whole package:

    [A, Z_j] = gamma_j(A) Z_j        (g * l)(X) = l(Ad_{g^{-1}} X)

so exp(A) scales adapted coordinates by e^{-gamma_j(A)} and exp(X), X in n,
acts through the exact series l_{k+1} = l_k (-ad X) / (k + 1), which ends
because ad X is nilpotent.
"""

from __future__ import annotations

import cmath
import random
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import List, Optional, Sequence, Union

from .adapted import AdaptableBasis
from .algebra import LieAlgebraSpec
from .gaussian import GaussianRational, ZERO, _FIELDS
from .linalg import FLOAT_TOL, REALITY_TOL, is_zero

Scalar = Union[GaussianRational, complex]


class NotUnipotentError(ValueError):
    pass


class NeedsFloatError(ValueError):
    """Raised where an exact point is required and a float one is given:
    by ``JumpData.polarization`` and ``JumpData.pfaffian``."""


class RealityError(ValueError):
    pass


def _real_fraction(k: int, v) -> Fraction:
    """values[k] of an exact point as a Fraction; a GaussianRational must
    be real."""
    try:
        return Fraction(v)
    except TypeError:
        z = GaussianRational.coerce(v)
    if not z.is_real():
        raise RealityError(f"values[{k}] of an exact point is not real: {z}")
    return z.re


class Functional:
    __slots__ = ("basis", "values", "exact")

    def __init__(self, basis: AdaptableBasis, values: Sequence, exact: bool):
        self.basis = basis
        if exact:
            try:
                self.values = tuple(v if isinstance(v, Fraction) else Fraction(v)
                                    for v in values)
            except TypeError:
                self.values = tuple(_real_fraction(k, v)
                                    for k, v in enumerate(values))
        else:
            self.values = tuple(float(v) for v in values)
        self.exact = exact
        if len(self.values) != basis.dim:
            raise ValueError("wrong number of coordinates")

    @property
    def tol(self) -> Optional[float]:
        """Zero tolerance of computations at this point: None when exact."""
        return None if self.exact else FLOAT_TOL

    @property
    def zero(self) -> Scalar:
        """The zero of computations at this point: exact or complex."""
        return ZERO if self.exact else 0j

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_adapted(cls, basis: AdaptableBasis, zvals: Sequence) -> "Functional":
        """Build from values on the adapted basis; enforces reality exactly.

        The basis matrix is block diagonal, so the values x on the real
        basis are the stored block inverses applied to zvals: each x_m is
        summed on integers, the table's numerators of row m of an inverse
        (``_inverse_table``) against the numerators of zvals over their
        lcm, and is real iff its imaginary sum is 0.
        """
        fields = [_FIELDS(GaussianRational.coerce(z)) for z in zvals]
        if len(fields) != basis.dim:
            raise ValueError("need one value per adapted basis vector")
        den = lcm(*(d for _, _, d in fields))
        re = [n * (den // d) for n, _, d in fields]
        im = [m * (den // d) for _, m, d in fields]
        values = []
        for scale, row in _inverse_table(basis):
            x = y = 0
            for k, a, b in row:
                p, q = re[k], im[k]
                x += a * p - b * q
                y += a * q + b * p
            if y:
                raise RealityError("values violate l(conj Z) = conj l(Z)")
            values.append(Fraction(x, scale * den))
        return cls(basis, values, exact=True)

    def to_float(self) -> "Functional":
        if not self.exact:
            return self
        return Functional(self.basis, [float(v) for v in self.values], exact=False)

    # -- evaluation --------------------------------------------------------

    def value(self, vec: Sequence) -> Scalar:
        """Evaluate on a coordinate vector of g_C (complex-linear extension),
        in the mode of this point: the sum starts at the point's zero, and an
        exact coordinate times a float value is the float product."""
        total = self.zero
        for c, v in zip(vec, self.values):
            if c and v:
                total = total + c * v
        return total

    def z(self, j: int) -> Scalar:
        """Value on the j-th adapted basis vector (1-based)."""
        return adapted_values(self, self.basis.terms[j - 1:j])[0]

    def zvalues(self) -> List[Scalar]:
        return adapted_values(self, self.basis.terms)

    def pair(self, u: Sequence, v: Sequence) -> Scalar:
        """The orbit form at this point: l([u, v])."""
        return self.value(self.basis.spec.bracket(u, v))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def __repr__(self):
        vals = ", ".join(str(v) for v in self.values)
        return f"Functional[{'exact' if self.exact else 'float'}]({vals})"


def _inverse_table(basis: AdaptableBasis) -> tuple:
    """The block inverses of the basis matrix on integers, built once per
    basis and kept in ``basis.layer_tables["inverse"]``: for each real
    coordinate m, (D, ((k, a, b), ...)), where row m of the inverse of its
    block is sum_k (a + b i) / D at the adapted index k (h-block indices
    offset by n) and D is the lcm of the row's denominators."""
    table = basis.layer_tables.get("inverse")
    if table is None:
        rows = []
        for offset, inverse in ((0, basis.n_inverse), (basis.n, basis.h_inverse)):
            for row in inverse:
                fields = [(k, *_FIELDS(c)) for k, c in row]
                den = lcm(*(d for _, _, _, d in fields))
                rows.append((den, tuple((offset + k, n * (den // d), m * (den // d))
                                        for k, n, m, d in fields)))
        table = basis.layer_tables["inverse"] = tuple(rows)
    return table


def adapted_values(l: Functional, terms) -> List[Scalar]:
    """The values l(Z) on adapted vectors Z given by their nonzero entries
    (m, c) over the real basis (rows of ``AdaptableBasis.terms``): the one
    read of a point's adapted values. Each sum starts at its first nonzero
    product, saving an addition to zero."""
    zero, values = l.zero, l.values
    out = []
    for row in terms:
        x = zero
        for m, c in row:
            v = values[m]
            if v:
                x = c * v if x is zero else x + c * v
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# unipotent coadjoint flow: exact polynomial series
# ---------------------------------------------------------------------------

def _neg_ad_columns(spec: LieAlgebraSpec, x_vec) -> List[List[tuple]]:
    """Column j of -ad x as its nonzero (k, -[x, e_j]_k), from the sparse
    structure constants; the entries are real Fractions."""
    cols = []
    for j in range(spec.dim):
        col: dict = {}
        for i, xi in enumerate(x_vec):
            if xi:
                for k, c in spec.bracket_sparse(i, j):
                    col[k] = col.get(k, ZERO) - xi * c
        if any(not c.is_real() for c in col.values()):
            raise ValueError("ad matrix of a real element must be real")
        cols.append([(k, c.re) for k, c in col.items() if c])
    return cols


def _flow_args(spec_or_basis, vec, l: Functional):
    """(basis, spec, vec) of a flow along vec at l, once spec_or_basis is
    checked to be l.basis or l.basis.spec (a flow acts on the algebra l
    lives on) and vec to have one coordinate per basis element of g; a
    dict of labels is read by ``spec.vector_from_labels``."""
    basis = l.basis
    spec = basis.spec
    if spec_or_basis is not basis and spec_or_basis is not spec:
        raise ValueError("a flow takes the basis of l or its spec, "
                         "l.basis or l.basis.spec")
    if isinstance(vec, dict):
        return basis, spec, spec.vector_from_labels(vec)
    if len(vec) != spec.dim:
        raise ValueError(f"a flow direction has dim g = {spec.dim} "
                         f"coordinates, got {len(vec)}")
    return basis, spec, vec


def exp_unipotent_coadjoint(spec_or_basis, x_vec, l: Functional) -> Functional:
    """Coadjoint action of exp(x), x in n: exact on exact functionals.

    Sums the series l_0 = l, l_{k+1} = l_k (-ad x) / (k + 1) over the
    values of l on the real basis, where (l (-ad x))_j = -l([x, e_j]).
    spec_or_basis must be l.basis or l.basis.spec, and x_vec have dim g
    coordinates or be a dict of labels (else ValueError).
    """
    basis, spec, x_vec = _flow_args(spec_or_basis, x_vec, l)
    nd = spec.n_dim
    for m in range(nd, spec.dim):
        if not is_zero(x_vec[m]):
            raise NotUnipotentError("element has a nonzero h-component")
    x_vec = [GaussianRational.coerce(c) for c in x_vec]
    cols = _neg_ad_columns(spec, x_vec)
    term = list(l.values)
    out = list(term)
    k = 1
    while True:
        # a Fraction constant times a float value is the float product; the
        # sum starts at Fraction(0), not 0, as 0 / k would be a float
        term = [sum((c * term[p] for p, c in col), Fraction(0)) / k for col in cols]
        if not any(term):
            break
        if k > spec.dim + 1:
            raise NotUnipotentError("ad(x) is not nilpotent")
        out = [a + b for a, b in zip(out, term)]
        k += 1
    return Functional(basis, out, exact=l.exact)


# ---------------------------------------------------------------------------
# dilation coadjoint flow: diagonal in an exact joint eigenbasis
# ---------------------------------------------------------------------------

def exp_h_coadjoint(spec_or_basis, a_vec, l: Functional,
                    mode: str = "float") -> Functional:
    """Coadjoint action of exp(a), a in h: a float map of any point, since
    exp(a) scales l(Z_j) by e^{-gamma_j(a)}; mode must be "float" (else
    ValueError). The flow reads the eigen coordinates y_i = l(row_i) from
    the nonzero entries of each row (``EigenBasis.float_terms``), scales
    them by e^{-gamma_i(a)}, and maps them back to real coordinates by
    x = inverse y in double precision, raising RealityError past
    ``linalg.REALITY_TOL``. The eigen rows and the inverse of their n block
    are computed exactly once per spec (``LieAlgebraSpec.eigenbasis``), so
    a call does no elimination. spec_or_basis must be l.basis or
    l.basis.spec, and a_vec have dim g coordinates or be a dict of labels
    (else ValueError).
    """
    if mode != "float":
        raise ValueError(f"mode must be 'float', got {mode!r}")
    basis, spec, a_vec = _flow_args(spec_or_basis, a_vec, l)
    for m in range(spec.n_dim):
        if not is_zero(a_vec[m]):
            raise ValueError("element has a nonzero n-component")
    eig = spec.eigenbasis()
    nd, hd = spec.n_dim, spec.h_dim
    values = l.to_float().values
    # eigen coordinates of the n-part, scaled by e^{-gamma(a)}
    y = []
    for terms, ws in zip(eig.float_terms, eig.weights):
        g = 0j
        for t in range(hd):
            g += complex(a_vec[nd + t]) * complex(ws[t])
        y.append(sum((c * values[m] for m, c in terms), 0j) * cmath.exp(-g))
    # recover the real coordinates: sum_m rows[i][m] x_m = y_i
    x = [sum(c * yi for c, yi in zip(row, y)) for row in eig.inverse]
    new = list(values)
    for m in range(nd):
        if abs(x[m].imag) > REALITY_TOL * (1 + abs(x[m])):
            raise RealityError("flow produced a non-real functional")
        new[m] = x[m].real
    return Functional(basis, new, exact=False)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _integer(v: int) -> Fraction:
    """Fraction(v), one shared object per integer drawn by the samplers."""
    return Fraction(v)


def _draw_integers(rng: random.Random, bound: int, k: int) -> List[int]:
    """k integers in [-bound, bound]: the values, and the random stream,
    of k calls ``rng.randint(-bound, bound)``.

    The randint of ``random.Random`` draws r = getrandbits(w), with w the
    bit length of the width 2 bound + 1, until r < 2 bound + 1, and
    returns r - bound; this loop does the same without the randrange
    layers. A subclass whose randint does not draw through getrandbits
    gets another stream. Raises ValueError when bound < 0, where randint
    has an empty range."""
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    width = 2 * bound + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(k):
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        out.append(r - bound)
    return out


def _integer_point(basis: AdaptableBasis, xs: Sequence[int]) -> Functional:
    """The exact functional with integer values xs on the leading real
    basis vectors, and 0 on the rest."""
    vals = [_integer(v) for v in xs]
    vals += [_integer(0)] * (basis.dim - len(vals))
    return Functional(basis, vals, exact=True)


def sample_functional(basis: AdaptableBasis, rng: random.Random,
                      bound: int = 9, support: str = "g") -> Functional:
    """Random exact functional with integer coordinates in [-bound, bound]
    on the real basis of the ambient ``support``, 'n' or 'g', and 0 past
    it. The coordinates are those of ``rng.randint(-bound, bound)`` called
    once per coordinate, in order (``_draw_integers``). Raises ValueError
    for an unknown support or a negative bound."""
    return _integer_point(
        basis, _draw_integers(rng, bound, basis.ambient(support)))
