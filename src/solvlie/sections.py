"""Orbit cross-sections and the little-group data.

Four nested membership oracles over a fixed generic layer:

  * the section of the nilpotent-part orbits (vanishing of l(Z_j(l)) over
    the layer's jump set),
  * its dense dilation-invariant part (nonzero coordinates off the jump
    set),
  * the section of the dilation orbits inside it (unit modulus on the
    paired coordinates), and
  * the section of the full-group orbits in g* (previous conditions on the
    restriction, zero on the normalized dilation directions, free on the
    little-group dual).

Membership evaluates the defining equations directly at the point, in cost
order: the coordinate equations (nonzero off the jump set, unit modulus,
zero on the normalized dilation directions) on the adapted values first,
then the reduction of the point, the match of its jump pairs with the
layer's, and the jump equations on its section vectors. A point that fails
a coordinate equation is refused without a reduction. The constraint lists
only describe which simple form each equation takes.
An equation holds exactly at an exact point and up to ``linalg.FLOAT_TOL``
at a float one (such as a point moved by a dilation flow).

The samplers (simple-equation layers only) share one rejection loop,
``_sample``, over the draws of ``_draws``, which reads the coordinates to
put on the unit circle off the oracle's own MODULUS_ONE constraints.
``sample_lambda_nu`` and ``sample_sigma_circ`` decide each draw through
``SectionOracle.contains``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .adapted import AdaptableBasis
from .algebra import LieAlgebraSpec
from .functionals import Functional, adapted_values, exp_h_coadjoint
from .gaussian import GaussianRational, ZERO, _made, _reduced, parts
from .linalg import Subspace, extend_echelon, invert, is_zero, kernel, zero_test
from .strata import (JumpData, LayerDescriptor, LayerMismatchError,
                     jump_data, section_vectors)


class NormalizationFailedError(ValueError):
    pass


class NotInSectionError(ValueError):
    pass


class UnsupportedLayerError(ValueError):
    """The layer needs machinery outside this tool's sampling support."""


# ---------------------------------------------------------------------------
# little group
# ---------------------------------------------------------------------------

@dataclass
class StabilizerData:
    nu: Tuple[int, ...]                    # adapted indices off the jump set
    k_subalg: Subspace                     # subspace of h (rational rows)
    # A_1..A_r, normalized to Re gamma_{phi_t}(A_u) = delta_tu: this makes
    # W = I in admissibility.disintegration_check
    a_basis: List[Tuple[GaussianRational, ...]]
    phi: Tuple[int, ...]                   # indices i_{s_1} < ... < i_{s_r}

    @property
    def k_dim(self) -> int:
        return self.k_subalg.dim

    @property
    def r(self) -> int:
        return len(self.a_basis)

    def as_dict(self, h_names):
        def combo(row):
            return {name: str(c) for name, c in zip(h_names, row) if c != 0}
        return {
            "nu": list(self.nu),
            "k_dim": self.k_dim,
            "k_basis": [combo([x.re for x in r]) for r in self.k_subalg.rows],
            "a_basis": [combo(r) for r in self.a_basis],
            "phi": list(self.phi),
        }


def stabilizer_data(spec: LieAlgebraSpec, basis: AdaptableBasis,
                    n_layer: LayerDescriptor) -> StabilizerData:
    """The common stabilizer subalgebra k over the dense part of the section,
    plus a normalized complement pairing with the phi coordinates.

    k is the joint kernel of the weights on the off-jump-set coordinates.
    phi walks nu upward and keeps each j whose real weight extends the
    echelon of those kept. A_1..A_r, with Re weight_{phi_s}(A_t) =
    delta_st, are the columns of the inverse of the kept real weights on
    the echelon's pivot columns (invertible, as the echelon is triangular
    there). No nonzero element of their span is in k, so with dim k + r =
    dim h, k and the A_t form a basis of h.
    """
    nd, hd = spec.n_dim, spec.h_dim
    e_set = set(n_layer.e_set)
    nu = tuple(j for j in range(1, nd + 1) if j not in e_set)
    # the real and imaginary weight rows off e, each read once, for k, for
    # phi and for the inverse
    real, rows = {}, []
    for j in nu:
        split = [parts(x) for x in basis.weights[j - 1]]
        real[j] = [re for re, _ in split]
        rows.append(real[j])
        rows.append([im for _, im in split])
    k_sub = Subspace(kernel(rows, hd), hd)

    echelon: List[Dict[int, GaussianRational]] = []
    pivots: List[int] = []
    phi = [j for j in nu if extend_echelon(echelon, pivots, real[j])]

    r = len(phi)
    if k_sub.dim + r != hd:
        raise NormalizationFailedError(
            f"complement mismatch: dim k = {k_sub.dim}, r = {r}, dim h = {hd}")

    inv = invert([[real[j][p] for p in pivots] for j in phi])
    a_basis: List[Tuple[GaussianRational, ...]] = []
    for t in range(r):
        full = [ZERO] * hd
        for p, row in zip(pivots, inv):
            full[p] = row.get(t, ZERO)
        a_basis.append(tuple(full))
    return StabilizerData(nu=nu, k_subalg=k_sub, a_basis=a_basis, phi=tuple(phi))


def canonical_h_vectors(spec: LieAlgebraSpec, stab: StabilizerData):
    """h-part vectors in the order: k-part first, then A_r, ..., A_1 (a
    basis of h, by ``stabilizer_data``)."""
    pad = [ZERO] * spec.n_dim
    return ([tuple(pad + [parts(x)[0] for x in row])
             for row in stab.k_subalg.rows] +
            [tuple(pad + list(a)) for a in reversed(stab.a_basis)])


# ---------------------------------------------------------------------------
# membership oracles
# ---------------------------------------------------------------------------

@dataclass
class Constraint:
    kind: str                 # VANISH | CASE2_COMBO | CASE3_COMBO | MODULUS_ONE
    #                         # | NONZERO | H_PART_ZERO
    index: Optional[int] = None

    def as_dict(self):
        out = {"kind": self.kind}
        if self.index is not None:
            out["index"] = self.index
        return out


def _case_of(j: int, layer: LayerDescriptor) -> int:
    stable = set(layer.stable_set)
    e = set(layer.e_set)
    if j in stable or (j + 1) in e:
        return 1
    if j in set(layer.i_seq):
        return 2
    return 3


class SectionOracle:
    """Membership test for one of the nested cross-sections.

    The dilation-orbit sections ("SigmaCirc" and "Sigma") are cut out by the
    little-group data: they raise ValueError without ``stab``."""

    def __init__(self, kind: str, basis: AdaptableBasis,
                 n_layer: LayerDescriptor,
                 stab: Optional[StabilizerData] = None):
        if kind not in ("Lambda", "LambdaNu", "SigmaCirc", "Sigma"):
            raise ValueError(f"unknown oracle kind {kind!r}")
        if stab is None and kind in ("SigmaCirc", "Sigma"):
            raise ValueError(f"oracle kind {kind!r} needs stabilizer data")
        self.kind = kind
        self.basis = basis
        self.n_layer = n_layer
        self.stab = stab
        self.phi = tuple(stab.phi) if stab is not None else ()
        self.constraints = self._build_constraints()
        # the indices of the coordinate equations, read off the constraints
        self._nonzero = tuple(c.index for c in self.constraints
                              if c.kind == "NONZERO")
        self._modulus_one = tuple(c.index for c in self.constraints
                                  if c.kind == "MODULUS_ONE")

    def _build_constraints(self) -> List[Constraint]:
        cons = [Constraint({1: "VANISH", 2: "CASE2_COMBO", 3: "CASE3_COMBO"}
                           [_case_of(j, self.n_layer)], j)
                for j in self.n_layer.e_set]
        if self.kind == "Lambda":
            return cons
        nd = self.basis.n
        nu = tuple(j for j in range(1, nd + 1)
                   if j not in set(self.n_layer.e_set))
        cons += [Constraint("NONZERO", j) for j in nu]
        if self.kind == "LambdaNu":
            return cons
        cons += [Constraint("MODULUS_ONE", j) for j in self.phi]
        if self.kind == "SigmaCirc":
            return cons
        cons.append(Constraint("H_PART_ZERO"))
        return cons

    @property
    def printable_form(self) -> Optional[str]:
        """Closed form, available when every jump equation is the simple one."""
        if any(c.kind in ("CASE2_COMBO", "CASE3_COMBO") for c in self.constraints):
            return None
        names = self.basis.describe()
        parts = []
        for c in self.constraints:
            if c.kind == "VANISH":
                parts.append(f"l({names[c.index - 1]}) = 0")
            elif c.kind == "NONZERO":
                parts.append(f"l({names[c.index - 1]}) != 0")
            elif c.kind == "MODULUS_ONE":
                parts.append(f"|l({names[c.index - 1]})| = 1")
            elif c.kind == "H_PART_ZERO":
                parts.append("zero on the normalized dilation directions")
        return ", ".join(parts)

    # -- the membership decision -------------------------------------------

    def contains(self, f: Functional) -> bool:
        """Evaluate the oracle's equations at f, in cost order
        (``_member``): the coordinate equations of the kind on the adapted
        values f(Z_j), j <= n, first; then, once the jump pairs of f match
        the layer's, the jump equations on the section vectors."""
        return self._member(f) is not None

    def _member(self, f: Functional) -> Optional[JumpData]:
        """The n* jump data of f when f is in the section, else None: the
        reduction that decided membership, for a caller that reads more off
        it (the Pfaffian of a Plancherel sample).

        The tests run in cost order. The coordinate equations of the kind
        (``_coordinates_hold``) come first, on the adapted values; only a
        point that passes them is reduced (``jump_data``), matched with the
        layer's jump pairs, and given its section vectors, on which the
        jump equations are read. A point that fails a coordinate equation
        is refused without a reduction, so nothing that ``jump_data`` or
        ``section_vectors`` raises (UnsupportedCaseError) reaches the caller
        for it. The answer is that of any order: the section is the
        intersection of all the equations."""
        vanishes = zero_test(f.tol)
        basis = self.basis
        zvals = adapted_values(f, basis.terms[:basis.n])   # f(Z_{p+1})
        if not self._coordinates_hold(f, zvals, vanishes):
            return None
        e_set = self.n_layer.e_set
        jd = jump_data(f, basis, "n")
        if jd.e_set != e_set or jd.j_seq != self.n_layer.j_seq:
            return None
        try:
            sv = section_vectors(f, basis, jd, "n")
        except LayerMismatchError:
            return None
        zero = f.zero
        for j in e_set:
            if not vanishes(sum((x * zvals[p] for p, x in sv.z_adapted[j].items()),
                                zero)):
                return None
        return jd

    @cached_property
    def _dilation_rows(self) -> Tuple[list, ...]:
        """The normalized dilation directions as rows over the real basis
        of g under H_PART_ZERO (Sigma only), built on first use."""
        nd = self.basis.spec.n_dim
        return tuple([ZERO] * nd + list(a)
                     for c in self.constraints if c.kind == "H_PART_ZERO"
                     for a in self.stab.a_basis)

    def _coordinates_hold(self, f: Functional, zvals, vanishes) -> bool:
        """Whether the coordinate equations of the constraints hold at f,
        whose adapted values are zvals: l(Z_j) != 0 off e (NONZERO, every
        kind but Lambda), |l(Z_j)| = 1 on phi (MODULUS_ONE, SigmaCirc and
        Sigma), and zero on the normalized dilation directions
        (H_PART_ZERO, Sigma)."""
        for j in self._nonzero:
            if vanishes(zvals[j - 1]):
                return False
        for j in self._modulus_one:
            zv = zvals[j - 1]
            if not vanishes(zv * zv.conjugate() - 1):
                return False
        for row in self._dilation_rows:
            if not vanishes(f.value(row)):
                return False
        return True

    def as_dict(self):
        out = {
            "kind": self.kind,
            "constraints": [c.as_dict() for c in self.constraints],
        }
        pf = self.printable_form
        if pf is not None:
            out["printable"] = pf
        return out


# ---------------------------------------------------------------------------
# samplers on the sections (simple-equation layers only)
# ---------------------------------------------------------------------------

def _assert_simple_layer(oracle: SectionOracle):
    if any(c.kind in ("CASE2_COMBO", "CASE3_COMBO") for c in oracle.constraints):
        raise UnsupportedLayerError(
            "sampling is only implemented for layers whose jump equations "
            "reduce to coordinate vanishing")


def _rational_circle_point(rng: random.Random) -> GaussianRational:
    # (1-t^2, 2t)/(1+t^2) for t = a/b runs over rational points of the unit
    # circle; it is (b^2-a^2, 2ab)/(a^2+b^2), over b >= 1
    a, b = rng.randint(-9, 9), rng.randint(1, 9)
    return _reduced(b * b - a * a, 2 * a * b, a * a + b * b)


def _draws(oracle: SectionOracle, rng: random.Random):
    """The candidate points of a rejection sample of the oracle's section,
    200 at most.

    Each free adapted coordinate Z_j, j outside e, gets a nonzero integer
    in [-9, 9] (a nonzero Gaussian integer with parts in [-9, 9] when
    conj Z_j = Z_s, s > j, and its conjugate at Z_s); for j in phi it gets
    a point of the unit circle instead, -1 or 1 when Z_j is conj-stable.
    phi is read off the oracle's MODULUS_ONE constraints: empty on Lambda
    and Lambda_nu, the stabilizer's phi on Sigma-circ and Sigma. The
    caller keeps the first draw the oracle accepts; the others fall in a
    lower layer.
    """
    _assert_simple_layer(oracle)
    basis = oracle.basis
    e = set(oracle.n_layer.e_set)
    phi = {c.index for c in oracle.constraints if c.kind == "MODULUS_ONE"}
    for _ in range(200):
        zvals: List[GaussianRational] = [ZERO] * basis.dim
        for j in range(1, basis.n + 1):
            if j in e:
                continue
            s = basis.sigma[j]
            if s == j:
                if j in phi:
                    zvals[j - 1] = _made(rng.choice((-1, 1)), 0, 1)
                else:
                    v = 0
                    while v == 0:
                        v = rng.randint(-9, 9)
                    zvals[j - 1] = _made(v, 0, 1)
            elif s > j:
                if j in phi:
                    z = _rational_circle_point(rng)
                else:
                    re = im = 0
                    while re == 0 and im == 0:
                        re, im = rng.randint(-9, 9), rng.randint(-9, 9)
                    z = _made(re, im, 1)
                zvals[j - 1] = z
                zvals[s - 1] = z.conjugate()
        yield Functional.from_adapted(basis, zvals)
    raise UnsupportedLayerError("could not hit the generic layer by sampling")


def _sample(oracle: SectionOracle, rng: random.Random, accept):
    """(f, accept(f)) for the first draw f of ``_draws`` at which accept
    is truthy: ``oracle.contains`` for a point, ``oracle._member`` for the
    point with the n* jump data of the reduction that accepted it."""
    for f in _draws(oracle, rng):
        got = accept(f)
        if got:
            return f, got


def sample_lambda_nu(oracle: SectionOracle, rng: random.Random) -> Functional:
    """Random exact point of the dense invariant part of the section.

    Draws free coordinates and rejects the (measure-zero) draws that fall
    into a lower layer; nonzero coordinates alone do not guarantee
    genericity.
    """
    return _sample(oracle, rng, oracle.contains)[0]


def sample_sigma_circ(oracle: SectionOracle, rng: random.Random) -> Functional:
    """Random exact point of the dilation-orbit section (rejection sampled)."""
    return _sample(oracle, rng, oracle.contains)[0]


# ---------------------------------------------------------------------------
# projection along dilation orbits
# ---------------------------------------------------------------------------

def h_project(f: Functional, stab: StabilizerData,
              oracle_lambda_nu: SectionOracle) -> Tuple[Tuple[float, ...], Functional]:
    """Unique dilation parameters (mod the little group) moving f onto the
    dilation-orbit section, and the landed point.

    Solves Re weight_{phi_t}(X) = log|f(Z_{phi_t})| on the normalized
    complement, where the system is diagonal, then flows by exp(X).

    f must be in the dense invariant part Lambda_nu (checked by its oracle).
    H acts diagonally on the adapted basis, (exp X . l)(Z_j) =
    e^{-gamma_j(X)} l(Z_j), and Lambda_nu is H-invariant, so the landed
    point is in Lambda_nu too and lies in the dilation-orbit section exactly
    when |l(Z_j)| = 1 on the stabilizer's phi, the phi of that section's
    oracle. Only that modulus condition is checked at the landing, with
    the landed point's zero test.
    """
    if not oracle_lambda_nu.contains(f):
        raise NotInSectionError("point is not in the dense invariant section part")
    basis = f.basis
    spec = basis.spec
    params = [math.log(abs(complex(f.z(j)))) for j in stab.phi]
    x = [0.0] * spec.dim
    for t, a in zip(params, stab.a_basis):
        for u, c in enumerate(a):
            x[spec.n_dim + u] += t * float(c)
    sigma = exp_h_coadjoint(spec, x, f)
    for j in stab.phi:
        zv = sigma.z(j)
        if not is_zero(zv * zv.conjugate() - 1, sigma.tol):
            raise NotInSectionError(
                f"projection missed the section: |l(Z_{j})| is not 1")
    return tuple(params), sigma
