"""Dual-route validations.

The full-section oracle is implemented through the restriction route
(membership of the restriction in the dilation-orbit section, zero on the
normalized dilation directions, free little-group dual). The direct route
evaluates the defining equations of the section in g* itself:
l(Z_j(l)) = 0 off the paired indices and |b_j(l)| = 1 on them. On points
with all free coordinates nonzero the two must agree exactly.
"""

import random
from fractions import Fraction

import pytest

from conftest import point, wb_for
from disintegration_oracle import (within_standard_errors,
                                   workbench_disintegration)
from section_oracle import real_vector
from solvlie.gaussian import GaussianRational as G
from solvlie.strata import (LayerMismatchError, jump_data, section_vectors)


def sigma_direct(wb, l) -> bool:
    basis = wb.canonical_basis
    jd = jump_data(l, basis, "g")
    if jd.e_set != wb.g_layer.e_set or jd.j_seq != wb.g_layer.j_seq:
        return False
    try:
        sv = section_vectors(l, basis, jd, "g")
    except LayerMismatchError:
        return False
    phi = set(wb.g_layer.phi)
    for j in jd.e_set:
        if j in phi:
            continue
        if not l.value(real_vector(basis, sv.z_adapted[j])).is_zero():
            return False
    for j in phi:
        b = sv.b_at.get(j)
        if b is None or b.abs2() != 1:
            return False
    return True


def _nu_nonzero(wb, l) -> bool:
    return all(not l.z(j).is_zero() for j in wb.stabilizer.nu)


def _assert_routes_agree(wb, points, expect_hits=True):
    hits = 0
    for l in points:
        if not _nu_nonzero(wb, l):
            continue
        a = wb.oracle_sigma.contains(l)
        b = sigma_direct(wb, l)
        assert a == b, [str(v) for v in l.values]
        hits += a
    if expect_hits:
        assert hits > 0


def test_sigma_dual_route_heisenberg_2param():
    wb = wb_for("heisenberg-2param")
    rng = random.Random(101)
    pts = [point(wb, Z=1), point(wb, Z=-1), point(wb, Z=1, B=9),
           point(wb, Z=1, A=1), point(wb, Z=2), point(wb, Z=1, X=1),
           point(wb, Z=-1, Y=2, B=1)]
    for _ in range(40):
        pts.append(point(wb, Z=rng.choice((1, -1, 2, 3)),
                         Y=rng.randint(-1, 1), X=rng.randint(-1, 1),
                         A=rng.randint(-1, 1), B=rng.randint(-4, 4)))
    _assert_routes_agree(wb, pts)


def test_sigma_dual_route_complex_dilation():
    wb = wb_for("heisenberg-complex-dilation")
    rng = random.Random(102)
    pts = [point(wb, Z=1), point(wb, Z=-1), point(wb, Z=2),
           point(wb, Z=1, X=1), point(wb, Z=1, Y=-2), point(wb, Z=1, A=1)]
    for _ in range(40):
        pts.append(point(wb, Z=rng.choice((1, -1, 3)),
                         X=rng.randint(-1, 1), Y=rng.randint(-1, 1),
                         A=rng.randint(-1, 1)))
    _assert_routes_agree(wb, pts)


def test_sigma_dual_route_coupled_pairs():
    # exercises the non-simple jump equation: the direct route reproduces
    # the real pairing constraint of the x-block against the unit z
    wb = wb_for("coupled-pairs")
    good = point(wb, Z1=1, X2=1)
    tilted = point(wb, Z1=Fraction(3, 5), Z2=Fraction(4, 5), X1=4, X2=-3)
    bad_pairing = point(wb, Z1=1, X1=1, X2=1)
    bad_modulus = point(wb, Z1=2, X2=1)
    bad_h = point(wb, Z1=1, X2=1, A=1)
    assert sigma_direct(wb, good)
    assert sigma_direct(wb, tilted)
    assert not sigma_direct(wb, bad_pairing)
    assert not sigma_direct(wb, bad_modulus)
    assert not sigma_direct(wb, bad_h)
    rng = random.Random(103)
    pts = [good, tilted, bad_pairing, bad_modulus, bad_h]
    for _ in range(40):
        pts.append(point(wb, Z1=rng.choice((1, -1, 2)),
                         Z2=rng.randint(-1, 1), Y=rng.randint(-1, 1),
                         X1=rng.randint(-2, 2), X2=rng.randint(-2, 2),
                         A=rng.randint(-1, 1)))
    _assert_routes_agree(wb, pts)


def test_b_value_exact_complex_dilation():
    # at l = (z, 0, 0, 0) the paired-index value is -1/z exactly
    wb = wb_for("heisenberg-complex-dilation")
    for z in (2, -3, Fraction(5, 7)):
        l = point(wb, Z=z)
        sv = section_vectors(l, wb.canonical_basis, ambient="g")
        assert sv.b_at[1] == G(-1) / G(z)


def test_disintegration_rank_two_example():
    # two free coordinates, two dilation parameters, four section points
    wb = wb_for("filiform-dilations-repaired")
    rep = workbench_disintegration(wb, mc_samples=4 * 10 ** 6, seed=777)
    assert abs(rep.ratio_of_ratios - 1.0) <= 0.02
    assert len(rep.lhs) == 2 and all(v > 0 for v in rep.rhs)
    assert within_standard_errors(rep, wb.disintegration())
