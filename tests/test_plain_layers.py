"""Plain layers: the layer key read off the jump reduction alone.

A layer is plain when every pair k is in case 0 and sigma(j_k) = j_k. Plain
layers are keyed (``strata._case_table``), so ``strata.layer_descriptor``
skips the section vectors there in either ambient, since each pairing
l[V_k, U_k] is -pivot_k^2, with the pivots of ``_skew_reduce``, and so
never vanishes. ``test_keyed_layers.py`` covers the other keyed classes. On g* the b denominator
(M U_k)_{i_k} is -pivot_k^2 too, and for i_k <= n the h part of U_k is
-pivot_k times the h part of the reduced vector y_{j_k}, so phi follows
from the reduction's h coordinates. The rule and these identities are
checked here at degenerate points, where coordinates are drawn from
{-1, 0, 1} with 30 % zeros, so that lower layers are hit as well as the
generic one: on every valid corpus entry and on the specs
``perfbench/specgen.py`` generates for seeds 1, 7 and 13. The pivots and
the orbit form are read off the dense kernel kept in ``jump_oracle``,
which reduces exactly as the sparse one does.
"""

import pytest

from conftest import (VALID_IDS, case_table, descriptor_outcome,
                      exact_reduction, wb_for)
from gen_specs import GENERATED, degenerate_points, specgen
from jump_oracle import _orbit_form, _skew_reduce
from rref_oracle import identity
from section_oracle import layer_descriptor as oracle_descriptor
from solvlie.algebra import spec_from_dict
from solvlie.functionals import Functional, exp_h_coadjoint
from solvlie.strata import (JumpData, _reduction_phi, jump_data,
                            layer_descriptor, section_vectors)
from solvlie.workbench import Workbench


def _plain(jd):
    """Whether every pair of jd is in case 0 with Z_{j_k} real."""
    case_0 = case_table(jd).in_case[0]
    return all(k in case_0 and jd.basis.sigma[jk] == jk
               for k, jk in enumerate(jd.j_seq, start=1))


def _reduced_vectors(jd):
    """Every y_g of the reduction, over the ambient's adapted vectors: the
    reductions replayed on unit vectors, j_seq positions included."""
    ys = identity(jd.basis.ambient(jd.ambient))
    for jk, steps in zip(jd.j_seq, exact_reduction(jd.steps, jd.den)[0]):
        for g, c in steps:
            ys[g - 1] = [a - c * b for a, b in zip(ys[g - 1], ys[jk - 1])]
    return ys


def _check_plain_g(f, basis, jd, form, pivots, sv):
    nd = basis.n
    ys = _reduced_vectors(jd)
    # every y_g with g <= n lies in n
    assert all(not x for y in ys[:nd] for x in y[nd:]), f.values
    for ik, jk, piv, uk in zip(jd.i_seq, jd.j_seq, pivots, sv.u_adapted):
        # the b denominator l[Z_{i_k}, U_k]
        denom = sum((form[ik - 1][q] * x for q, x in uk.items()), 0)
        assert denom == -piv * piv, f.values
        if ik <= nd:
            assert [uk.get(p, 0) for p in range(nd, basis.dim)] == \
                [-piv * x for x in ys[jk - 1][nd:]], f.values


def _check(wb, seed):
    """Checks one spec; returns how many plain (n*, g*) points it saw."""
    seen = {"n": 0, "g": 0}
    for ambient, basis in (("n", wb.basis), ("g", wb.canonical_basis)):
        for f in degenerate_points(basis, ambient, seed):
            got = descriptor_outcome(layer_descriptor, f, basis, ambient)
            assert got == descriptor_outcome(oracle_descriptor, f, basis,
                                             ambient), (ambient, f.values)
            jd = jump_data(f, basis, ambient)
            if not _plain(jd):
                continue
            assert case_table(jd).keyed, f.values
            seen[ambient] += 1
            _, form, _ = _orbit_form(f, basis, basis.ambient(ambient))
            pivots = _skew_reduce([list(row) for row in form], None)[3]
            sv = section_vectors(f, basis, jd, ambient)
            assert sv.pairings == [-p * p for p in pivots], f.values
            assert got["phi"] == sorted(sv.b_at), f.values
            if ambient == "g":
                _check_plain_g(f, basis, jd, form, pivots, sv)
    return seen["n"], seen["g"]


# entries whose generic g* layer is plain; the other valid ones are not
PLAIN_G = {"anisotropic-heisenberg", "filiform-dilations-repaired",
           "heisenberg-2param", "three-dilations-repaired"}


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_plain_rule_on_corpus_degenerate_points(entry_id):
    _, plain_g = _check(wb_for(entry_id), seed=VALID_IDS.index(entry_id))
    if entry_id in PLAIN_G:
        assert plain_g


def test_plain_rule_on_generated_degenerate_points():
    seen = [_check(Workbench(spec_from_dict(doc)), seed=k)
            for k, doc in enumerate(GENERATED)]
    assert sum(n for n, _ in seen)
    assert sum(g for _, g in seen)


def test_plain_phi_reads_the_weight_not_the_positions():
    # the canonical h part of heisenberg-2param is (B, A) at positions 4
    # and 5, and B acts trivially: a pair (1, 4) has i <= n < j but its b
    # value is zero. A fresh copy of the basis keeps these hand-made keys
    # out of the shared basis's case-table memo.
    shared = wb_for("heisenberg-2param").canonical_basis
    basis = shared.with_h_part(shared.hvecs)
    origin = Functional(basis, [0] * basis.dim, exact=True)
    for jk, want in ((4, ()), (5, (1,))):
        jd = JumpData((1,), (jk,), "g", basis, point=origin)
        assert case_table(jd).h_pairs == ((1, jk),)
        assert _reduction_phi(jd.basis, jd.j_seq, jd.steps,
                              ((1, jk),), jd.point.tol) == want


def test_plain_phi_at_float_points():
    # points moved by the dilation flow are float points; phi on their
    # plain g* layer, which has the h pair (1, 5), is read with the float
    # zero test and agrees with the oracle
    wb = wb_for("heisenberg-2param")
    basis = wb.canonical_basis
    plain = 0
    for k, f in enumerate(degenerate_points(basis, "g", seed=5)):
        a = [0] * wb.spec.n_dim + [(k % 3 - 1) / 2, (k % 4 - 1) / 3]
        moved = exp_h_coadjoint(basis, a, f, mode="float")
        got = descriptor_outcome(layer_descriptor, moved, basis, "g")
        assert got == descriptor_outcome(oracle_descriptor, moved, basis,
                                         "g"), k
        plain += isinstance(got, dict) and got["phi"] == [1]
    assert plain


def test_plain_phi_replays_the_h_steps():
    # gen-3-6-two-step (n = 11, three dilations at positions 12-14): at this
    # point the pairs are (1, 14), (5, 12), (6, 7), (9, 13), (10, 11), and
    # the h-step (5, 12) reduces y_13 by a multiple of Z_12. The weight of
    # Z_9 vanishes on Z_13, so 9 is in phi only through the replayed y_13.
    doc = next(d for d, _ in specgen.generate(3)
               if d["name"] == "gen-3-6-two-step")
    basis = Workbench(spec_from_dict(doc)).canonical_basis
    f = Functional(basis, [1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
                   exact=True)
    jd = jump_data(f, basis, "g")
    assert _plain(jd)
    assert (jd.i_seq, jd.j_seq) == ((1, 5, 6, 9, 10), (14, 12, 7, 13, 11))
    assert (8, 12) not in basis.h_structure
    assert dict(exact_reduction(jd.steps, jd.den)[0][1]).get(13)
    want = sorted(section_vectors(f, basis, jd, "g").b_at)
    assert list(layer_descriptor(f, basis, "g").phi) == want == [1, 5, 9]


def test_plain_flag_follows_case_zero_and_real_j():
    # heisenberg-2param: one pair, Z_i and Z_j real, case 0; its n* layer
    # is plain. spiral-heisenberg rotates the pair, so Z_j is complex. Every
    # plain layer is keyed.
    for entry_id, want in (("heisenberg-2param", True),
                           ("spiral-heisenberg", False)):
        desc = wb_for(entry_id).n_layer
        jd = JumpData(desc.i_seq, desc.j_seq, "n", wb_for(entry_id).basis)
        assert _plain(jd) is want, entry_id
    for entry_id in VALID_IDS:
        wb = wb_for(entry_id)
        desc = wb.g_layer
        jd = JumpData(desc.i_seq, desc.j_seq, "g", wb.canonical_basis)
        assert _plain(jd) is (entry_id in PLAIN_G), entry_id
        if entry_id in PLAIN_G:
            assert case_table(jd).keyed, entry_id
