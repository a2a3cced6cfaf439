"""The one-pass jump reduction against the flag/annihilator recursion.

``jump_oracle.jump_data`` is the recursion the reduction replaced. Both
must give the same jump pairs on every valid corpus entry, on exact points
(dense and sparse, so that zero entries of the form occur); on points of
n* the polarizing subspace must equal the recursion's last annihilator h_d.
The recursion runs at exact points only. Jump pairs are H-invariant, so at
a float point moved by the dilation flow the reduction must give the
recursion's jump pairs at the exact start point.
"""

import random
from fractions import Fraction

import pytest

from conftest import VALID_IDS, wb_for
from jump_oracle import jump_data as recursion_jump_data
from solvlie.functionals import Functional, exp_h_coadjoint, sample_functional
from solvlie.strata import jump_data


def _assert_same(l, basis, ambient):
    new = jump_data(l, basis, ambient)
    old = recursion_jump_data(l, basis, ambient)
    assert (new.i_seq, new.j_seq) == (old.i_seq, old.j_seq), l
    if ambient == "n":
        assert new.polarization()[1] == old.h_flag[-1], l


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_reduction_matches_recursion(entry_id):
    rng = random.Random(70 + VALID_IDS.index(entry_id))
    wb = wb_for(entry_id)
    basis, spec = wb.canonical_basis, wb.spec
    for ambient in ("n", "g"):
        for k in range(6):
            l = sample_functional(basis, rng, bound=(1, 2, 9)[k % 3],
                                  support=ambient)
            if k % 2:
                vals = [v if rng.random() < 0.5 else Fraction(0)
                        for v in l.values]
                l = Functional(basis, vals, exact=True)
            _assert_same(l, basis, ambient)
    for _ in range(3 if spec.h_dim else 0):
        l = sample_functional(basis, rng, support="g")
        a = [0.0] * spec.dim
        for t in range(spec.n_dim, spec.dim):
            a[t] = rng.uniform(-1.5, 1.5)
        moved = exp_h_coadjoint(spec, a, l, mode="float")
        assert not moved.exact
        for ambient in ("n", "g"):
            got = jump_data(moved, basis, ambient)
            want = recursion_jump_data(l, basis, ambient)
            assert (got.i_seq, got.j_seq) == (want.i_seq, want.j_seq), moved
