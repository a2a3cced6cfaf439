"""Section vectors in adapted coordinates against the real-basis oracle.

``section_oracle.section_vectors`` is the real-coordinate computation that
``solvlie.strata.section_vectors`` replaced. On every valid corpus entry,
both ambients, seeded exact points (half of them sparsified, so that zero
entries of the form occur) and float points moved by the dilation flow,
the two must give the same V_k, U_k, Z_j(l) (the library's adapted
coordinates read over the real basis), b values and pairings (exactly
at exact points, within FLOAT_TOL times the size of the values at float
points), or raise the same error; the orbit form rebuilt column by column
through ``JumpData.image`` must be l[Z_p, Z_q] at every (p, q), and its
case table the oracle's. Sparse points paired with the jump data of a generic
point leave the layer the case table assumes, so both sides must raise
there as well. One more input, a Heisenberg basis on which ad(A) has a term
below the diagonal, covers the lower-flag terms of the brackets with the
h-part vectors, which no corpus basis has.
"""

import random
from fractions import Fraction

import pytest

from adapted_oracle import verify
from conftest import VALID_IDS, case_table, wb_for
from section_oracle import layer_data as oracle_layer_data
from section_oracle import real_section_vectors
from section_oracle import section_vectors as oracle_section_vectors
from solvlie.adapted import build_adaptable_basis
from solvlie.algebra import spec_from_dict
from solvlie.functionals import Functional, exp_h_coadjoint, sample_functional
from solvlie.gaussian import ZERO
from solvlie.linalg import FLOAT_TOL
from solvlie.strata import (LayerMismatchError, UnsupportedCaseError,
                            jump_data, section_vectors)


def _assert_close(got, want, exact):
    if exact:
        assert got == want
    else:
        assert abs(got - want) <= FLOAT_TOL * max(1.0, abs(want))


def _assert_vec(got, want, exact):
    assert len(got) == len(want)
    if exact:
        assert list(got) == list(want)
        return
    scale = max([1.0] + [abs(x) for x in want])
    for a, b in zip(got, want):
        assert abs(a - b) <= FLOAT_TOL * scale


def _check_form(l, basis, ambient):
    jd = jump_data(l, basis, ambient)
    vecs = basis.vectors
    if not l.exact:
        vecs = [[complex(x) for x in v] for v in vecs]
    n_amb = basis.ambient(ambient)
    assert len(jd.form) == n_amb
    # M column by column, as the images of the unit vectors, zero off the
    # recorded entries
    form = [[ZERO if l.exact else 0j] * n_amb for _ in range(n_amb)]
    for q in range(n_amb):
        col = jd.image({q: 1})
        assert list(col) == sorted(col)
        for p, x in col.items():
            assert x
            form[p][q] = x
    for p in range(n_amb):
        for q in range(n_amb):
            _assert_close(form[p][q], l.pair(vecs[p], vecs[q]), l.exact)
    return jd


def _check_point(l, basis, ambient, jd=None) -> bool:
    """Compare at one point; True when both sides computed section vectors,
    False when both raised the same error."""
    exact = l.exact
    if jd is None:
        jd = _check_form(l, basis, ambient)
    n_amb = basis.ambient(ambient)
    assert case_table(jd)[:3] == oracle_layer_data(basis, jd, n_amb)
    try:
        old = oracle_section_vectors(l, basis, jd, ambient)
    except (LayerMismatchError, UnsupportedCaseError) as exc:
        with pytest.raises(type(exc)):
            section_vectors(l, basis, jd, ambient)
        return False
    new = real_section_vectors(section_vectors(l, basis, jd, ambient))
    assert len(new.v_list) == len(old.v_list) == jd.d
    for got, want in zip(new.v_list + new.u_list, old.v_list + old.u_list):
        _assert_vec(got, want, exact)
    assert sorted(new.z_at) == sorted(old.z_at)
    for j in old.z_at:
        _assert_vec(new.z_at[j], old.z_at[j], exact)
    assert sorted(new.b_at) == sorted(old.b_at)
    for j in old.b_at:
        _assert_close(new.b_at[j], old.b_at[j], exact)
    for got, want in zip(new.pairings, old.pairings):
        _assert_close(got, want, exact)
    return True


def _sparsified(l, rng):
    vals = [v if rng.random() < 0.5 else Fraction(0) for v in l.values]
    return Functional(l.basis, vals, exact=True)


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_section_vectors_match_oracle(entry_id):
    rng = random.Random(90 + VALID_IDS.index(entry_id))
    wb = wb_for(entry_id)
    basis, spec = wb.canonical_basis, wb.spec
    outcomes = []
    for ambient in ("n", "g"):
        for k in range(6):
            l = sample_functional(basis, rng, bound=(1, 2, 9)[k % 3],
                                  support=ambient)
            if k % 2:
                l = _sparsified(l, rng)
            outcomes.append(_check_point(l, basis, ambient))
        for _ in range(4):
            generic = sample_functional(basis, rng, support=ambient)
            jd = jump_data(generic, basis, ambient)
            l = _sparsified(sample_functional(basis, rng, bound=1,
                                              support=ambient), rng)
            outcomes.append(_check_point(l, basis, ambient, jd))
    for _ in range(3 if spec.h_dim else 0):
        l = sample_functional(basis, rng, support="g")
        a = [0.0] * spec.dim
        for t in range(spec.n_dim, spec.dim):
            a[t] = rng.uniform(-1.5, 1.5)
        moved = exp_h_coadjoint(spec, a, l, mode="float")
        assert not moved.exact
        for ambient in ("n", "g"):
            outcomes.append(_check_point(moved, basis, ambient))
    assert outcomes.count(True) >= 12 and outcomes.count(False) >= 1


def _lower_flag_heisenberg():
    """Heisenberg with A weights 1, 1, 2 on X, Y, Z and the hint
    (Z, Y + Z, X). Then [A, Z_2] = Z_2 + Z_1: the basis is not diagonal,
    so the brackets with A have terms below the diagonal, which no corpus
    basis has."""
    spec = spec_from_dict({
        "name": "heisenberg-lower-flag",
        "n_basis": ["X", "Y", "Z"],
        "h_basis": ["A"],
        "brackets": [
            {"x": "X", "y": "Y", "value": [{"c": "1", "b": "Z"}]},
            {"x": "A", "y": "X", "value": [{"c": "1", "b": "X"}]},
            {"x": "A", "y": "Y", "value": [{"c": "1", "b": "Y"}]},
            {"x": "A", "y": "Z", "value": [{"c": "2", "b": "Z"}]}],
        "adaptable_hint": [
            {"label": "Z1", "value": [{"c": "1", "b": "Z"}]},
            {"label": "Z2", "value": [{"c": "1", "b": "Y"}, {"c": "1", "b": "Z"}]},
            {"label": "Z3", "value": [{"c": "1", "b": "X"}]}]})
    return spec, build_adaptable_basis(spec, hint=spec.adaptable_hint)


def test_section_vectors_match_oracle_off_diagonal_basis():
    spec, basis = _lower_flag_heisenberg()
    assert not verify(spec, basis.nvecs, basis.hvecs).diagonal_exact
    rng = random.Random(77)
    outcomes = []
    for ambient in ("n", "g"):
        for _ in range(30):
            l = sample_functional(basis, rng, support=ambient)
            a = [0.0] * spec.n_dim + [rng.uniform(-1.5, 1.5)]
            moved = exp_h_coadjoint(spec, a, l, mode="float")
            outcomes.append(_check_point(l, basis, ambient))
            outcomes.append(_check_point(moved, basis, ambient))
    assert outcomes == [True] * 120
