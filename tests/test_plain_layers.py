"""Plain n* layers: the layer key read off the jump reduction alone.

A layer is plain when every pair k is in case 0 and sigma(j_k) = j_k. There
``strata.layer_descriptor`` with ambient 'n' skips the section vectors,
since each pairing l[V_k, U_k] is -pivot_k^2, with the pivots of
``_skew_reduce``, and so never vanishes. The rule is checked here at
degenerate points, where coordinates are drawn from {-1, 0, 1} with 30 %
zeros, so that lower layers are hit as well as the generic one: on every
valid corpus entry and on the specs ``perfbench/specgen.py`` generates for
seeds 1, 7 and 13.
"""

import random

import pytest

from conftest import VALID_IDS, wb_for
from solvlie.algebra import spec_from_dict
from solvlie.functionals import Functional
from solvlie.strata import (_case_table, _orbit_form, _skew_reduce, jump_data,
                            layer_descriptor, section_vectors)
from solvlie.workbench import Workbench
from test_layer_memo import GENERATED, oracle_descriptor

POINTS = 12


def _degenerate_points(basis, support, seed):
    rng = random.Random(seed)
    drawn = basis.n if support == "n" else basis.dim
    for _ in range(POINTS):
        vals = [0 if rng.random() < 0.3 else rng.choice((-1, 1))
                for _ in range(drawn)]
        yield Functional(basis, vals + [0] * (basis.dim - drawn), exact=True)


def _outcome(descriptor, f, basis, ambient):
    try:
        return descriptor(f, basis, ambient).as_dict()
    except ValueError as exc:
        return type(exc).__name__


def _check(wb, seed):
    plain_seen = 0
    for ambient, basis in (("n", wb.basis), ("g", wb.canonical_basis)):
        for f in _degenerate_points(basis, ambient, seed):
            assert _outcome(layer_descriptor, f, basis, ambient) == \
                _outcome(oracle_descriptor, f, basis, ambient), (ambient, f.values)
            if ambient != "n":
                continue
            jd = jump_data(f, basis, ambient)
            if not _case_table(jd)[4]:
                continue
            plain_seen += 1
            _, form, _ = _orbit_form(f, basis, basis.ambient(ambient))
            pivots = _skew_reduce(form, None)[3]
            sv = section_vectors(f, basis, jd, ambient)
            assert sv.pairings == [-p * p for p in pivots], f.values
    return plain_seen


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_plain_rule_on_corpus_degenerate_points(entry_id):
    _check(wb_for(entry_id), seed=VALID_IDS.index(entry_id))


def test_plain_rule_on_generated_degenerate_points():
    seen = sum(_check(Workbench(spec_from_dict(doc)), seed=k)
               for k, doc in enumerate(GENERATED))
    assert seen


def test_plain_flag_follows_case_zero_and_real_j():
    # heisenberg-2param: one pair, Z_i and Z_j real, case 0; its n* layer
    # is plain. spiral-heisenberg rotates the pair, so Z_j is complex.
    for entry_id, want in (("heisenberg-2param", True),
                           ("spiral-heisenberg", False)):
        wb = wb_for(entry_id)
        desc = wb.n_layer
        key = ("n", desc.i_seq, desc.j_seq)
        assert wb.basis.layer_tables[key][4] is want, entry_id
