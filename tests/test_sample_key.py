"""The per-sample layer key against the full descriptor path.

``strata.generic_layer`` draws each sample's integer coordinates with
``functionals._draw_integers`` and keys the sample with
``strata._sample_key``, without building a Functional or a descriptor:
off the pivot polynomials of the generic path of the basis and ambient
when none vanishes at the sample, else by the fill, the reduction and the
key rule of ``layer_descriptor``. It gives phi = None where the layer is
not keyed, and ``generic_layer`` then runs ``layer_descriptor``. At every sample the key read that way must be
``layer_descriptor(f, basis, ambient).key()``, or both must raise the same
error on the same (e, j). The samples are the 64 that ``generic_layer``
draws on every valid corpus entry in both ambients at seeds 1, 7 and 42,
on the specs ``perfbench/specgen.py`` generates for seeds 1-10, and points
with coordinates in {-1, 0, 1}: on the corpus, where they reach the layers
of double-heisenberg that are not keyed, and on double-heisenberg with a
real V, [V, Y2] = Z1, where they reach UnsupportedCaseError. No exact
point of these families makes ``layer_descriptor`` raise
LayerMismatchError; the stubs of ``test_strata.py`` cover how
``generic_layer`` skips one.

The draw must be ``rng.randint(-bound, bound)`` called once per
coordinate: the same values, and the same random state after them.
"""

import random

import pytest

import generic_layer_oracle
from conftest import VALID_IDS, wb_for
from gen_specs import degenerate_points, double_heisenberg_with_v, specgen
from solvlie.algebra import spec_from_dict
from solvlie.functionals import _draw_integers, sample_functional
from solvlie.strata import (LayerMismatchError, UnsupportedCaseError,
                            _form_table, _sample_key, jump_data,
                            layer_descriptor)
from solvlie.workbench import Workbench

def _full(f, basis, ambient):
    """(key or (e, j), error type or None) by the full descriptor path."""
    try:
        return layer_descriptor(f, basis, ambient).key(), None
    except (LayerMismatchError, UnsupportedCaseError) as exc:
        return jump_data(f, basis, ambient).key(), type(exc)


def _check(f, basis, ambient):
    """Asserts that the sample f reads as generic_layer reads it (the
    kernel's key, completed by layer_descriptor where phi is None) as by
    the full path; returns whether the kernel keyed it and the error
    raised, if any."""
    key = _sample_key(basis, ambient, _form_table(basis),
                      basis.ambient(ambient), [int(v) for v in f.values])
    got = key, None
    if key[2] is None:
        try:
            got = layer_descriptor(f, basis, ambient).key(), None
        except (LayerMismatchError, UnsupportedCaseError) as exc:
            got = key[:2], type(exc)
    assert got[0][:2] == key[:2], (ambient, f.values)
    assert got == _full(f, basis, ambient), (ambient, f.values)
    return key[2] is not None, got[1]


def _samples(basis, ambient, seed):
    """The 64 points generic_layer draws, as the per-sample oracle draws
    them."""
    rng = random.Random(seed)
    return [generic_layer_oracle.sample_functional(basis, rng, support=ambient)
            for _ in range(64)]


def _layers(wb):
    return (("n", wb.basis), ("g", wb.canonical_basis))


@pytest.mark.parametrize("bound", (0, 1, 2, 3, 6, 9, 15, 16, 100))
def test_draw_is_randint(bound):
    for seed in range(300):
        k = 1 + seed % 12
        rng, want_rng = random.Random(seed), random.Random(seed)
        got = _draw_integers(rng, bound, k)
        want = [want_rng.randint(-bound, bound) for _ in range(k)]
        assert got == want, seed
        assert rng.getstate() == want_rng.getstate(), seed


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_sample_functional_keeps_the_randint_stream(entry_id):
    wb = wb_for(entry_id)
    for ambient, basis in _layers(wb):
        for bound in (0, 1, 9):
            rng, want_rng = random.Random(5), random.Random(5)
            for _ in range(8):
                f = sample_functional(basis, rng, bound, ambient)
                want = generic_layer_oracle.sample_functional(
                    basis, want_rng, bound, ambient)
                assert f.values == want.values
                assert f.exact and f.basis is basis
            assert rng.getstate() == want_rng.getstate()


def test_sample_functional_rejects_an_unknown_support():
    basis = wb_for("heisenberg-2param").basis
    with pytest.raises(ValueError) as err:
        sample_functional(basis, random.Random(0), support="h")
    with pytest.raises(ValueError) as want:
        basis.ambient("h")
    assert str(err.value) == str(want.value)


def test_sample_functional_rejects_a_negative_bound():
    basis = wb_for("heisenberg-2param").basis
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="bound must be >= 0"):
        sample_functional(basis, rng, bound=-1)
    assert rng.getstate() == state


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_sample_key_matches_descriptor_on_corpus_samples(entry_id):
    wb = wb_for(entry_id)
    for ambient, basis in _layers(wb):
        for seed in (1, 7, 42):
            for f in _samples(basis, ambient, seed):
                if not f.is_zero():
                    _check(f, basis, ambient)


@pytest.mark.parametrize("seed", range(1, 11))
def test_sample_key_matches_descriptor_on_generated_specs(seed):
    for doc, _ in specgen.generate(seed):
        wb = Workbench(spec_from_dict(doc))
        for ambient, basis in _layers(wb):
            for f in _samples(basis, ambient, seed):
                if not f.is_zero():
                    _check(f, basis, ambient)


def test_sample_key_matches_descriptor_at_degenerate_points():
    wbs = [wb_for(entry_id) for entry_id in VALID_IDS]
    wbs.append(Workbench(spec_from_dict(double_heisenberg_with_v())))
    seen = set()
    for k, wb in enumerate(wbs):
        for ambient, basis in _layers(wb):
            for f in degenerate_points(basis, ambient, 40 + k):
                if not f.is_zero():
                    keyed, error = _check(f, basis, ambient)
                    seen.add(error if error else keyed)
    # the points reach keyed and unkeyed layers, and unsupported ones
    assert seen == {True, False, UnsupportedCaseError}
