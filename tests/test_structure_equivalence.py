"""The sparse adapted structure constants and central series against their
dense constructions in structure_oracle.py.

On the 10 valid corpus entries (constructed, hinted where a hint is given,
and the Workbench's canonical basis) and on the specs of perfbench/specgen.py
at seeds 1-29, the basis keeps the same ``structure`` and ``h_structure``
(keys and entries, in the same order), weights, sigma and alpha, and
``spec.central_series()`` returns the same levels. Hints that fail keep the
HintInvalidError condition and message: every corpus basis is perturbed by
swapping two adjacent vectors and by multiplying one vector by i. A series
that stalls keeps its NOT_NILPOTENT text.
"""

from fractions import Fraction

import pytest

import structure_oracle
from conftest import VALID_IDS, corpus_entry, wb_for
from gen_specs import specgen
from solvlie.adapted import AdaptableBasis, HintInvalidError, build_adaptable_basis
from solvlie.algebra import HypothesisViolation, LieAlgebraSpec, spec_from_dict
from solvlie.gaussian import GaussianRational as G


def _ordered(rows):
    """A structure table with its key order and each row's key order."""
    return [(key, list(row.items())) for key, row in rows.items()]


def _kept(basis):
    return (_ordered(basis.structure), _ordered(basis.h_structure),
            list(basis.weights), tuple(basis.sigma), list(basis.alpha))


def _oracle_kept(spec, nvecs, hvecs=None):
    want = structure_oracle.verify(spec, nvecs, hvecs)
    return (_ordered(want.structure), _ordered(want.h_structure),
            list(want.weights), want.sigma, list(want.alpha))


def _outcome(fn):
    try:
        return fn()
    except HintInvalidError as exc:
        return "HintInvalidError", exc.condition, str(exc)


def _assert_basis_agrees(spec, basis):
    assert _kept(basis) == _oracle_kept(spec, basis.nvecs, basis.hvecs), spec.name


def _generated_specs():
    return [spec_from_dict(doc) for seed in range(1, 30)
            for doc, _ in specgen.generate(seed)]


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_corpus_structure_matches_dense_construction(entry_id):
    spec = corpus_entry(entry_id).spec()
    _assert_basis_agrees(spec, build_adaptable_basis(spec))
    if spec.adaptable_hint is not None:
        _assert_basis_agrees(spec, build_adaptable_basis(spec, spec.adaptable_hint))
    canonical = wb_for(entry_id).canonical_basis
    _assert_basis_agrees(canonical.spec, canonical)


def test_generated_structure_matches_dense_construction():
    for spec in _generated_specs():
        _assert_basis_agrees(spec, build_adaptable_basis(spec))


def _dense_levels(spec):
    """``spec.central_series()`` with each sparse row made dense."""
    return [[[row.get(c, G(0)) for c in range(spec.n_dim)] for row in level]
            for level in spec.central_series()]


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_corpus_central_series_matches_dense_construction(entry_id):
    spec = corpus_entry(entry_id).spec()
    assert _dense_levels(spec) == structure_oracle.central_series(spec)


def test_generated_central_series_matches_dense_construction():
    for spec in _generated_specs():
        assert _dense_levels(spec) == structure_oracle.central_series(spec), \
            spec.name


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_failing_hints_keep_condition_and_message(entry_id):
    spec = corpus_entry(entry_id).spec()
    vectors = build_adaptable_basis(spec).nvecs
    hints = []
    for j in range(len(vectors) - 1):
        swapped = list(vectors)
        swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
        hints.append(swapped)
    for j in range(len(vectors)):
        turned = list(vectors)
        turned[j] = tuple(G(0, 1) * x for x in turned[j])
        hints.append(turned)
    failures = 0
    for hint in hints:
        got = _outcome(lambda: _kept(AdaptableBasis(spec, hint)))
        assert got == _outcome(lambda: _oracle_kept(spec, hint)), (entry_id, hint)
        failures += got[0] == "HintInvalidError"
    assert failures


def _solv2_plus_center():
    # not nilpotent: the center is W, so the series stalls above 0
    return LieAlgebraSpec("solv2+W", ["X", "Y", "W"], [],
                          {("X", "Y"): {"Y": Fraction(1)}})


def test_stalled_series_keeps_its_text():
    with pytest.raises(HypothesisViolation) as want:
        structure_oracle.central_series(_solv2_plus_center())
    with pytest.raises(HypothesisViolation) as got:
        _solv2_plus_center().central_series()
    assert str(got.value) == str(want.value) == (
        "NOT_NILPOTENT: ascending central series of n stalls at dimension 1 of 3")
