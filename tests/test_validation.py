"""Pinned validation reports and the Jacobi witness.

`validate_spec(spec).as_dict()` on every parsable corpus spec must serialize
to the document recorded for it in tests/validation_reports.json, key order
included, so a change meant to leave validation alone (a speed-up, a
refactor) shows here the moment it alters a check, a code, a detail or a
witness. The golden report digests cannot see this: they skip the two
Jacobi-failing `*-verbatim` files, whose reports stop at validation.
Regenerate the pins only when a validation report is meant to change:
`PYTHONPATH=src python3 tests/test_validation.py`.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import corpus_entry
from solvlie.algebra import LieAlgebraSpec, SpecFormatError, validate_spec
from solvlie.corpus import corpus_entries
from structure_oracle import jacobi_failures

PINNED = Path(__file__).resolve().parent / "validation_reports.json"


def _parsable_ids():
    out = []
    for entry in corpus_entries():
        try:
            entry.spec()
        except SpecFormatError:
            continue
        out.append(entry.entry_id)
    return out


PARSABLE_IDS = _parsable_ids()


def _document(entry_id):
    return json.dumps(validate_spec(corpus_entry(entry_id).spec()).as_dict(),
                      indent=1)


def test_pins_cover_the_parsable_corpus():
    assert len(PARSABLE_IDS) == 12
    assert sorted(json.loads(PINNED.read_text(encoding="utf-8"))) == PARSABLE_IDS


@pytest.mark.parametrize("entry_id", PARSABLE_IDS)
def test_validation_report_matches_pin(entry_id):
    want = json.loads(PINNED.read_text(encoding="utf-8"))[entry_id]
    assert _document(entry_id) == json.dumps(want, indent=1)


# -- Jacobi -------------------------------------------------------------------

def test_jacobi_witness_is_first_of_two_failures_after_zero_triples():
    # [U, V] = W, [W, S] = P, [W, T] = Q: the Jacobi sums on (U, V, S) and
    # (U, V, T) are P and Q; P and Q are central, so most earlier triples
    # have three zero brackets
    spec = LieAlgebraSpec("two-jacobi-failures",
                          ["P", "Q", "U", "V", "W", "S", "T"], [], {
                              ("U", "V"): {"W": Fraction(1)},
                              ("W", "S"): {"P": Fraction(1)},
                              ("W", "T"): {"Q": Fraction(1)},
                          })
    assert jacobi_failures(spec) == [("U", "V", "S"), ("U", "V", "T")]
    triples = list(itertools.combinations(range(spec.dim), 3))
    before = triples[:triples.index((2, 3, 5))]
    zero = [t for t in before if not any(spec.bracket_sparse(p, q)
                                         for p, q in itertools.combinations(t, 2))]
    assert (len(before), len(zero), zero[0]) == (26, 19, (0, 1, 2))
    rep = validate_spec(spec)
    jac = next(c for c in rep.checks if c.name == "jacobi")
    assert (jac.ok, jac.code, jac.witness) == (False, "JACOBI_FAIL", ("U", "V", "S"))
    assert jac.detail == "Jacobi identity fails on ('U', 'V', 'S')"
    assert rep.codes() == ["JACOBI_FAIL"]


def test_jacobi_failure_with_only_the_outer_bracket_nonzero():
    # on (U, V, S) only [U, S] = W is nonzero, and [[S, U], V] = -P
    spec = LieAlgebraSpec("outer-pair-jacobi-failure", ["P", "U", "V", "W", "S"], [], {
        ("U", "S"): {"W": Fraction(1)},
        ("W", "V"): {"P": Fraction(1)},
    })
    assert jacobi_failures(spec) == [("U", "V", "S")]
    jac = next(c for c in validate_spec(spec).checks if c.name == "jacobi")
    assert (jac.ok, jac.witness) == (False, ("U", "V", "S"))


def test_jacobi_witness_matches_dense_oracle_on_corpus():
    for entry_id in PARSABLE_IDS:
        spec = corpus_entry(entry_id).spec()
        jac = next(c for c in validate_spec(spec).checks if c.name == "jacobi")
        failures = jacobi_failures(spec)
        assert jac.ok == (not failures), entry_id
        if failures:
            assert jac.witness == failures[0], entry_id


if __name__ == "__main__":
    table = {e: validate_spec(corpus_entry(e).spec()).as_dict()
             for e in PARSABLE_IDS}
    PINNED.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
