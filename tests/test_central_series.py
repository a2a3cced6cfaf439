"""The ascending central series, built once per spec.

``LieAlgebraSpec.central_series`` is what both ``validate_spec`` (the
n_nilpotent check) and ``build_adaptable_basis`` (the flag order) read. The
n_nilpotent row must agree with the lower-central-series rule it replaced
(``tests/central_series_oracle.py``) on the corpus, on generated specs and
on hand-made non-nilpotent algebras; the series is computed once per spec,
and a stalled one raises on every call.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from central_series_oracle import lower_central_series_terminates
from solvlie import algebra
from solvlie.adapted import ConstructionFailedError, build_adaptable_basis
from solvlie.algebra import (HypothesisViolation, LieAlgebraSpec,
                             SpecFormatError, spec_from_dict, validate_spec)
from solvlie.corpus import corpus_entries
from solvlie.workbench import Workbench

_SPECGEN = Path(__file__).resolve().parents[1] / "perfbench" / "specgen.py"
_spec = importlib.util.spec_from_file_location("specgen", _SPECGEN)
specgen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(specgen)


def _solv2():
    # the 2-dimensional non-abelian algebra: center 0
    return LieAlgebraSpec("solv2", ["X", "Y"], [], {("X", "Y"): {"Y": Fraction(1)}})


def _solv2_plus_center():
    # solv2 plus a central W: not nilpotent, but the center is W, so the
    # series stalls above 0
    return LieAlgebraSpec("solv2+W", ["X", "Y", "W"], [],
                          {("X", "Y"): {"Y": Fraction(1)}})


def _corpus_specs():
    out = []
    for entry in corpus_entries():
        try:
            out.append(entry.spec())
        except SpecFormatError:
            continue
    return out


def _nilpotent_row(spec):
    return next(c for c in validate_spec(spec).checks if c.name == "n_nilpotent")


def _count_series(monkeypatch):
    calls = []
    compute = algebra.central_series

    def counted(spec):
        calls.append(spec.name)
        return compute(spec)

    monkeypatch.setattr(algebra, "central_series", counted)
    return calls


@pytest.mark.parametrize("spec", _corpus_specs(), ids=lambda s: s.name)
def test_nilpotent_row_matches_oracle_on_corpus(spec):
    assert _nilpotent_row(spec).ok == lower_central_series_terminates(spec)


@pytest.mark.parametrize("seed", range(1, 11))
def test_nilpotent_row_matches_oracle_on_generated_specs(seed):
    for doc, _ in specgen.generate(seed):
        spec = spec_from_dict(doc)
        assert lower_central_series_terminates(spec)
        assert _nilpotent_row(spec).ok


@pytest.mark.parametrize("make, stop", [(_solv2, 0), (_solv2_plus_center, 1)])
def test_non_nilpotent_row_matches_oracle_and_says_where(make, stop):
    spec = make()
    assert lower_central_series_terminates(spec) is False
    row = _nilpotent_row(spec)
    assert (row.ok, row.code) == (False, "NOT_NILPOTENT")
    assert row.detail == (f"ascending central series of n stalls at "
                          f"dimension {stop} of {spec.n_dim}")


def test_validation_then_basis_computes_the_series_once(monkeypatch):
    calls = _count_series(monkeypatch)
    doc, _ = specgen.generate(1)[0]
    wb = Workbench(spec_from_dict(doc))
    assert wb.validation.ok
    assert calls == [doc["name"]]
    assert len(wb.basis.nvecs) == len(wb.spec.central_series()[-1])
    assert calls == [doc["name"]]


def test_stalled_series_raises_on_every_call(monkeypatch):
    calls = _count_series(monkeypatch)
    spec = _solv2_plus_center()
    errors = []
    for _ in range(3):
        with pytest.raises(HypothesisViolation) as err:
            spec.central_series()
        errors.append(err.value)
    assert calls == ["solv2+W"]
    assert all(e is errors[0] for e in errors)
    assert errors[0].code == "NOT_NILPOTENT"
    assert not validate_spec(spec).ok
    assert calls == ["solv2+W"]


@pytest.mark.parametrize("make", [_solv2, _solv2_plus_center])
def test_unvalidated_non_nilpotent_spec_fails_construction(make):
    with pytest.raises(ConstructionFailedError) as err:
        build_adaptable_basis(make())
    assert str(err.value) == \
        "CONSTRUCTION_FAILED: central series stalls (n not nilpotent?)"
    assert isinstance(err.value.__cause__, HypothesisViolation)
