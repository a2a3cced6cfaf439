"""The ascending central series, built once per spec.

``LieAlgebraSpec.central_series`` is what both ``validate_spec`` (the
n_nilpotent check) and ``build_adaptable_basis`` (the flag order) read. The
n_nilpotent row must agree with the lower-central-series rule it replaced
(``tests/central_series_oracle.py``) on the corpus, on generated specs and
on hand-made non-nilpotent algebras; the series is computed once per spec,
and a stalled one raises on every call. Its levels must span what the
three-elimination construction it replaced built (``central_series`` of
the oracle module) on the same inputs, with the same NOT_NILPOTENT message
where it stalls, and ``stabilizer_data`` must give the little-group data
of its rank/solve construction (``section_oracle.stabilizer_data``)
exactly on every valid corpus spec and on generated specs.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import central_series_oracle
import section_oracle
from central_series_oracle import lower_central_series_terminates
from conftest import VALID_IDS, wb_for
from gen_specs import WIDER, generated_spec, specgen
from solvlie import algebra
from solvlie.adapted import ConstructionFailedError, build_adaptable_basis
from solvlie.algebra import (HypothesisViolation, LieAlgebraSpec,
                             SpecFormatError, spec_from_dict, validate_spec)
from solvlie.corpus import corpus_entries
from solvlie.gaussian import GaussianRational
from solvlie.linalg import Subspace, extend_echelon
from solvlie.sections import stabilizer_data
from solvlie.workbench import Workbench


def _solv2():
    # the 2-dimensional non-abelian algebra: center 0
    return LieAlgebraSpec("solv2", ["X", "Y"], [], {("X", "Y"): {"Y": Fraction(1)}})


def _solv2_plus_center():
    # solv2 plus a central W: not nilpotent, but the center is W, so the
    # series stalls above 0
    return LieAlgebraSpec("solv2+W", ["X", "Y", "W"], [],
                          {("X", "Y"): {"Y": Fraction(1)}})


def _empty_n():
    # no nilpotent part at all: the series is empty, not an error
    return spec_from_dict({"name": "empty-n", "n_basis": [], "h_basis": ["A"]})


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


def _assert_series_matches_oracle(spec):
    try:
        want = central_series_oracle.central_series(spec)
    except HypothesisViolation as exc:
        with pytest.raises(HypothesisViolation) as err:
            algebra.central_series(spec)
        assert (err.value.code, str(err.value)) == (exc.code, str(exc))
        return
    got = algebra.central_series(spec)
    nd = spec.n_dim
    assert [Subspace(level, nd) for level in got] == \
        [Subspace(level, nd) for level in want]


@pytest.mark.parametrize("spec", _corpus_specs(), ids=lambda s: s.name)
def test_series_matches_three_elimination_oracle_on_corpus(spec):
    _assert_series_matches_oracle(spec)


@pytest.mark.parametrize("seed", range(1, 11))
def test_series_matches_three_elimination_oracle_on_generated_specs(seed):
    for doc, _ in specgen.generate(seed):
        _assert_series_matches_oracle(spec_from_dict(doc))


@pytest.mark.parametrize("case", WIDER, ids=lambda c: f"{c[0]}-seed-{c[4]}")
def test_series_matches_three_elimination_oracle_on_wider_specs(case):
    spec = generated_spec(*case)
    assert _nilpotent_row(spec).ok
    _assert_series_matches_oracle(spec)


@pytest.mark.parametrize("make", [_solv2, _solv2_plus_center])
def test_series_stalls_like_three_elimination_oracle(make):
    with pytest.raises(HypothesisViolation):
        central_series_oracle.central_series(make())
    _assert_series_matches_oracle(make())


def test_series_reads_both_signs_of_a_bracket():
    # [X, Y] = Z and [Y, W] = Z: the condition row of ad(Y) takes
    # [Y, X] = -Z from the table entry (X, Y) and [Y, W] = Z from (Y, W),
    # so the center is spanned by X + W and Z; with the sign of the first
    # dropped it would be X - W and Z instead
    spec = LieAlgebraSpec("two-sided", ["X", "Y", "W", "Z"], [], {
        ("X", "Y"): {"Z": Fraction(1)}, ("Y", "W"): {"Z": Fraction(1)}})
    one, zero = GaussianRational(1), GaussianRational(0)
    center = Subspace([[one, zero, one, zero], [zero, zero, zero, one]], 4)
    assert Subspace(algebra.central_series(spec)[0], 4) == center
    _assert_series_matches_oracle(spec)


def test_series_of_empty_n_is_empty():
    spec = _empty_n()
    assert central_series_oracle.central_series(spec) == []
    assert algebra.central_series(spec) == []
    assert _nilpotent_row(spec).ok


def _assert_stabilizer_matches_oracle(wb):
    got = stabilizer_data(wb.spec, wb.basis, wb.n_layer)
    want = section_oracle.stabilizer_data(wb.spec, wb.basis, wb.n_layer)
    assert (got.nu, got.k_subalg, got.a_basis, got.phi) == \
        (want.nu, want.k_subalg, want.a_basis, want.phi)
    assert all(isinstance(x, GaussianRational) for a in got.a_basis for x in a)


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_stabilizer_matches_rank_solve_oracle_on_corpus(entry_id):
    _assert_stabilizer_matches_oracle(wb_for(entry_id))


@pytest.mark.parametrize("seed", range(1, 11))
def test_stabilizer_matches_rank_solve_oracle_on_generated_specs(seed):
    for doc, _ in specgen.generate(seed):
        _assert_stabilizer_matches_oracle(Workbench(spec_from_dict(doc)))


def test_stabilizer_matches_rank_solve_oracle_on_random_weights():
    # stand-in bases and layers carrying random weights lambda (1 + i alpha)
    # with small rational real parts: the echelon's pivots come out of
    # order on some of them (an earlier real weight has its first nonzero
    # entry further right), which no corpus or generated spec has
    rng = random.Random(13)
    shuffled = 0
    for _ in range(60):
        nd, hd = rng.randint(1, 5), rng.randint(1, 4)
        weights = []
        for _ in range(nd):
            alpha = Fraction(rng.randint(-2, 2))
            real = [Fraction(rng.choice([0, 0, 1, -1, 2]), rng.randint(1, 3))
                    for _ in range(hd)]
            weights.append(tuple(GaussianRational(x, alpha * x) for x in real))
        spec = SimpleNamespace(n_dim=nd, h_dim=hd)
        basis = SimpleNamespace(weights=weights)
        layer = SimpleNamespace(e_set=tuple(j for j in range(1, nd + 1)
                                            if rng.random() < 0.3))
        got = stabilizer_data(spec, basis, layer)
        want = section_oracle.stabilizer_data(spec, basis, layer)
        assert (got.nu, got.k_subalg, got.a_basis, got.phi) == \
            (want.nu, want.k_subalg, want.a_basis, want.phi)
        rows, pivots = [], []
        for j in got.phi:
            extend_echelon(rows, pivots, [GaussianRational(w.re)
                                          for w in weights[j - 1]])
        shuffled += pivots != sorted(pivots)
    assert shuffled >= 3
