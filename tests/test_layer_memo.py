"""The generic layer through the per-sample key, the per-key case table
and the sparse kernels.

``strata.generic_layer`` keys each sample with ``strata._sample_key`` (off
the pivot polynomials of the layer's generic path where none vanishes, by
the fill and the reduction elsewhere) and builds a descriptor once per
key; ``strata.layer_descriptor`` reads its
case table from a memo on the basis (one table per ambient and jump pairs)
and its section vectors from the sparse rows of the orbit form. The
oracle path below evaluates every sample afresh instead: the per-sample
``generic_layer`` of ``generic_layer_oracle``, with a full descriptor per
sample (``section_oracle.layer_descriptor``) built from the real-basis
section vectors of ``section_oracle`` and a new ``section_oracle.layer_data``
table. The two must pick the same
layer, in both ambients: on every valid corpus entry at three sampling
seeds, and on the specs that ``perfbench/specgen.py`` generates for three
seeds at the default sampling seed. On the specs of seeds 1-10 the
library's ``generic_layer``, which describes the samples only up to the
winning level, must also equal the oracle with the library's own
descriptor, which describes every sample. Nothing a caller does to a
returned descriptor may reach a later result.
"""

import pytest

import generic_layer_oracle
from conftest import VALID_IDS, wb_for
from gen_specs import GENERATED, specgen
from section_oracle import layer_descriptor as oracle_descriptor
from solvlie.algebra import spec_from_dict
from solvlie.functionals import Functional
from solvlie.gaussian import GaussianRational as G
from solvlie.strata import _case_table, generic_layer
from solvlie.workbench import Workbench

CORPUS_SEEDS = (1, 7, 42)


def _outcome(layer, basis, ambient, seed):
    try:
        return layer(basis, ambient, seed=seed).as_dict()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _assert_matches_oracle(monkeypatch, wb, seeds):
    for ambient, basis in (("n", wb.basis), ("g", wb.canonical_basis)):
        for seed in seeds:
            got = _outcome(generic_layer, basis, ambient, seed)
            with monkeypatch.context() as m:
                m.setattr(generic_layer_oracle, "layer_descriptor",
                          oracle_descriptor)
                want = _outcome(generic_layer_oracle.generic_layer, basis,
                                ambient, seed)
            assert got == want, (ambient, seed)


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_generic_layer_matches_oracle_on_corpus(monkeypatch, entry_id):
    _assert_matches_oracle(monkeypatch, wb_for(entry_id), CORPUS_SEEDS)


@pytest.mark.parametrize("doc", GENERATED, ids=[d["name"] for d in GENERATED])
def test_generic_layer_matches_oracle_on_generated_specs(monkeypatch, doc):
    wb = Workbench(spec_from_dict(doc))
    _assert_matches_oracle(monkeypatch, wb, (wb.seed,))


SPECGEN_1_10 = [doc for seed in range(1, 11) for doc, _ in specgen.generate(seed)]


@pytest.mark.parametrize("doc", SPECGEN_1_10,
                         ids=[d["name"] for d in SPECGEN_1_10])
def test_generic_layer_describes_as_if_every_sample_were(doc):
    # generic_layer describes only the samples up to the winning level;
    # the oracle describes every sample with the library's descriptor
    wb = Workbench(spec_from_dict(doc))
    for ambient, basis in (("n", wb.basis), ("g", wb.canonical_basis)):
        assert _outcome(generic_layer, basis, ambient, wb.seed) == \
            _outcome(generic_layer_oracle.generic_layer, basis, ambient,
                     wb.seed), ambient


def test_returned_descriptors_do_not_share_the_memo():
    wb = wb_for("double-heisenberg")
    basis = wb.canonical_basis
    for ambient in ("n", "g"):
        first = generic_layer(basis, ambient, seed=3)
        want = first.as_dict()
        first.case_sets[0] = (99,)
        first.case_sets.clear()
        first.primes[1] = (7, 7)
        first.primes.clear()
        again = generic_layer(basis, ambient, seed=3)
        assert again.as_dict() == want
        assert again.case_sets is not first.case_sets
        assert again.primes is not first.primes


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_kept_n_case_tables_equal_rebuilt_ones(entry_id):
    # the n* case tables a with_h_part copy keeps are those it would build
    # itself: they do not depend on the h part
    canonical = wb_for(entry_id).canonical_basis
    kept = {k: t for k, t in canonical.layer_tables.items()
            if k[:1] == ("n",)}
    assert kept
    fresh = canonical.with_h_part(canonical.hvecs)
    fresh.layer_tables.clear()
    for (ambient, i_seq, j_seq), table in kept.items():
        assert _case_table(fresh, ambient, i_seq, j_seq) == table


def test_case_table_is_read_only_and_per_basis():
    wb = wb_for("double-heisenberg")
    basis = wb.basis
    desc = generic_layer(basis, "n", seed=3)
    key = ("n", desc.i_seq, desc.j_seq)
    assert key in basis.layer_tables
    table = basis.layer_tables[key]
    assert table._fields == ("stable", "primes", "cases", "in_case", "keyed",
                             "h_pairs", "blocks", "e")
    assert table.h_pairs == ()
    # the layer (3, 4), (5, 6) is one case-4/5 block, opened by pair 1
    assert table.keyed and table.blocks == (1,)
    for mapping in (table.primes, table.cases, table.in_case):
        with pytest.raises(TypeError):
            mapping[0] = ()
    with pytest.raises(AttributeError):
        table.keyed = False
    # a copy with a new h part keeps the n* case tables of its source,
    # which depend on the n part alone, and no other table: no g* case
    # table, generic path, g orbit-form, h-weight ("gamma") or block
    # inverse table
    generic_layer(basis, "g", seed=3)
    Functional.from_adapted(basis, [G(1)] * basis.dim)
    assert {"orbit_form", "gamma", "inverse", ("pivots", "g")} <= \
        set(basis.layer_tables)
    assert ("g", desc.i_seq, desc.j_seq) in basis.layer_tables
    n_keys = {k for k in basis.layer_tables if k[:1] == ("n",)}
    assert key in n_keys
    other = basis.with_h_part(list(reversed(basis.hvecs)))
    assert set(other.layer_tables) == n_keys
    for k in n_keys:
        assert other.layer_tables[k] is basis.layer_tables[k]
    # tables the copy builds later stay its own
    generic_layer(other, "g", seed=3)
    assert other.layer_tables["orbit_form"] is not \
        basis.layer_tables["orbit_form"]
