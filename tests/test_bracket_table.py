"""The one table of structure constants, ``LieAlgebraSpec.brackets``.

(i, j) maps to the nonzero (m, C_ij^m) of [e_i, e_j] by increasing m, under
both orders of every nonzero bracket; ``bracket_sparse`` reads it and every
consumer reads it with no sign of its own. Checked on the corpus and on the
specs of perfbench/specgen.py at seeds 1-10 against the bracket list of each
spec document, which is the oracle here.
"""

import json
from fractions import Fraction

import pytest

from conftest import corpus_file_text
from gen_specs import specgen
from solvlie.algebra import LieAlgebraSpec, SpecFormatError, spec_from_dict
from solvlie.corpus import corpus_entries
from solvlie.gaussian import GaussianRational as G


def _documents():
    docs = []
    for entry in corpus_entries():
        docs.append((entry.entry_id, json.loads(corpus_file_text(entry.entry_id))))
    for seed in range(1, 11):
        docs += [(f"specgen-{seed}-{k}", doc)
                 for k, (doc, _) in enumerate(specgen.generate(seed))]
    return docs


def _parsed():
    out = []
    for name, doc in _documents():
        try:
            out.append((name, doc, spec_from_dict(doc)))
        except SpecFormatError:
            continue
    return out


PARSED = _parsed()


def _listed_table(doc, spec):
    """The table as the document lists it: each nonzero [x, y] over n under
    (x, y) and, negated, under (y, x)."""
    table = {}
    for ent in doc.get("brackets", []):
        coords = [Fraction(0)] * spec.n_dim
        for term in ent["value"]:
            coords[spec.index(term["b"])] += Fraction(term["c"])
        entry = tuple((m, G(c)) for m, c in enumerate(coords) if c)
        if entry:
            i, j = spec.index(ent["x"]), spec.index(ent["y"])
            table.setdefault((i, j), entry)
            table.setdefault((j, i), tuple((m, -c) for m, c in entry))
    return table


def test_every_parsable_document_is_covered():
    assert len(PARSED) == 12 + 10 * len(specgen.ROUND)


@pytest.mark.parametrize("name, doc, spec", PARSED, ids=[p[0] for p in PARSED])
def test_table_is_signed_sparse_and_sorted(name, doc, spec):
    table = spec.brackets
    for (i, j), entry in table.items():
        assert i != j and entry
        ms = [m for m, _ in entry]
        assert ms == sorted(set(ms)) and all(m < spec.n_dim for m in ms)
        assert all(isinstance(c, G) and c for _, c in entry)
    for i in range(spec.dim):
        for j in range(spec.dim):
            assert spec.bracket_sparse(j, i) == tuple(
                (m, -c) for m, c in spec.bracket_sparse(i, j))
            assert spec.bracket_sparse(i, j) == table.get((i, j), ())
    # probing every pair leaves the table as it was
    assert len(table) == len(spec.brackets)
    if not spec.antisymmetry_conflicts and not spec.h_bracket_entries:
        assert dict(table) == _listed_table(doc, spec)


def test_table_is_read_only():
    spec = PARSED[0][2]
    with pytest.raises(TypeError):
        spec.brackets[(0, 1)] = ()


def _heisenberg(brackets):
    return LieAlgebraSpec("h", ["Z", "Y", "X"], [], brackets)


def test_both_orders_listed_consistently_give_one_entry():
    once = _heisenberg({("X", "Y"): {"Z": Fraction(1)}})
    both = _heisenberg({("X", "Y"): {"Z": Fraction(1)},
                        ("Y", "X"): {"Z": Fraction(-1)}})
    reverse = _heisenberg({("Y", "X"): {"Z": Fraction(-1)},
                           ("X", "Y"): {"Z": Fraction(1)}})
    assert dict(once.brackets) == {(2, 1): ((0, G(1)),), (1, 2): ((0, G(-1)),)}
    for spec in (both, reverse):
        assert dict(spec.brackets) == dict(once.brackets)
        assert spec.antisymmetry_conflicts == []


@pytest.mark.parametrize("second", [{"Z": Fraction(1)}, {"Z": Fraction(-2)},
                                    {"Y": Fraction(1)}])
def test_inconsistent_orders_are_a_conflict(second):
    spec = _heisenberg({("X", "Y"): {"Z": Fraction(1)}, ("Y", "X"): second})
    assert spec.antisymmetry_conflicts == [("Y", "X")]
    assert spec.bracket_sparse(2, 1) == ((0, G(1)),)


def test_a_bracket_of_an_element_with_itself_is_a_conflict():
    spec = _heisenberg({("X", "X"): {"Z": Fraction(1)}})
    assert spec.antisymmetry_conflicts == [("X", "X")]
    assert dict(spec.brackets) == {}
