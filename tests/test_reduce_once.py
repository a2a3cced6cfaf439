"""Exact work done once: the orbit-form table per n part, and the
validation reads on integers.

- ``strata._form_table`` composes the entries of ``structure`` once per n
  part, on the integer fields of the GaussianRationals, into the n table,
  and a ``with_h_part`` copy keeps it; a g table takes its entries and
  composes only its ``h_structure`` entries, the denominator and the
  scales. Every table of either ambient must equal the old composition
  (``form_table_oracle``) for ``basis`` and ``canonical_basis`` on the
  corpus and on the specs of perfbench/specgen.py at seeds 1-10.
- The Jacobi witness visits only the products of brackets that exist; it
  must be the first failing triple of the dense check
  (``structure_oracle.jacobi_failures``) on perturbed generated specs.
  ``root_factor`` reads the integer fields of the weights; it must return
  what the Fraction parts gave.
"""

import random
from fractions import Fraction

import pytest

import form_table_oracle
from conftest import VALID_IDS, wb_for
from gen_specs import specgen
from solvlie import strata
from solvlie.algebra import (_jacobi_witness, root_factor, spec_from_dict,
                             validate_spec)
from solvlie.gaussian import GaussianRational as G
from solvlie.workbench import Workbench
from structure_oracle import jacobi_failures

GENERATED = {doc["name"]: doc for seed in range(1, 11)
             for doc, _ in specgen.generate(seed)}
CASES = VALID_IDS + sorted(GENERATED)
_WB = {}


def _workbench(case) -> Workbench:
    if case in GENERATED:
        if case not in _WB:
            _WB[case] = Workbench(spec_from_dict(GENERATED[case]))
        return _WB[case]
    return wb_for(case)


# -- the orbit-form table -------------------------------------------------------

@pytest.mark.parametrize("case", CASES)
def test_form_table_matches_the_old_composition(case):
    wb = _workbench(case)
    basis, canonical = wb.basis, wb.canonical_basis
    for b in (basis, canonical):
        for ambient in ("n", "g"):
            assert strata._form_table(b, ambient) == \
                form_table_oracle.form_table(b, ambient)
    # the copy keeps the n table; its g table is its own
    assert strata._form_table(canonical, "n") is \
        strata._form_table(basis, "n")
    assert basis.layer_tables["orbit_form"] is not \
        canonical.layer_tables["orbit_form"]


def test_n_part_is_composed_once_per_n_part(monkeypatch):
    composed = []
    compose = strata._compose

    def counted(rows, terms):
        composed.append(rows)
        return compose(rows, terms)

    monkeypatch.setattr(strata, "_compose", counted)
    wb = Workbench(spec_from_dict(GENERATED[sorted(GENERATED)[0]]))
    basis = wb.basis
    tables = [strata._form_table(basis)]
    for hvecs in (basis.hvecs, list(reversed(basis.hvecs)),
                  wb.canonical_basis.hvecs):
        tables.append(strata._form_table(basis.with_h_part(hvecs)))
    assert [rows is basis.structure for rows in composed] == \
        [True, False, False, False, False]
    assert tables[0] == tables[1]
    # a copy made before the first table composes its own, to the same
    # entries
    fresh = Workbench(spec_from_dict(GENERATED[sorted(GENERATED)[0]])).basis
    early = fresh.with_h_part(fresh.hvecs)
    composed.clear()
    assert strata._form_table(early) == tables[0]
    assert strata._form_table(fresh) == tables[0]
    assert [rows is fresh.structure for rows in composed] == \
        [True, False, True, False]
    assert strata._form_table(early, "n") == strata._form_table(fresh, "n")
    assert strata._form_table(early, "n") is not \
        strata._form_table(fresh, "n")


# -- validation reads ------------------------------------------------------------

def _perturbed(doc, rng):
    """doc with one more bracket [x, y] = c b, x and y not yet paired."""
    n, h = doc["n_basis"], doc["h_basis"]
    paired = {frozenset((b["x"], b["y"])) for b in doc["brackets"]}
    while True:
        x, y = rng.sample(n + h, 2)
        if (x in n or y in n) and frozenset((x, y)) not in paired:
            break
    value = [{"c": str(rng.choice((-2, -1, 1, 3))), "b": rng.choice(n)}]
    return dict(doc, brackets=doc["brackets"] + [
        {"x": x, "y": y, "value": value}])


def test_jacobi_witness_matches_dense_check_on_perturbed_specs():
    rng = random.Random(30)
    failing = 0
    for name in sorted(GENERATED):
        doc = GENERATED[name]
        for doc in (doc, _perturbed(doc, rng), _perturbed(doc, rng)):
            spec = spec_from_dict(doc)
            failures = jacobi_failures(spec)
            witness = _jacobi_witness(spec)
            assert witness == (failures[0] if failures else None), name
            jac = next(c for c in validate_spec(spec).checks
                       if c.name == "jacobi")
            assert (jac.ok, jac.witness) == (not failures, witness)
            failing += bool(failures)
    # every generated spec is a Lie algebra, and every perturbed one is not
    assert failing == 2 * len(GENERATED)


def _old_root_factor(weights):
    re_part = [w.re for w in weights]
    im_part = [w.im for w in weights]
    if all(x == 0 for x in re_part):
        return (None, "imaginary") if any(im_part) else (None, None)
    t0 = next(i for i, x in enumerate(re_part) if x != 0)
    alpha = im_part[t0] / re_part[t0]
    if any(im != alpha * re for re, im in zip(re_part, im_part)):
        return None, "partly imaginary"
    return alpha, None


def test_root_factor_matches_the_fraction_parts():
    rng = random.Random(11)
    parts = [Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 2)]
    cases = [(), (G(0),), (G(0, 1),), (G(0), G(3, -1))]
    for _ in range(400):
        k = rng.randint(1, 3)
        lam = [rng.choice(parts) for _ in range(k)]
        alpha = rng.choice(parts)
        weights = [G(x, alpha * x) for x in lam]
        if rng.random() < 0.3:
            t = rng.randrange(k)
            weights[t] = G(weights[t].re, rng.choice(parts))
        cases.append(tuple(weights))
    for weights in cases:
        got, want = root_factor(weights), _old_root_factor(weights)
        assert got == want, weights
        assert type(got[0]) is type(want[0])
