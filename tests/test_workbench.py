import json
import random

import pytest

from conftest import VALID_IDS, wb_for
from gen_specs import heisenberg_power_spec, specgen
from solvlie import admissibility as adm
from solvlie import workbench
from solvlie.algebra import spec_from_dict
from solvlie.functionals import exp_h_coadjoint, sample_functional
from solvlie.strata import InconsistentSamplingError, jump_data
from work_budget import Work

REQUIRED_KEYS = ("schema", "name", "validation", "basis", "n_layer",
                 "g_layer", "nu", "stabilizer", "sections", "center",
                 "admissibility", "citations")


def test_report_builds_for_every_valid_entry():
    for entry_id in VALID_IDS:
        wb = wb_for(entry_id)
        doc = wb.report()
        for key in REQUIRED_KEYS:
            assert key in doc, (entry_id, key)
        assert json.dumps(doc)  # serializable
        # paired indices from the g* layer agree with the stabilizer pairing
        assert tuple(doc["g_layer"]["phi"]) == wb.stabilizer.phi
        # nu partitions the nilpotent indices against the jump set
        nd = wb.spec.n_dim
        assert sorted(doc["nu"] + doc["n_layer"]["e"]) == list(range(1, nd + 1))
        admis = doc["admissibility"]
        assert admis["verdict"] in ("ADMISSIBLE", "NOT_ADMISSIBLE_UNIMODULAR",
                                    "NOT_ADMISSIBLE_CENTER_MEETS_H")
        if admis["multiplicity"] not in ("infinite", None):
            assert admis["multiplicity"] == 2 ** admis["dim_x"]


def test_report_multiplicity_matches_direct_computation():
    for entry_id in ("anisotropic-heisenberg", "heisenberg-2param",
                     "five-dilations-repaired", "three-dilations-repaired"):
        wb = wb_for(entry_id)
        doc = wb.report()
        m = wb.multiplicity
        expected = "infinite" if m == adm.INFINITE else m
        assert doc["admissibility"]["multiplicity"] == expected


def test_jump_invariance_under_complex_weight_flow():
    # dilation flow with complex weights (spiral orbits), float ranks
    rng = random.Random(201)
    wb = wb_for("spiral-heisenberg")
    spec = wb.spec
    basis = wb.canonical_basis
    l = sample_functional(basis, rng, support="g", bound=6)
    base = jump_data(l, basis, "g")
    assert base.d > 0
    for _ in range(6):
        a = [0.0] * spec.dim
        a[spec.index("A")] = rng.uniform(-1.2, 1.2)
        moved = exp_h_coadjoint(spec, a, l, mode="float")
        jd = jump_data(moved, basis, "g")
        assert jd.e_set == base.e_set and jd.j_seq == base.j_seq


def test_workbench_caches_are_pure():
    wb = wb_for("heisenberg-2param")
    assert wb.report() == wb.report()
    assert wb.verdict() is wb.verdict()


def test_one_weight_decomposition_per_spec():
    # validation, the basis construction and the dilation flow share it
    from solvlie import algebra
    from conftest import corpus_entry
    from solvlie.workbench import Workbench

    with Work() as work:
        work.calls(algebra, "weight_decomposition")
        wb = Workbench(corpus_entry("heisenberg-2param").spec())
        wb.report()
        l = sample_functional(wb.canonical_basis, random.Random(3))
        exp_h_coadjoint(wb.spec, wb.spec.basis_vector(wb.spec.n_dim), l)
    assert work["weight_decomposition"] == 1


def test_canonical_basis_skips_the_n_part_verification(monkeypatch):
    from solvlie.adapted import AdaptableBasis
    from conftest import corpus_entry
    from solvlie.workbench import Workbench

    wb = Workbench(corpus_entry("five-dilations-repaired").spec())
    basis = wb.basis
    runs = []
    real = AdaptableBasis._verify
    monkeypatch.setattr(AdaptableBasis, "_verify",
                        lambda self: runs.append(self) or real(self))
    canonical = wb.canonical_basis
    assert runs == []
    assert canonical.hvecs != basis.hvecs        # the h part did change
    assert canonical.nvecs == basis.nvecs
    assert (canonical.weights, canonical.sigma, canonical.alpha) == \
        (basis.weights, basis.sigma, basis.alpha)
    # C and the n-block inverse are carried over; the h block is new
    assert canonical.structure is basis.structure
    assert canonical.n_inverse is basis.n_inverse
    assert canonical.h_inverse != basis.h_inverse


def _decided_specs():
    """The valid corpus specs and the specgen specs of seeds 1 to 20."""
    specs = [wb_for(entry_id).spec for entry_id in VALID_IDS]
    return specs + [spec_from_dict(doc) for seed in range(1, 21)
                    for doc, _ in specgen.generate(seed)]


def test_decision_is_the_verdict_code():
    specs = _decided_specs()
    assert len(specs) == 150
    for spec in specs:
        wb = workbench.Workbench(spec)
        assert wb.decision == wb.verdict().verdict, spec.name


def _raises(*args, **kwargs):
    raise AssertionError("the decision built a basis or drew a sample")


def test_decision_builds_no_basis_and_draws_no_sample(monkeypatch):
    for name in ("build_adaptable_basis", "generic_layer", "sample_sigma_circ"):
        monkeypatch.setattr(workbench, name, _raises)
    codes = {workbench.Workbench(spec).decision for spec in _decided_specs()}
    assert codes == {adm.VERDICT_ADMISSIBLE, adm.VERDICT_UNIMODULAR,
                     adm.VERDICT_CENTER}


def test_decision_reads_admissible_where_the_sampled_verdict_fails():
    # H_3^12 at seed 0: tr ad A = 48 and A moves the center, so the theorem
    # says ADMISSIBLE, while the 64 samples of the n* layer split between
    # two layers
    spec = heisenberg_power_spec(12)
    assert workbench.Workbench(spec, seed=0).decision == adm.VERDICT_ADMISSIBLE
    with pytest.raises(InconsistentSamplingError):
        workbench.Workbench(spec, seed=0).verdict()
