import random
from fractions import Fraction

import pytest

from conftest import VALID_IDS, point, wb_for
from solvlie import admissibility as adm
from solvlie.adapted import build_adaptable_basis
from solvlie.algebra import HypothesisViolation, spec_from_dict
from solvlie.corpus import corpus_entry
from solvlie.functionals import Functional
from solvlie.gaussian import GaussianRational as G
from solvlie.sections import sample_sigma_circ
from solvlie.workbench import Workbench


# -- center ---------------------------------------------------------------------

def test_center_three_dilations_repaired():
    wb = wb_for("three-dilations-repaired")
    spec = wb.spec
    cd = wb.center
    assert cd.dim_z_cap_h == 1
    combo = [G(0)] * spec.dim
    combo[spec.index("A1")] = G(Fraction(-1, 2))
    combo[spec.index("A2")] = G(Fraction(-3, 2))
    combo[spec.index("A3")] = G(1)
    assert cd.z_cap_h.contains_vector(combo)
    assert cd.z_g.contains_vector(combo)


def test_center_free_two_step():
    wb = wb_for("free-two-step")
    cd = wb.center
    assert cd.z_g.dim == 3
    assert cd.dim_z_cap_h == 0
    spec = wb.spec
    for lab in ("Z1", "Z2", "Z3"):
        assert cd.z_g.contains_vector(list(spec.basis_vector(lab)))


def test_center_plain_heisenberg():
    spec = spec_from_dict({
        "name": "heis", "n_basis": ["Z", "Y", "X"], "h_basis": [],
        "brackets": [{"x": "X", "y": "Y", "value": [{"c": "1", "b": "Z"}]}]})
    cd = adm.center_data(spec)
    assert cd.z_g.dim == 1
    assert cd.z_g.contains_vector(list(spec.basis_vector("Z")))


# -- unimodularity ----------------------------------------------------------------

def test_unimodularity_heisenberg_2param():
    wb = wb_for("heisenberg-2param")
    uni, table = wb.unimodular
    assert not uni
    assert table["A"] == 2
    assert table["B"] == 0
    assert all(table[lab] == 0 for lab in ("Z", "Y", "X"))


def test_unimodularity_nilpotent_only():
    wb = wb_for("double-heisenberg")
    uni, table = wb.unimodular
    assert uni
    assert all(v == 0 for v in table.values())


def test_unimodularity_anisotropic_traces():
    wb = wb_for("anisotropic-heisenberg")
    uni, table = wb.unimodular
    assert not uni
    assert table["A1"] == 2 and table["A2"] == 0


def test_n_part_traces_always_vanish():
    for entry_id in VALID_IDS:
        wb = wb_for(entry_id)
        _, table = wb.unimodular
        for lab in wb.spec.n_names:
            assert table[lab] == 0


# -- polarization -----------------------------------------------------------------

def test_polarization_heisenberg_real():
    wb = wb_for("heisenberg-2param")
    lam = point(wb, Z=1)
    pol = adm.polarization_data(lam, wb.canonical_basis)
    assert pol.real and pol.positive
    assert pol.dim_d == 2 and pol.dim_e == 2
    assert pol.dim_x == 1 and pol.x_indices == (3,)
    spec = wb.spec
    for lab in ("Z", "Y"):
        assert pol.p.contains_vector(list(spec.basis_vector(lab)))


def test_polarization_complex_dilation_is_complex():
    wb = wb_for("heisenberg-complex-dilation")
    lam = point(wb, Z=1)
    pol = adm.polarization_data(lam, wb.canonical_basis)
    assert not pol.real
    assert pol.positive
    assert pol.dim_d == 1 and pol.dim_e == 3
    assert pol.dim_x == (3 - 3) + (3 - 1) // 2 == 1
    assert pol.x_indices == (2,)


def test_polarization_positivity_swaps_to_conjugate():
    wb = wb_for("heisenberg-complex-dilation")
    lam_plus = point(wb, Z=1)
    lam_minus = point(wb, Z=-1)
    p_plus = adm.polarization_data(lam_plus, wb.canonical_basis)
    p_minus = adm.polarization_data(lam_minus, wb.canonical_basis)
    assert p_plus.positive and p_minus.positive
    assert p_plus.p != p_minus.p   # conjugate choices at opposite signs


def test_polarization_abelian_n_full():
    spec = spec_from_dict({
        "name": "flat", "n_basis": ["X", "Y"], "h_basis": ["A"],
        "brackets": [
            {"x": "A", "y": "X", "value": [{"c": "1", "b": "X"}]},
            {"x": "A", "y": "Y", "value": [{"c": "1", "b": "Y"}]}]})
    basis = build_adaptable_basis(spec)
    lam = Functional(basis, [Fraction(1), Fraction(2), Fraction(0)], exact=True)
    pol = adm.polarization_data(lam, basis)
    assert pol.dim_e == 2 and pol.dim_d == 2 and pol.dim_x == 0


def test_polarization_isotropy_exact_on_samples():
    rng = random.Random(51)
    for entry_id in ("heisenberg-2param", "anisotropic-heisenberg",
                     "five-dilations-repaired"):
        wb = wb_for(entry_id)
        for _ in range(20):
            lam = sample_sigma_circ(wb.oracle_sigma_circ, rng)
            pol = adm.polarization_data(lam, wb.canonical_basis)
            for a in pol.p.rows:
                for b in pol.p.rows:
                    assert lam.pair(list(a), list(b)).is_zero()


# -- multiplicity -----------------------------------------------------------------

def test_multiplicity_anisotropic_is_two():
    wb = wb_for("anisotropic-heisenberg")
    assert wb.multiplicity == 2


def test_multiplicity_infinite_cases():
    assert wb_for("heisenberg-2param").multiplicity == adm.INFINITE
    assert wb_for("spiral-heisenberg").multiplicity == adm.INFINITE


def test_multiplicity_constant_across_section_samples():
    for entry_id in ("anisotropic-heisenberg", "heisenberg-2param",
                     "five-dilations-repaired"):
        wb = wb_for(entry_id)
        rng = random.Random(7)
        values = set()
        for _ in range(20):
            lam = sample_sigma_circ(wb.oracle_sigma_circ, rng)
            pol = adm.polarization_data(lam, wb.canonical_basis)
            values.add(adm.multiplicity(wb.canonical_basis, wb.stabilizer, pol))
        assert values == {wb.multiplicity}


# -- verdicts ----------------------------------------------------------------------

def test_verdict_reason_codes():
    assert wb_for("heisenberg-2param").verdict().verdict == \
        "NOT_ADMISSIBLE_CENTER_MEETS_H"
    assert wb_for("spiral-heisenberg").verdict().verdict == "ADMISSIBLE"
    assert wb_for("three-dilations-repaired").verdict().verdict == \
        "NOT_ADMISSIBLE_CENTER_MEETS_H"
    assert wb_for("double-heisenberg").verdict().verdict == \
        "NOT_ADMISSIBLE_UNIMODULAR"


def test_verdict_truth_table_across_corpus():
    for entry_id in VALID_IDS:
        wb = wb_for(entry_id)
        ver = wb.verdict()
        expected = adm.verdict_from_parts(ver.unimodular, ver.dim_z_cap_h)
        assert ver.verdict == expected
        admissible = (not ver.unimodular) and ver.dim_z_cap_h == 0
        assert (ver.verdict == "ADMISSIBLE") == admissible


def test_verdict_rejects_commutative_n():
    spec = spec_from_dict({
        "name": "flat", "n_basis": ["X", "Y"], "h_basis": ["A"],
        "brackets": [
            {"x": "A", "y": "X", "value": [{"c": "1", "b": "X"}]},
            {"x": "A", "y": "Y", "value": [{"c": "1", "b": "Y"}]}]})
    wb = Workbench(spec)
    with pytest.raises(HypothesisViolation):
        wb.verdict()


def test_verdict_rejects_invalid_spec():
    spec = corpus_entry("three-dilations-verbatim").spec()
    wb = Workbench(spec)
    with pytest.raises(HypothesisViolation):
        wb.verdict()


def test_unimodular_finite_multiplicity_divergence_flag():
    # balanced anisotropic action: unimodular, little group = all of h,
    # finite multiplicity; the divergence note must appear
    spec = spec_from_dict({
        "name": "balanced", "n_basis": ["Z", "Y", "X"], "h_basis": ["A"],
        "brackets": [
            {"x": "X", "y": "Y", "value": [{"c": "1", "b": "Z"}]},
            {"x": "A", "y": "X", "value": [{"c": "1", "b": "X"}]},
            {"x": "A", "y": "Y", "value": [{"c": "-1", "b": "Y"}]}]})
    wb = Workbench(spec, trials=16)
    ver = wb.verdict()
    assert ver.verdict == "NOT_ADMISSIBLE_UNIMODULAR"
    assert ver.multiplicity == 2
    assert ver.divergence_note and "INFINITE_MASS" in ver.divergence_note


# -- disintegration ratio test ------------------------------------------------------

def test_disintegration_identity_functions_ratio_one():
    wb = wb_for("heisenberg-2param")
    def f(x):
        import numpy as np
        return np.exp(-(x ** 2).sum(axis=1))
    rep = adm.disintegration_check(wb.spec, wb.canonical_basis, wb.n_layer,
                                   wb.stabilizer, test_functions=(f, f),
                                   mc_samples=20000, seed=5)
    assert rep.ratio_of_ratios == pytest.approx(1.0, abs=1e-12)


def test_disintegration_ratio_small_run():
    wb = wb_for("heisenberg-2param")
    rep = wb.disintegration(mc_samples=200000, seed=99)
    assert abs(rep.ratio_of_ratios - 1.0) < 0.05


def test_disintegration_unsupported_layer():
    wb = wb_for("spiral-heisenberg")   # complex free coordinate
    from solvlie.sections import UnsupportedLayerError
    with pytest.raises(UnsupportedLayerError):
        wb.disintegration(mc_samples=1000)
