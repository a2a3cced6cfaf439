import copy
import dataclasses
import random
from fractions import Fraction

import pytest

import disintegration_oracle
from conftest import VALID_IDS, corpus_entry, point, wb_for
from disintegration_oracle import (within_standard_errors,
                                   workbench_disintegration)
from gen_specs import dense_center_spec
from solvlie import admissibility as adm
from solvlie.adapted import build_adaptable_basis
from solvlie.algebra import HypothesisViolation, spec_from_dict
from solvlie.functionals import Functional
from solvlie.gaussian import GaussianRational as G
from solvlie.sections import UnsupportedLayerError, sample_sigma_circ
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
    wb = Workbench(spec)
    ver = wb.verdict()
    assert ver.verdict == "NOT_ADMISSIBLE_UNIMODULAR"
    assert ver.multiplicity == 2
    assert ver.divergence_note and "INFINITE_MASS" in ver.divergence_note


# -- disintegration: the exact constant, and the Monte-Carlo oracle ---------------

# corpus layers with a finite dilation-orbit section and real free coordinates
DISINTEGRATION_IDS = ["anisotropic-heisenberg", "filiform-dilations-repaired",
                      "heisenberg-2param", "heisenberg-complex-dilation",
                      "three-dilations-repaired"]


def _heisenberg_power_spec(m):
    """H_3^m with one dilation A_i per copy: weight 2 on Z_i, 1 on X_i and
    Y_i. The free coordinates are the Z_i, and r = m."""
    copies = range(1, m + 1)
    brackets = []
    for i in copies:
        brackets.append({"x": f"X{i}", "y": f"Y{i}",
                         "value": [{"c": "1", "b": f"Z{i}"}]})
        brackets += [{"x": f"A{i}", "y": f"{v}{i}",
                      "value": [{"c": c, "b": f"{v}{i}"}]}
                     for v, c in (("Z", "2"), ("Y", "1"), ("X", "1"))]
    return spec_from_dict({
        "name": f"heisenberg-power-{m}",
        "n_basis": [f"{v}{i}" for v in "ZYX" for i in copies],
        "h_basis": [f"A{i}" for i in copies], "brackets": brackets})


def _tampered_basis(wb, **fields):
    """A copy of the workbench's canonical basis with some fields replaced."""
    basis = copy.copy(wb.canonical_basis)
    for name, value in fields.items():
        setattr(basis, name, value)
    return basis


def test_disintegration_identity_functions_ratio_one():
    wb = wb_for("heisenberg-2param")
    def f(x):
        import numpy as np
        return np.exp(-(x ** 2).sum(axis=1))
    rep = disintegration_oracle.disintegration_check(
        wb.spec, wb.canonical_basis, wb.n_layer, wb.stabilizer,
        test_functions=(f, f), mc_samples=20000, seed=5)
    assert rep.ratio_of_ratios == pytest.approx(1.0, abs=1e-12)
    assert within_standard_errors(rep, wb.disintegration())


def test_disintegration_ratio_small_run():
    wb = wb_for("heisenberg-2param")
    rep = workbench_disintegration(wb, mc_samples=200000, seed=99)
    assert abs(rep.ratio_of_ratios - 1.0) < 0.05
    assert within_standard_errors(rep, wb.disintegration())


def test_disintegration_unsupported_layer():
    wb = wb_for("spiral-heisenberg")   # free coordinates without a modulus
    with pytest.raises(UnsupportedLayerError):
        wb.disintegration()


@pytest.mark.parametrize("entry_id", DISINTEGRATION_IDS)
def test_disintegration_constant_is_one_on_corpus(entry_id):
    wb = wb_for(entry_id)
    assert wb.stabilizer.phi == wb.stabilizer.nu
    assert adm.disintegration_check(wb.canonical_basis, wb.n_layer,
                                    wb.stabilizer) == Fraction(1)


@pytest.mark.parametrize("entry_id",
                         sorted(set(VALID_IDS) - set(DISINTEGRATION_IDS)))
def test_disintegration_unsupported_corpus_layers(entry_id):
    with pytest.raises(UnsupportedLayerError):
        wb_for(entry_id).disintegration()


@pytest.mark.parametrize("m", [8, 10, 12, 14, 16])
def test_disintegration_constant_dense_center(m):
    wb = Workbench(dense_center_spec(m))
    assert len(wb.n_layer.e_set) == m
    assert wb.disintegration() == 1


@pytest.mark.parametrize("m", [2, 3, 4])
def test_disintegration_constant_heisenberg_power(m):
    wb = Workbench(_heisenberg_power_spec(m))
    assert wb.stabilizer.r == m and len(wb.stabilizer.nu) == m
    assert wb.disintegration() == 1


def test_disintegration_rejects_weight_incompatible_brackets():
    # [Z_a, Z_b] gains a term on a coordinate whose weight is not
    # gamma_a + gamma_b
    wb = wb_for("heisenberg-2param")
    e_set, gamma = wb.n_layer.e_set, wb.canonical_basis.weights
    structure = dict(wb.canonical_basis.structure)
    (a, b), row = next(((p, q), row) for (p, q), row in structure.items()
                       if p + 1 in e_set and q + 1 in e_set)
    target = tuple(x + y for x, y in zip(gamma[a], gamma[b]))
    k = next(k for k in range(wb.spec.n_dim) if gamma[k] != target)
    structure[(a, b)] = {**row, k: G(1)}
    basis = _tampered_basis(wb, structure=structure)
    with pytest.raises(adm.DisintegrationError, match="weight-compatible"):
        adm.disintegration_check(basis, wb.n_layer, wb.stabilizer)


def test_disintegration_rejects_an_unnormalized_little_group_basis():
    # A_1 doubled: W = diag(2, 1, ...), which |det W| alone reported as a
    # constant 2
    wb = wb_for("heisenberg-2param")
    a_basis = list(wb.stabilizer.a_basis)
    a_basis[0] = tuple(2 * c for c in a_basis[0])
    stab = dataclasses.replace(wb.stabilizer, a_basis=a_basis)
    with pytest.raises(adm.DisintegrationError, match="A_1"):
        adm.disintegration_check(wb.canonical_basis, wb.n_layer, stab)


def test_disintegration_rejects_a_broken_trace_identity():
    # doubled weights keep C weight-compatible but no longer sum to tr ad
    wb = wb_for("heisenberg-2param")
    doubled = [tuple(x + x for x in w) for w in wb.canonical_basis.weights]
    basis = _tampered_basis(wb, weights=doubled)
    with pytest.raises(adm.DisintegrationError, match="tr ad"):
        adm.disintegration_check(basis, wb.n_layer, wb.stabilizer)
