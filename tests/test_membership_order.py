"""Section membership decided in cost order.

``SectionOracle.contains`` tests the coordinate equations of its kind
(nonzero off e, unit modulus on phi, zero on the normalized dilation
directions) on the adapted values first, and reduces only a point that
passes them. ``section_oracle.contains`` keeps the order of the section's
definition: reduction and section vectors first, then every equation. The
two must agree on all four kinds, at accepted points and at points that
fail each coordinate equation, exact and float; a point that fails a
coordinate equation is refused without a reduction.
"""

import random

import pytest

from gen_specs import double_heisenberg_with_v
import section_oracle
from conftest import SAMPLABLE_IDS, VALID_IDS, case_table, point, wb_for
from solvlie.algebra import spec_from_dict
from solvlie.functionals import Functional, adapted_values
from solvlie.sections import SectionOracle, sample_lambda_nu, sample_sigma_circ
from solvlie.strata import LayerDescriptor, jump_data
from solvlie.workbench import Workbench

KINDS = ("Lambda", "LambdaNu", "SigmaCirc", "Sigma")
# the kinds whose section is cut out by each coordinate equation
CUT_BY = {"nonzero": KINDS[1:], "modulus": KINDS[2:], "h part": KINDS[3:]}


def _oracles(wb):
    return {"Lambda": wb.oracle_lambda, "LambdaNu": wb.oracle_lambda_nu,
            "SigmaCirc": wb.oracle_sigma_circ, "Sigma": wb.oracle_sigma}


def _members(entry_id, wb):
    """Points of the Sigma section, so of all four."""
    if entry_id in SAMPLABLE_IDS:
        return [sample_sigma_circ(wb.oracle_sigma_circ, random.Random(seed))
                for seed in range(2)]
    # coupled-pairs: a case-3 layer with no sampler
    return [point(wb, Z1=1, X2=1), point(wb, Z1=1, X2=-3)]


def _failing(wb, f):
    """(equation, point) pairs, each point f with one coordinate equation
    broken: an adapted value off e set to 0, one on phi doubled (each with
    its conjugate), or the h part set to a normalized dilation direction."""
    basis, oracle = wb.canonical_basis, wb.oracle_sigma
    zvals = adapted_values(f, basis.terms)
    e = set(wb.n_layer.e_set)
    out = []
    for j in range(1, basis.n + 1):
        if j in e or basis.sigma[j] < j:
            continue
        for name, scale in (("nonzero", 0), ("modulus", 2)):
            if name == "modulus" and j not in oracle.phi:
                continue
            zs = list(zvals)
            zs[j - 1] = zs[j - 1] * scale
            zs[basis.sigma[j] - 1] = zs[j - 1].conjugate()
            out.append((name, Functional.from_adapted(basis, zs)))
    nd = basis.spec.n_dim
    for a in oracle.stab.a_basis:
        out.append(("h part", Functional(
            basis, list(f.values[:nd]) + list(a), exact=True)))
    return out


def _outcome(contains, oracle, f):
    try:
        return contains(oracle, f)
    except ValueError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_contains_matches_the_oracle(entry_id):
    wb = wb_for(entry_id)
    oracles = _oracles(wb)
    members = _members(entry_id, wb)
    if entry_id in SAMPLABLE_IDS:
        # points of the dense part off the dilation-orbit section
        members_nu = [sample_lambda_nu(wb.oracle_lambda_nu, random.Random(7))]
    else:
        members_nu = []
    broken = [(name, g) for f in members for name, g in _failing(wb, f)]
    assert {name for name, _ in broken} >= {"nonzero"}
    for f in members + members_nu + [g for _, g in broken]:
        for g in (f, f.to_float()):
            for kind in KINDS:
                oracle = oracles[kind]
                got = _outcome(SectionOracle.contains, oracle, g)
                assert got == _outcome(section_oracle.contains, oracle, g), \
                    (kind, g.values)
    for f in members:
        for g in (f, f.to_float()):
            assert all(oracles[kind].contains(g) for kind in KINDS)
    for f in members_nu:
        assert oracles["Lambda"].contains(f) and oracles["LambdaNu"].contains(f)
    for name, f in broken:
        for g in (f, f.to_float()):
            assert not any(oracles[kind].contains(g) for kind in CUT_BY[name])


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_failed_coordinate_equation_needs_no_reduction(monkeypatch, entry_id):
    wb = wb_for(entry_id)
    oracles = _oracles(wb)
    members = _members(entry_id, wb)
    broken = [(name, g) for f in members for name, g in _failing(wb, f)]

    def no_reduction(*args, **kwargs):
        raise AssertionError("reduced a point")
    monkeypatch.setattr("solvlie.sections.jump_data", no_reduction)
    for name, f in broken:
        for g in (f, f.to_float()):
            for kind in CUT_BY[name]:
                assert not oracles[kind].contains(g), (kind, name)
    # a point that passes them is reduced
    for kind in KINDS:
        with pytest.raises(AssertionError, match="reduced a point"):
            oracles[kind].contains(members[0])


def test_unsupported_case_does_not_escape_a_failed_coordinate():
    # double-heisenberg with a real V, [V, Y2] = Z1: on the layer
    # ((3, 4, 5, 7), (5, 7)) section_vectors has no case for pair 2. A
    # point of that layer with every coordinate off e nonzero reaches it
    # and raises; one with Z_6 = 0 fails l(Z_6) != 0 and is refused first,
    # where the oracle's order raises
    basis = Workbench(spec_from_dict(double_heisenberg_with_v())).basis
    inside = Functional(basis, [1, 0, 0, 0, 0, 1, 1], exact=True)
    jd = jump_data(inside, basis, "n")
    table = case_table(jd)
    layer = LayerDescriptor("n", jd.e_set, jd.i_seq, jd.j_seq, table.stable,
                            dict(table.primes), dict(table.cases), ())
    assert (layer.e_set, layer.j_seq) == ((3, 4, 5, 7), (5, 7))
    oracle = SectionOracle("LambdaNu", basis, layer)
    zero_z6 = Functional(basis, [1, 0, 0, 0, 0, 0, 1], exact=True)
    assert jump_data(zero_z6, basis, "n").key() == jd.key()
    assert adapted_values(zero_z6, basis.terms)[5] == 0
    unsupported = "UnsupportedCaseError"
    assert _outcome(SectionOracle.contains, oracle, inside) == unsupported
    assert _outcome(section_oracle.contains, oracle, inside) == unsupported
    assert _outcome(SectionOracle.contains, oracle, zero_z6) is False
    assert _outcome(section_oracle.contains, oracle, zero_z6) == unsupported
    # the Lambda kind has no coordinate equation, so it still raises
    lam = SectionOracle("Lambda", basis, layer)
    assert _outcome(SectionOracle.contains, lam, zero_z6) == unsupported
