import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (SAMPLABLE_IDS, VALID_IDS, corpus_entry, moving_weights,
                      point, wb_for)
from section_oracle import pointwise_stabilizer
from solvlie import sections
from solvlie.functionals import exp_h_coadjoint
from solvlie.gaussian import GaussianRational as G
from solvlie.sections import (NotInSectionError, SectionOracle,
                              UnsupportedLayerError, _rational_circle_point,
                              _sample, h_project, sample_lambda_nu,
                              sample_sigma_circ)
from solvlie.strata import jump_data


# -- membership oracles ---------------------------------------------------------

def test_contains_propagates_zero_division(monkeypatch):
    # every division in section_vectors is guarded, so one that raises is
    # a defect to surface, not a point outside the section
    def divide_by_zero(*args, **kwargs):
        raise ZeroDivisionError("unguarded division")
    wb = wb_for("heisenberg-2param")
    monkeypatch.setattr("solvlie.sections.section_vectors", divide_by_zero)
    with pytest.raises(ZeroDivisionError):
        wb.oracle_lambda.contains(point(wb, Z=1))


def test_lambda_oracle_double_heisenberg_predicate_agreement():
    from solvlie.strata import jump_data
    wb = wb_for("double-heisenberg")
    spec = wb.spec
    rng = random.Random(41)
    oracle = wb.oracle_lambda
    hits = misses = 0
    for k in range(100):
        coords = {lab: Fraction(rng.randint(-4, 4)) for lab in spec.names}
        if k % 2 == 0:
            for lab in ("Y1", "Y2", "X1", "X2"):
                coords[lab] = Fraction(0)
        f = point(wb, **{k_: v for k_, v in coords.items()})
        zero_on = all(coords[lab] == 0 for lab in ("Y1", "Y2", "X1", "X2"))
        jd = jump_data(f, wb.canonical_basis, "n")
        in_layer = (jd.e_set == wb.n_layer.e_set
                    and jd.j_seq == wb.n_layer.j_seq)
        expected = zero_on and in_layer
        got = oracle.contains(f)
        assert got == expected
        hits += got
        misses += not got
    assert hits > 10 and misses > 10


def test_lambda_nu_oracle_heisenberg_closed_form():
    wb = wb_for("heisenberg-2param")
    rng = random.Random(42)
    oracle = wb.oracle_lambda_nu
    for _ in range(100):
        z = Fraction(rng.randint(-6, 6))
        y = Fraction(rng.randint(-2, 2))
        x = Fraction(rng.randint(-2, 2))
        f = point(wb, Z=z, Y=y, X=x)
        assert oracle.contains(f) == (z != 0 and y == 0 and x == 0)


def test_sigma_circ_exactly_two_points_heisenberg():
    wb = wb_for("heisenberg-2param")
    oracle = wb.oracle_sigma_circ
    assert oracle.contains(point(wb, Z=1))
    assert oracle.contains(point(wb, Z=-1))
    for z in (2, -2, 3, Fraction(1, 2)):
        assert not oracle.contains(point(wb, Z=z))


@pytest.mark.parametrize("kind", ["SigmaCirc", "Sigma"])
def test_dilation_section_oracle_needs_stabilizer_data(kind):
    # without the little-group data phi would be empty, and a SigmaCirc
    # oracle would accept l(Z) = -2, which the Workbench's own rejects
    wb = wb_for("heisenberg-2param")
    assert not wb.oracle_sigma_circ.contains(point(wb, Z=-2))
    with pytest.raises(ValueError, match="needs stabilizer data"):
        SectionOracle(kind, wb.canonical_basis, wb.n_layer)
    built = SectionOracle(kind, wb.canonical_basis, wb.n_layer, wb.stabilizer)
    assert not built.contains(point(wb, Z=-2))
    assert built.contains(point(wb, Z=1))
    for other in ("Lambda", "LambdaNu"):
        assert SectionOracle(other, wb.canonical_basis,
                             wb.n_layer).contains(point(wb, Z=-2))


def test_sigma_oracle_spiral_modulus_constraint():
    wb = wb_for("spiral-heisenberg")
    oracle = wb.oracle_sigma_circ
    assert oracle.contains(point(wb, Z1=Fraction(3, 5), Z2=Fraction(4, 5)))
    assert oracle.contains(point(wb, Z1=-1))
    assert not oracle.contains(point(wb, Z1=2))
    assert not oracle.contains(point(wb, Z1=1, Z2=1))
    kinds = [c.kind for c in oracle.constraints]
    assert "MODULUS_ONE" in kinds


def test_sigma_oracle_coupled_pairs_case3_constraint():
    # the pairing constraint Re(conj(z) x) = 0 with |z| = 1
    wb = wb_for("coupled-pairs")
    oracle = wb.oracle_sigma_circ
    assert oracle.contains(point(wb, Z1=1, X2=1))
    assert oracle.contains(point(wb, Z1=1, X2=-3))
    assert not oracle.contains(point(wb, Z1=1, X1=1, X2=1))
    assert not oracle.contains(point(wb, Z1=2, X2=1))
    # mixed z: pick |z| = 1 via (3/5, 4/5); x must pair to zero:
    # Re(conj(z) x) = (3/5) x1 + (4/5) x2 = 0 at x = (4, -3) and fail at (1, 1)
    assert oracle.contains(point(wb, Z1=Fraction(3, 5), Z2=Fraction(4, 5),
                                  X1=4, X2=-3))
    assert not oracle.contains(point(wb, Z1=Fraction(3, 5), Z2=Fraction(4, 5),
                                     X1=1, X2=1))


def test_full_section_oracle_frees_little_group_dual():
    wb = wb_for("heisenberg-2param")
    oracle = wb.oracle_sigma
    assert oracle.contains(point(wb, Z=1, B=17))
    assert oracle.contains(point(wb, Z=-1, B=Fraction(-3, 7)))
    assert not oracle.contains(point(wb, Z=1, A=1))


def test_oracle_constraint_tags():
    wb = wb_for("heisenberg-2param")
    kinds = [(c.kind, c.index) for c in wb.oracle_sigma.constraints]
    assert ("VANISH", 2) in kinds and ("VANISH", 3) in kinds
    assert ("NONZERO", 1) in kinds
    assert ("MODULUS_ONE", 1) in kinds
    assert ("H_PART_ZERO", None) in kinds
    wb2 = wb_for("coupled-pairs")
    kinds2 = [c.kind for c in wb2.oracle_lambda.constraints]
    assert "CASE3_COMBO" in kinds2
    assert wb2.oracle_lambda.printable_form is None


# -- stabilizer -----------------------------------------------------------------

def test_stabilizer_heisenberg_2param():
    wb = wb_for("heisenberg-2param")
    stab = wb.stabilizer
    assert stab.nu == (1,)
    assert stab.k_dim == 1
    assert stab.k_subalg.contains_vector([G(0), G(1)])  # B
    assert stab.a_basis == [(Fraction(1), Fraction(0))]  # A, already normalized


def test_stabilizer_anisotropic_direction():
    wb = wb_for("anisotropic-heisenberg")
    stab = wb.stabilizer
    assert stab.k_dim == 1
    assert stab.k_subalg.contains_vector([G(0), G(1)])  # the A2 direction
    # its weight on the center of n vanishes
    assert wb.canonical_basis.weights[0][1].is_zero()


def test_stabilizer_trivial_for_spiral():
    wb = wb_for("spiral-heisenberg")
    assert wb.stabilizer.k_dim == 0
    assert wb.stabilizer.phi == (1,)


def test_pointwise_stabilizer_matches_common_kernel():
    rng = random.Random(43)
    for entry_id in SAMPLABLE_IDS:
        wb = wb_for(entry_id)
        for _ in range(10):
            f = sample_lambda_nu(wb.oracle_lambda_nu, rng)
            sub = pointwise_stabilizer(f, wb.canonical_basis)
            assert sub == wb.stabilizer.k_subalg


def test_stabilizer_flow_fixes_section_points():
    rng = random.Random(44)
    wb = wb_for("anisotropic-heisenberg")
    spec = wb.spec
    for _ in range(10):
        f = sample_lambda_nu(wb.oracle_lambda_nu, rng)
        a = [G(0)] * spec.dim
        a[spec.index("A2")] = G(rng.randint(-3, 3))
        assert moving_weights(f, a) == []
        moved = exp_h_coadjoint(spec, a, f)
        assert list(moved.values) == [float(v) for v in f.values]


# -- samplers ---------------------------------------------------------------------

def test_lambda_nu_sampler_members_only():
    rng = random.Random(45)
    for entry_id in SAMPLABLE_IDS:
        wb = wb_for(entry_id)
        for _ in range(10):
            f = sample_lambda_nu(wb.oracle_lambda_nu, rng)
            assert wb.oracle_lambda_nu.contains(f)


def test_sigma_circ_sampler_members_only():
    rng = random.Random(46)
    for entry_id in SAMPLABLE_IDS:
        wb = wb_for(entry_id)
        for _ in range(10):
            f = sample_sigma_circ(wb.oracle_sigma_circ, rng)
            assert wb.oracle_sigma_circ.contains(f)


def test_sampler_unsupported_on_case3_layer():
    wb = wb_for("coupled-pairs")
    with pytest.raises(UnsupportedLayerError):
        sample_lambda_nu(wb.oracle_lambda_nu, random.Random(0))


@pytest.mark.parametrize("sampler, kind", [(sample_lambda_nu, "LambdaNu"),
                                            (sample_sigma_circ, "SigmaCirc")])
def test_public_samplers_decide_each_draw_through_contains(monkeypatch,
                                                           sampler, kind):
    # one SectionOracle.contains call per draw of _draws, rejected draws
    # included, and the point is the draw it accepted
    drawn, calls = [], []
    draws, contains = sections._draws, SectionOracle.contains

    def counted_draws(*args):
        for f in draws(*args):
            drawn.append(f.values)
            yield f

    def reject_two(self, f):
        calls.append(f.values)
        return len(calls) > 2 and contains(self, f)

    monkeypatch.setattr(sections, "_draws", counted_draws)
    monkeypatch.setattr(SectionOracle, "contains", reject_two)
    for entry_id in SAMPLABLE_IDS:
        oracle = wb_for(entry_id)._oracle(kind)
        drawn.clear()
        calls.clear()
        f = sampler(oracle, random.Random(3))
        assert calls == drawn and len(calls) >= 3, entry_id
        assert f.values == calls[-1]


def test_draws_put_phi_on_the_unit_circle_on_sigma_circ_only():
    # phi is read off the oracle's MODULUS_ONE constraints: the
    # stabilizer's phi on Sigma-circ, none on Lambda and Lambda_nu, whose
    # free coordinates are nonzero Gaussian integers (a coordinate of phi
    # paired with a conjugate carries the conjugate circle point there)
    for entry_id in SAMPLABLE_IDS:
        wb = wb_for(entry_id)
        sigma, e = wb.canonical_basis.sigma, set(wb.n_layer.e_set)
        phi = {k for j in wb.stabilizer.phi for k in (j, sigma[j])}
        free = [j for j in range(1, wb.spec.n_dim + 1) if j not in e]
        for oracle in (wb.oracle_lambda, wb.oracle_lambda_nu,
                       wb.oracle_sigma_circ):
            off_circle = 0
            for f in itertools.islice(
                    sections._draws(oracle, random.Random(9)), 20):
                for j in free:
                    z = f.z(j)
                    if oracle.kind == "SigmaCirc" and j in phi:
                        assert z * z.conjugate() == 1, (entry_id, j)
                        continue
                    assert z and z.re.denominator == z.im.denominator == 1
                    off_circle += j in phi and z * z.conjugate() != 1
            assert bool(off_circle) == (oracle.kind != "SigmaCirc" and
                                        bool(phi)), (entry_id, oracle.kind)


# -- projection along dilation orbits ----------------------------------------------

def test_h_project_heisenberg_log():
    wb = wb_for("heisenberg-2param")
    f = point(wb, Z=4)
    params, sigma = h_project(f, wb.stabilizer, wb.oracle_lambda_nu)
    assert params == pytest.approx((math.log(4),))
    assert complex(sigma.z(1)) == pytest.approx(1.0)
    f2 = point(wb, Z=-4)
    _, sigma2 = h_project(f2, wb.stabilizer, wb.oracle_lambda_nu)
    assert complex(sigma2.z(1)) == pytest.approx(-1.0)


def test_h_project_identity_on_section():
    wb = wb_for("heisenberg-2param")
    f = point(wb, Z=1)
    params, sigma = h_project(f, wb.stabilizer, wb.oracle_lambda_nu)
    assert params == pytest.approx((0.0,))
    assert complex(sigma.z(1)) == pytest.approx(1.0)


def test_h_project_spiral_rotation():
    wb = wb_for("spiral-heisenberg")
    f = point(wb, Z1=2)
    params, sigma = h_project(f, wb.stabilizer, wb.oracle_lambda_nu)
    z = complex(sigma.z(1))
    assert abs(abs(z) - 1.0) < 1e-12
    assert math.atan2(z.imag, z.real) == pytest.approx(-math.log(2), abs=1e-9)


def test_project_without_dilations_lands_on_start_point():
    # dim h = 0: there is nothing to solve for, and a float point of the
    # section is already on it
    wb = wb_for("double-heisenberg")
    f = sample_lambda_nu(wb.oracle_lambda_nu, random.Random(50)).to_float()
    params, sigma = wb.project(f)
    assert params == ()
    assert sigma.values == pytest.approx(f.values)


DILATION_IDS = [i for i in VALID_IDS if corpus_entry(i).spec().h_dim]


def _sigma_circ_starts(entry_id, wb, rng):
    """Exact points of the dilation-orbit section: sampled where the layer
    has a sampler, else the section points listed in the corpus entry."""
    if entry_id in SAMPLABLE_IDS:
        return [sample_sigma_circ(wb.oracle_sigma_circ, rng) for _ in range(3)]
    listed = [e.value for e in corpus_entry(entry_id).expected
              if e.check == "sigma_circ_contains"]
    return [point(wb, **coords) for value in listed for coords in value]


@pytest.mark.parametrize("entry_id", DILATION_IDS)
def test_project_lands_on_the_section_at_its_start(entry_id):
    # h_project checks its landing by the modulus condition alone; the full
    # oracle must accept the landed point, and a section point moved by a
    # dilation flow must come back to where it started
    rng = random.Random(510 + VALID_IDS.index(entry_id))
    wb = wb_for(entry_id)
    spec = wb.spec
    starts = _sigma_circ_starts(entry_id, wb, rng)
    assert starts
    for start in starts:
        for _ in range(3):
            a = [0.0] * spec.n_dim + [rng.uniform(-1.0, 1.0)
                                      for _ in range(spec.h_dim)]
            moved = exp_h_coadjoint(spec, a, start, mode="float")
            _, landed = wb.project(moved)
            assert wb.oracle_sigma_circ.contains(landed)
            scale = 1.0 + max(abs(float(x)) for x in start.values)
            err = max(abs(x - float(y))
                      for x, y in zip(landed.values, start.values))
            assert err <= 1e-6 * scale


def test_h_project_rejects_non_members():
    wb = wb_for("heisenberg-2param")
    with pytest.raises(NotInSectionError):
        h_project(point(wb, Z=1, X=1), wb.stabilizer, wb.oracle_lambda_nu)


def test_h_project_invariance_along_orbits():
    # projecting f and a dilation-moved copy of f lands on the same point
    rng = random.Random(47)
    wb = wb_for("anisotropic-heisenberg")
    spec = wb.spec
    for _ in range(8):
        f = sample_lambda_nu(wb.oracle_lambda_nu, rng)
        _, s1 = h_project(f, wb.stabilizer, wb.oracle_lambda_nu)
        a = [0.0] * spec.dim
        a[spec.index("A1")] = rng.uniform(-1.0, 1.0)
        a[spec.index("A2")] = rng.uniform(-1.0, 1.0)
        moved = exp_h_coadjoint(spec, a, f, mode="float")
        _, s2 = h_project(moved, wb.stabilizer, wb.oracle_lambda_nu)
        for v1, v2 in zip(s1.values, s2.values):
            assert v1 == pytest.approx(v2, abs=1e-8)


def test_h_project_idempotent():
    rng = random.Random(48)
    wb = wb_for("heisenberg-2param")
    for _ in range(8):
        f = sample_lambda_nu(wb.oracle_lambda_nu, rng)
        params, sigma = h_project(f, wb.stabilizer, wb.oracle_lambda_nu)
        params2, _ = h_project(sigma, wb.stabilizer, wb.oracle_lambda_nu)
        assert all(abs(p) < 1e-9 for p in params2)


def test_lambda_nu_invariant_under_dilation_flow():
    rng = random.Random(49)
    wb = wb_for("heisenberg-2param")
    spec = wb.spec
    for _ in range(10):
        f = sample_lambda_nu(wb.oracle_lambda_nu, rng)
        a = [0.0] * spec.dim
        a[spec.index("A")] = rng.uniform(-1.5, 1.5)
        a[spec.index("B")] = rng.uniform(-1.5, 1.5)
        moved = exp_h_coadjoint(spec, a, f, mode="float")
        assert wb.oracle_lambda_nu.contains(moved)


@pytest.mark.parametrize("entry_id", SAMPLABLE_IDS)
def test_member_sampler_returns_the_accepting_reduction(entry_id):
    # the point of sample_lambda_nu, with the n* jump data contains computed
    wb = wb_for(entry_id)
    oracle, basis = wb.oracle_lambda_nu, wb.oracle_lambda_nu.basis
    for seed in range(3):
        f = sample_lambda_nu(oracle, random.Random(seed))
        g, jd = _sample(oracle, random.Random(seed), oracle._member)
        assert g.values == f.values
        want = jump_data(g, basis, "n")
        assert (jd.i_seq, jd.j_seq) == (want.i_seq, want.j_seq)
        assert jd.pfaffian() == want.pfaffian()


def test_member_sampler_skips_rejected_draws(monkeypatch):
    # draws the oracle rejects are drawn again, as in sample_lambda_nu
    wb = wb_for("heisenberg-2param")
    oracle = wb.oracle_lambda_nu
    member = type(oracle)._member
    seen = []

    def reject_two(self, f):
        seen.append(f.values)
        return None if len(seen) <= 2 else member(self, f)

    monkeypatch.setattr(type(oracle), "_member", reject_two)
    g, jd = _sample(oracle, random.Random(5), oracle._member)
    assert len(seen) == 3 and g.values == seen[2]
    seen.clear()
    f = sample_lambda_nu(oracle, random.Random(5))
    assert len(seen) == 3 and f.values == g.values
    assert jd.pfaffian() == jump_data(g, oracle.basis, "n").pfaffian()


def test_rational_circle_point_keeps_the_fraction_route_and_stream():
    def fraction_route(rng):
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        d = 1 + t * t
        return G((1 - t * t) / d, 2 * t / d)

    a, b = random.Random(4304), random.Random(4304)
    for _ in range(300):
        z = _rational_circle_point(a)
        assert z == fraction_route(b) and z * z.conjugate() == 1
    assert a.random() == b.random()
