import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (VALID_IDS, form_values, point, sample_element,
                      sub_form, wb_for)
from jump_oracle import bilinear_form, flag, perp
from pfaffian_oracle import det
from section_oracle import real_section_vectors
from solvlie.functionals import (Functional, NeedsFloatError, exp_h_coadjoint,
                                 exp_unipotent_coadjoint, sample_functional)
from solvlie.gaussian import GaussianRational as G
from solvlie import strata
from solvlie.strata import (TRIALS, InconsistentSamplingError,
                            LayerDescriptor, LayerMismatchError, NotSkewError,
                            OddDimensionError, UnsupportedCaseError,
                            generic_layer, jump_data, pfaffian,
                            section_vectors)


# -- bilinear form ------------------------------------------------------------

def test_bilinear_form_heisenberg_skew():
    wb = wb_for("heisenberg-2param")
    l = point(wb, Z=1)
    n_amb = flag(wb.canonical_basis, 3)
    mat = bilinear_form(l, n_amb)
    # on the (Z, Y, X) basis rows: only the (Y, X) slots are nonzero
    assert mat[1][2] == G(-1) and mat[2][1] == G(1)
    for i in range(3):
        assert mat[i][i].is_zero()


def test_bilinear_form_zero_functional():
    wb = wb_for("heisenberg-2param")
    l = point(wb)
    mat = bilinear_form(l, flag(wb.canonical_basis, 3))
    assert all(v.is_zero() for row in mat for v in row)


def test_bilinear_form_rank_double_heisenberg():
    # rank of the form at a point with only the top coordinates set
    wb = wb_for("double-heisenberg")
    l = point(wb, Z1=1, Z2=2)
    from solvlie.linalg import rank
    mat = bilinear_form(l, flag(wb.canonical_basis, 6))
    assert rank(mat) == 4


# -- annihilators -------------------------------------------------------------

def test_perp_of_central_direction_is_everything():
    wb = wb_for("double-heisenberg")
    basis = wb.canonical_basis
    l = point(wb, Z1=3, Y1=1, X2=2)
    amb = flag(basis, 6)
    sub = perp(l, [list(basis.vector(1))], amb)
    assert sub.dim == 6


def test_perp_single_direction_heisenberg():
    wb = wb_for("heisenberg-2param")
    basis = wb.canonical_basis
    spec = wb.spec
    l = point(wb, Z=1)
    x_vec = [list(spec.basis_vector("X"))]
    # inside n: one nonzero condition l[X, Y] = l(Z), so span{Z, X} remains
    sub_n = perp(l, x_vec, flag(basis, 3))
    assert sub_n.dim == 2
    for lab in ("Z", "X"):
        assert sub_n.contains_vector(list(spec.basis_vector(lab)))
    assert not sub_n.contains_vector(list(spec.basis_vector("Y")))
    # inside g the condition is still a single one: codimension 1
    sub_g = perp(l, x_vec, flag(basis, spec.dim))
    assert sub_g.dim == 4
    for lab in ("Z", "X", "B"):
        assert sub_g.contains_vector(list(spec.basis_vector(lab)))


def test_radical_dimension_matches_jump_count():
    rng = random.Random(31)
    wb = wb_for("heisenberg-2param")
    basis = wb.canonical_basis
    for _ in range(10):
        l = sample_functional(basis, rng, support="g")
        jd = jump_data(l, basis, "g")
        amb = flag(basis, basis.dim)
        rad = perp(l, amb.rows, amb)
        assert rad.dim == basis.dim - 2 * jd.d


# -- jump data ----------------------------------------------------------------

def test_jump_data_heisenberg_n():
    wb = wb_for("heisenberg-2param")
    l = point(wb, Z=4)
    jd = jump_data(l, wb.canonical_basis, "n")
    assert jd.e_set == (2, 3) and jd.i_seq == (2,) and jd.j_seq == (3,)


def test_jump_data_double_heisenberg_top_point():
    wb = wb_for("double-heisenberg")
    l = point(wb, Z1=1, Z2=2)
    jd = jump_data(l, wb.canonical_basis, "n")
    assert jd.e_set == (3, 4, 5, 6)
    assert jd.i_seq == (3, 4) and jd.j_seq == (5, 6)


def test_polarizing_rows_need_an_exact_point():
    # the rows replay the reduction on exact unit vectors; at a float point
    # the products would mix GaussianRational and complex, so they refuse;
    # the Pfaffian, read off the same steps, is exact only as well
    wb = wb_for("heisenberg-2param")
    spec, basis = wb.spec, wb.canonical_basis
    l = point(wb, Z=1, Y=2, X=3)
    a = [0.0] * spec.dim
    a[spec.index("A")] = 0.5
    moved = exp_h_coadjoint(spec, a, l, mode="float")
    for ambient in ("n", "g"):
        jd = jump_data(moved, basis, ambient)
        assert jd.d >= 1
        with pytest.raises(NeedsFloatError, match="requires an exact functional"):
            jd.polarization()
        with pytest.raises(NeedsFloatError, match="requires an exact functional"):
            jd.pfaffian()
        exact = jump_data(l, basis, ambient)
        assert (exact.i_seq, exact.j_seq) == (jd.i_seq, jd.j_seq)
        rows, sub = exact.polarization()
        # sparse rows over the adapted vectors, keys ascending
        assert all(isinstance(x, G) and x for row in rows for x in row.values())
        assert all(list(row) == sorted(row) for row in rows)
        assert sub.dim == len(rows)


def test_jump_data_abelian_n_empty():
    from solvlie.algebra import spec_from_dict
    from solvlie.adapted import build_adaptable_basis
    spec = spec_from_dict({
        "name": "flat", "n_basis": ["X", "Y"], "h_basis": ["A"],
        "brackets": [
            {"x": "A", "y": "X", "value": [{"c": "1", "b": "X"}]},
            {"x": "A", "y": "Y", "value": [{"c": "2", "b": "Y"}]}]})
    basis = build_adaptable_basis(spec)
    rng = random.Random(32)
    for _ in range(5):
        f = sample_functional(basis, rng, support="n")
        assert jump_data(f, basis, "n").e_set == ()


def test_jump_data_zero_functional_empty():
    wb = wb_for("heisenberg-2param")
    jd = jump_data(point(wb), wb.canonical_basis, "g")
    assert jd.e_set == () and jd.d == 0


def test_jump_invariants_on_samples():
    rng = random.Random(33)
    for entry_id in ("heisenberg-2param", "spiral-heisenberg",
                     "five-dilations-repaired", "free-two-step"):
        wb = wb_for(entry_id)
        basis = wb.canonical_basis
        for _ in range(15):
            l = sample_functional(basis, rng, support="g")
            if l.is_zero():
                continue
            jd = jump_data(l, basis, "g")
            assert len(jd.e_set) == 2 * jd.d
            assert all(i < j for i, j in zip(jd.i_seq, jd.j_seq))
            assert tuple(sorted(jd.i_seq)) == jd.i_seq


def test_jump_set_invariant_under_unipotent_moves():
    rng = random.Random(34)
    wb = wb_for("heisenberg-2param")
    basis = wb.canonical_basis
    spec = wb.spec
    l = sample_functional(basis, rng, support="g")
    base = jump_data(l, basis, "g")
    for _ in range(20):
        x = sample_element(spec, rng, bound=4, support="n")
        moved = exp_unipotent_coadjoint(spec, x, l)
        jd = jump_data(moved, basis, "g")
        assert jd.e_set == base.e_set and jd.j_seq == base.j_seq


def test_jump_set_invariant_under_float_h_flow():
    from solvlie.functionals import exp_h_coadjoint
    rng = random.Random(35)
    wb = wb_for("anisotropic-heisenberg")
    basis = wb.canonical_basis
    spec = wb.spec
    l = sample_functional(basis, rng, support="g")
    base = jump_data(l, basis, "g")
    for _ in range(5):
        a = [0.0] * spec.dim
        a[spec.index("A1")] = rng.uniform(-1.5, 1.5)
        a[spec.index("A2")] = rng.uniform(-1.5, 1.5)
        moved = exp_h_coadjoint(spec, a, l, mode="float")
        jd = jump_data(moved, basis, "g")
        assert jd.e_set == base.e_set and jd.j_seq == base.j_seq


# -- layer descriptors ---------------------------------------------------------

def test_layer_descriptor_complex_dilation_matches_published_data():
    wb = wb_for("heisenberg-complex-dilation")
    desc = wb.g_layer
    assert desc.e_set == (1, 2, 3, 4)
    assert desc.j_seq == (4, 3)
    assert desc.stable_set == (0, 1, 3, 4)
    assert 1 in desc.case_sets[0]
    assert 2 in desc.case_sets[3]
    assert desc.phi == (1,)
    assert desc.primes[1] == (0, 1) and desc.primes[2] == (1, 3)
    assert desc.primes[3] == (1, 3) and desc.primes[4] == (3, 4)


def test_layer_descriptor_coupled_pairs_matches_published_data():
    wb = wb_for("coupled-pairs")
    desc = wb.g_layer
    assert desc.e_set == (1, 3, 4, 6)
    assert desc.j_seq == (6, 4)
    assert desc.stable_set == (0, 2, 3, 5, 6)
    assert 1 in desc.case_sets[1]
    assert 2 in desc.case_sets[0]
    assert desc.phi == (1,)
    assert desc.primes[1] == (0, 2) and desc.primes[2] == (0, 2)
    assert desc.primes[3] == (2, 3) and desc.primes[4] == (3, 5)
    assert desc.primes[5] == (3, 5) and desc.primes[6] == (5, 6)


def test_layer_descriptor_all_real_basis_all_k0():
    wb = wb_for("five-dilations-repaired")
    desc = wb.n_layer     # jump pairs live on the real part of the flag
    for k in range(1, desc.d + 1):
        assert k in desc.case_sets[0]
    wb2 = wb_for("heisenberg-2param")
    assert set(wb2.g_layer.stable_set) == set(range(wb2.spec.dim + 1))
    for k in range(1, wb2.g_layer.d + 1):
        assert k in wb2.g_layer.case_sets[0]


def test_double_heisenberg_layer_hits_adjacent_pair_cases():
    wb = wb_for("double-heisenberg")
    desc = wb.n_layer
    assert desc.e_set == (3, 4, 5, 6)
    assert 1 in desc.case_sets[4]
    assert 2 in desc.case_sets[5]


# -- section vectors ------------------------------------------------------------

def _complex_dilation_sections(z, x, y, a):
    wb = wb_for("heisenberg-complex-dilation")
    basis = wb.canonical_basis
    spec = wb.spec
    vals = [Fraction(0)] * spec.dim
    vals[spec.index("Z")] = Fraction(z)
    vals[spec.index("X")] = Fraction(x)
    vals[spec.index("Y")] = Fraction(y)
    vals[spec.index("A")] = Fraction(a)
    l = Functional(basis, vals, exact=True)
    return wb, l, real_section_vectors(section_vectors(l, basis, ambient="g"))


def test_section_vectors_published_formulas_exact():
    # V_2 = Y - ((x+y)/2z) Z and U_2 = X - ((x-y)/2z) Z, up to the scale of U
    rng = random.Random(36)
    wb = wb_for("heisenberg-complex-dilation")
    spec = wb.spec
    iz, iy, ix = spec.index("Z"), spec.index("Y"), spec.index("X")
    for _ in range(5):
        z = Fraction(rng.randint(1, 9))
        x = Fraction(rng.randint(-9, 9))
        y = Fraction(rng.randint(-9, 9))
        a = Fraction(rng.randint(-9, 9))
        _, l, sv = _complex_dilation_sections(z, x, y, a)
        v2 = sv.v_list[1]
        assert v2[iy] == G(1)
        assert v2[iz] == G(-(x + y) / (2 * z))
        u2 = sv.u_list[1]
        scale = u2[ix]
        assert not scale.is_zero()
        u2n = [c / scale for c in u2]
        assert u2n[ix] == G(1)
        assert u2n[iz] == G(-(x - y) / (2 * z))
        # V_1 = Z; U_1 proportional to the dilation direction
        assert sv.v_list[0][iz] == G(1)
        ia = spec.index("A")
        assert not sv.u_list[0][ia].is_zero()


def test_section_vectors_z_choices_match_case_table():
    _, l, sv = _complex_dilation_sections(2, 3, 5, 7)
    wb = wb_for("heisenberg-complex-dilation")
    spec = wb.spec
    # Z_{i_1}(l) = Z (first case set), Z_{i_2}(l) = Im(X+iY) = Y (fourth case)
    assert sv.z_at[1][spec.index("Z")] == G(1)
    z2 = sv.z_at[2]
    assert z2[spec.index("Y")] == G(1) and z2[spec.index("X")].is_zero()


def test_section_vectors_coupled_pairs_published_combination():
    # Z_{i_1}(l) = (z1 - z2) Z1 + (z1 + z2) Z2 and Z_{j_2}(l) = z1 X1 + z2 X2
    wb = wb_for("coupled-pairs")
    basis = wb.canonical_basis
    spec = wb.spec
    rng = random.Random(37)
    for _ in range(5):
        vals = [Fraction(rng.randint(-9, 9)) for _ in range(spec.dim)]
        if vals[spec.index("Z1")] == 0 and vals[spec.index("Z2")] == 0:
            vals[spec.index("Z1")] = Fraction(1)
        l = Functional(basis, vals, exact=True)
        jd = jump_data(l, basis, "g")
        if jd.e_set != (1, 3, 4, 6):
            continue
        sv = real_section_vectors(section_vectors(l, basis, jd, "g"))
        z1, z2 = vals[spec.index("Z1")], vals[spec.index("Z2")]
        zi1 = sv.z_at[1]
        assert zi1[spec.index("Z1")] == G(z1 - z2)
        assert zi1[spec.index("Z2")] == G(z1 + z2)
        zj2 = sv.z_at[4]
        assert zj2[spec.index("X1")] == G(z1)
        assert zj2[spec.index("X2")] == G(z2)


def test_b_value_modulus_inverse_of_coordinate():
    # one-parameter dilation of the Heisenberg algebra: |b| = 1/|l(Z)|
    from solvlie.algebra import spec_from_dict
    from solvlie.adapted import build_adaptable_basis
    spec = spec_from_dict({
        "name": "heis-1param", "n_basis": ["Z", "Y", "X"], "h_basis": ["A"],
        "brackets": [
            {"x": "X", "y": "Y", "value": [{"c": "1", "b": "Z"}]},
            {"x": "A", "y": "X", "value": [{"c": "1/2", "b": "X"}]},
            {"x": "A", "y": "Y", "value": [{"c": "1/2", "b": "Y"}]},
            {"x": "A", "y": "Z", "value": [{"c": "1", "b": "Z"}]}]})
    basis = build_adaptable_basis(spec)
    for z in (Fraction(3), Fraction(-5, 2), Fraction(7, 3)):
        vals = [Fraction(0)] * 4
        vals[spec.index("Z")] = z
        l = Functional(basis, vals, exact=True)
        sv = section_vectors(l, basis, ambient="g")
        b = sv.b_at[1]
        assert b.abs2() == 1 / (z * z)


def test_rho_orthogonality_exact():
    # the dual pairs in adapted coordinates, paired through the orbit form
    # M rebuilt from the sparse rows kept on the jump data: for m < k,
    # x . M y = 0 for x in {V_k, U_k} and y in {V_m, U_m}, and
    # V_k . M U_k = l[V_k, U_k] is the recorded pairing
    rng = random.Random(38)
    checked = 0
    for entry_id in VALID_IDS:
        basis = wb_for(entry_id).canonical_basis
        for ambient in ("n", "g"):
            for _ in range(6):
                l = sample_functional(basis, rng, support=ambient)
                jd = jump_data(l, basis, ambient)
                try:
                    sv = section_vectors(l, basis, jd, ambient)
                except (LayerMismatchError, UnsupportedCaseError):
                    continue
                form = {(p, q): x for p, row in
                        enumerate(form_values(jd.form, jd.den))
                        for q, x in row.items()}

                def pair(x, y):
                    return sum((xp * form[p, q] * yq for p, xp in x.items()
                                for q, yq in y.items() if (p, q) in form), G(0))

                pairs = list(zip(sv.v_adapted, sv.u_adapted))
                for k, (vk, uk) in enumerate(pairs):
                    assert pair(vk, uk) == sv.pairings[k]
                    for vm, um in pairs[:k]:
                        for x in (vk, uk):
                            assert pair(x, vm).is_zero()
                            assert pair(x, um).is_zero()
                checked += 1
    assert checked >= 100


# -- generic layers --------------------------------------------------------------

def test_generic_layer_deterministic():
    wb = wb_for("heisenberg-2param")
    d1 = generic_layer(wb.canonical_basis, "g", seed=7)
    d2 = generic_layer(wb.canonical_basis, "g", seed=7)
    assert d1.as_dict() == d2.as_dict()


def test_generic_layer_keys_trials_draws_and_the_report_states_them(
        monkeypatch):
    # one constant sizes the sample: a generic_layer call keys each of its
    # TRIALS draws once, and the report's "trials" reads the same constant
    wb = wb_for("heisenberg-2param")
    assert wb.report()["trials"] == TRIALS
    sample_key, keyed = strata._sample_key, []

    def counted(*args):
        keyed.append(args)
        return sample_key(*args)
    monkeypatch.setattr("solvlie.strata._sample_key", counted)
    generic_layer(wb.canonical_basis, "g", seed=7)
    assert len(keyed) == TRIALS == 64


def test_generic_layer_propagates_zero_division(monkeypatch):
    # every division in the per-sample key is guarded, so one that raises is
    # a defect to surface, not a rejected sample
    def divide_by_zero(*args, **kwargs):
        raise ZeroDivisionError("unguarded division")
    wb = wb_for("heisenberg-2param")
    monkeypatch.setattr("solvlie.strata._sample_key", divide_by_zero)
    with pytest.raises(ZeroDivisionError):
        generic_layer(wb.canonical_basis, "n", seed=7)


# the (e, j) that the stubbed per-sample key gives a sample whose layer is
# not keyed
_UNKEYED = {"key": ((), ())}


def _stub_samples(monkeypatch, outcomes, described=None):
    """Make the per-sample key answer the samples in turn from outcomes: a
    descriptor, None for a sample outside the layer, or an exception to
    raise. A descriptor is a keyed sample: the kernel gives its key, and
    layer_descriptor on the sample gives the descriptor. None and an
    exception come from a layer that is not keyed (the kernel gives (e, j)
    and no phi), whose layer_descriptor raises; a pair ((e, j), outcome)
    is such a sample at that (e, j). The point of a sample is its outcome,
    so layer_descriptor describes the sample it is handed, in whatever
    order generic_layer describes them; each outcome it describes is
    appended to described."""
    answers = iter(outcomes)
    drawn = {}

    def kernel(basis, ambient, form, size, xs):
        desc = drawn[id(xs)] = next(answers)
        if isinstance(desc, LayerDescriptor):
            return desc.key()
        if isinstance(desc, tuple):
            return desc[0] + (None,)
        return _UNKEYED["key"] + (None,)

    def sample_point(basis, xs):
        return drawn[id(xs)]

    def descriptor(desc, basis, ambient):
        if described is not None:
            described.append(desc)
        if isinstance(desc, tuple):
            desc = desc[1]
        if desc is None:
            raise LayerMismatchError("stubbed mismatch")
        if isinstance(desc, Exception):
            raise desc
        return LayerDescriptor(ambient, desc.e_set, desc.i_seq, desc.j_seq,
                               desc.stable_set, {}, {}, desc.phi)
    monkeypatch.setattr("solvlie.strata._sample_key", kernel)
    monkeypatch.setattr("solvlie.strata._integer_point", sample_point)
    monkeypatch.setattr("solvlie.strata.layer_descriptor", descriptor)
    return answers


def _stub_jump_key(monkeypatch, key):
    """Make the per-sample key give every sample whose layer is not keyed
    the layer key (e, j)."""
    monkeypatch.setitem(_UNKEYED, "key", key)


WIDE = LayerDescriptor("n", (1, 2, 3, 4), (1, 2), (3, 4), (0,), {}, {}, ())
NARROW = LayerDescriptor("n", (1, 2), (1,), (2,), (0,), {}, {}, ())
UNSUPPORTED = UnsupportedCaseError("stubbed: pair 2 falls in no supported case")
# (e, j) keys at and before WIDE in the winner order (-card e, e, j)
NOT_BELOW_WIDE = [(WIDE.e_set, WIDE.j_seq), ((1, 2, 3, 4, 5, 6), (4, 5, 6))]


@pytest.mark.parametrize("wide, rejects", [(32, True), (33, False)])
def test_generic_layer_needs_more_than_half(monkeypatch, wide, rejects):
    # the wider layer wins on card(e), whatever its count
    basis = wb_for("heisenberg-2param").basis
    left = _stub_samples(monkeypatch, [NARROW] * (64 - wide) + [WIDE] * wide)
    if rejects:
        # the message states the rule it applies; no knob is offered
        with pytest.raises(InconsistentSamplingError,
                           match="32/64 samples; more than half of the "
                                 "samples must agree") as err:
            generic_layer(basis, "n", seed=7)
        assert "bound" not in str(err.value)
    else:
        desc = generic_layer(basis, "n", seed=7)
        assert desc.key() == WIDE.key()
        assert desc.consistency == 33 / 64
    assert next(left, None) is None      # no sample was skipped


def test_generic_layer_without_usable_samples(monkeypatch):
    basis = wb_for("heisenberg-2param").basis
    left = _stub_samples(monkeypatch, [None] * 64)
    with pytest.raises(InconsistentSamplingError,
                       match="no sample produced a usable layer"):
        generic_layer(basis, "n", seed=7)
    assert next(left, None) is None


def test_generic_layer_skips_unsupported_samples_below_the_winner(monkeypatch):
    # a sample that section_vectors has no case for, on a layer that sorts
    # after the winner, is skipped like a mismatch; the agreement stays
    # count/TRIALS
    basis = wb_for("heisenberg-2param").basis
    _stub_jump_key(monkeypatch, (NARROW.e_set, NARROW.j_seq))
    left = _stub_samples(monkeypatch, [UNSUPPORTED] * 3 + [WIDE] * 61)
    desc = generic_layer(basis, "n", seed=7)
    assert desc.key() == WIDE.key()
    assert desc.consistency == 61 / 64
    assert next(left, None) is None


@pytest.mark.parametrize("key", NOT_BELOW_WIDE)
def test_generic_layer_raises_unsupported_samples_not_below_the_winner(
        monkeypatch, key):
    # the generic layer may be the one the tool cannot describe
    basis = wb_for("heisenberg-2param").basis
    _stub_jump_key(monkeypatch, key)
    left = _stub_samples(monkeypatch, [WIDE] * 63 + [UNSUPPORTED])
    with pytest.raises(UnsupportedCaseError, match="stubbed"):
        generic_layer(basis, "n", seed=7)
    assert next(left, None) is None


def test_generic_layer_raises_unsupported_without_usable_samples(monkeypatch):
    basis = wb_for("heisenberg-2param").basis
    _stub_jump_key(monkeypatch, (NARROW.e_set, NARROW.j_seq))
    left = _stub_samples(monkeypatch, [None, UNSUPPORTED] * 32)
    with pytest.raises(UnsupportedCaseError, match="stubbed"):
        generic_layer(basis, "n", seed=7)
    assert next(left, None) is None


def test_generic_layer_passes_a_level_whose_samples_all_mismatch(monkeypatch):
    # the unkeyed level of WIDE sorts first, but none of its samples is in
    # the layer, so the next level wins; its keyed winner is described
    # once, on its first sample, and the samples after it never are
    basis = wb_for("heisenberg-2param").basis
    _stub_jump_key(monkeypatch, (WIDE.e_set, WIDE.j_seq))
    head = replace(NARROW)
    described = []
    _stub_samples(monkeypatch, [None] * 10 + [head] + [NARROW] * 53,
                  described)
    desc = generic_layer(basis, "n", seed=7)
    assert desc.key() == NARROW.key()
    assert desc.consistency == 54 / 64
    assert described[:10] == [None] * 10
    assert len(described) == 11 and described[10] is head


def test_generic_layer_raises_the_first_unsupported_sample_in_draw_order(
        monkeypatch):
    # both unsupported samples sort before the winner NARROW; the level of
    # the second sorts first and is described first, but the first sample
    # drawn is the one raised
    basis = wb_for("heisenberg-2param").basis
    first = UnsupportedCaseError("stubbed: the first drawn")
    second = UnsupportedCaseError("stubbed: the first described")
    described = []
    left = _stub_samples(monkeypatch,
                         [((WIDE.e_set, WIDE.j_seq), first),
                          (NOT_BELOW_WIDE[1], second)] + [NARROW] * 62,
                         described)
    with pytest.raises(UnsupportedCaseError, match="the first drawn"):
        generic_layer(basis, "n", seed=7)
    assert [d[1] for d in described] == [second, first]
    assert next(left, None) is None


def test_keyed_winner_is_described_once(monkeypatch):
    # a keyed level counts its samples under their keys; only the winner's
    # first sample gets a layer_descriptor, and no sample of a lower level
    basis = wb_for("heisenberg-2param").basis
    head = replace(WIDE)
    described = []
    _stub_samples(monkeypatch, [NARROW] * 20 + [head] + [WIDE] * 43,
                  described)
    desc = generic_layer(basis, "n", seed=7)
    assert desc.key() == WIDE.key() and desc.consistency == 44 / 64
    assert len(described) == 1 and described[0] is head


@pytest.mark.parametrize("command, code", [("analyze", 4)])
def test_unsupported_sample_above_the_winner_keeps_exit_code(
        monkeypatch, capsys, command, code):
    from solvlie import cli
    path = Path(cli.__file__).parent / "corpus" / "heisenberg-2param.json"
    _stub_jump_key(monkeypatch, NOT_BELOW_WIDE[1])
    _stub_samples(monkeypatch, [WIDE] * 63 + [UNSUPPORTED])
    assert cli.main([command, str(path)]) == code
    out = capsys.readouterr()
    assert f"UnsupportedCaseError: {UNSUPPORTED}" in out.out + out.err


def test_unsupported_sample_above_the_winner_keeps_the_decision(
        monkeypatch, capsys):
    # admissible prints the theorem's verdict and its exit code, and names
    # the layer failure behind the multiplicity note on stderr
    from solvlie import cli
    path = Path(cli.__file__).parent / "corpus" / "heisenberg-2param.json"
    _stub_jump_key(monkeypatch, NOT_BELOW_WIDE[1])
    _stub_samples(monkeypatch, [WIDE] * 63 + [UNSUPPORTED])
    assert cli.main(["admissible", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "NOT_ADMISSIBLE_CENTER_MEETS_H\n"
    assert out.err == f"UnsupportedCaseError: {UNSUPPORTED}\n"


def test_generic_layer_adds_dilation_pair_on_g():
    wb = wb_for("heisenberg-2param")
    assert wb.n_layer.e_set == (2, 3)
    assert wb.g_layer.e_set == (1, 2, 3, 5)
    assert wb.g_layer.phi == (1,)


def test_generic_layer_abelian_n_is_empty_everywhere():
    from solvlie.algebra import spec_from_dict
    from solvlie.adapted import build_adaptable_basis
    spec = spec_from_dict({
        "name": "flat", "n_basis": ["X"], "h_basis": ["A"],
        "brackets": [{"x": "A", "y": "X", "value": [{"c": "1", "b": "X"}]}]})
    basis = build_adaptable_basis(spec)
    desc = generic_layer(basis, "n", seed=1)
    assert desc.e_set == ()


# -- Pfaffian ---------------------------------------------------------------------

def test_pfaffian_2x2():
    z = G(5, -2)
    assert pfaffian([[G(0), z], [-z, G(0)]]) == z


def test_pfaffian_block_diag_product():
    z, w = G(3), G(Fraction(-7, 2))
    zero = G(0)
    m = [[zero, z, zero, zero],
         [-z, zero, zero, zero],
         [zero, zero, zero, w],
         [zero, zero, -w, zero]]
    assert pfaffian(m) == z * w
    assert pfaffian(m) ** 2 == det(m)


def test_pfaffian_heisenberg_density():
    wb = wb_for("heisenberg-2param")
    for z in (3, -4, 7):
        l = point(wb, Z=z)
        mat = sub_form(l, [2, 3])
        assert pfaffian(mat).abs2() == z * z


def test_pfaffian_squared_is_det_random():
    rng = random.Random(39)
    for _ in range(60):
        n = rng.choice(range(2, 21, 2))
        m = [[G(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = G(rng.randint(-4, 4), rng.randint(-4, 4))
                m[i][j] = v
                m[j][i] = -v
        assert pfaffian(m) ** 2 == det(m)


def test_pfaffian_rejects_bad_input():
    with pytest.raises(OddDimensionError):
        pfaffian([[G(0)]])
    with pytest.raises(NotSkewError):
        pfaffian([[G(0), G(1)], [G(1), G(0)]])
    with pytest.raises(NotSkewError):
        pfaffian([[G(0), G(1)], [G(0)]])
    with pytest.raises(NotSkewError):
        pfaffian([[G(1), G(1)], [G(-1), G(0)]])
