"""The pivot-product Pfaffian against the first-row expansion in pfaffian_oracle.py.

``strata.pfaffian`` is the signed product of the pivots of the jump
reduction. It must equal the expansion, sign included, on seeded dense,
sparse and rank-deficient skew matrices over Q(i), on int and Fraction
input, on the orbit forms on e at Lambda_nu points of the corpus and of
generated specs (``conftest.sub_form``, from the dense oracle form), and on
a dense-center 2-step family where the expansion is exponential. Past the
sizes where the expansion is cheap, |Pf|^2 is checked against
``pfaffian_oracle.det``. ``JumpData.pfaffian``, read off the point's own
jump reduction on n, must equal the expansion on e(l), sign included, at
the same points and at sampled points of the entry without a Lambda_nu
sampler.
"""

import random
from fractions import Fraction

import pytest

import pfaffian_oracle
from conftest import SAMPLABLE_IDS, VALID_IDS, sub_form, wb_for
from gen_specs import dense_center_spec, specgen
from solvlie.algebra import spec_from_dict
from solvlie.functionals import sample_functional
from solvlie.gaussian import GaussianRational as G
from solvlie.sections import sample_lambda_nu
from solvlie.strata import jump_data, pfaffian
from solvlie.workbench import Workbench


def _entry(rng, density):
    if rng.random() >= density:
        return G(0)
    return G(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
             Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def _skew(n, fill):
    m = [[G(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = fill()
            m[i][j], m[j][i] = v, -v
    return m


def _low_rank(rng, n, r):
    """P S P^T with P n x r and S skew r x r: skew of rank <= r < n."""
    s = _skew(r, lambda: _entry(rng, 1.0))
    p = [[_entry(rng, 0.8) for _ in range(r)] for _ in range(n)]
    ps = [[sum((p[i][a] * s[a][b] for a in range(r)), G(0)) for b in range(r)]
          for i in range(n)]
    return [[sum((ps[i][b] * p[j][b] for b in range(r)), G(0)) for j in range(n)]
            for i in range(n)]


def _assert_agree(m):
    assert pfaffian(m) == pfaffian_oracle.pfaffian(m)


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_pivot_product_matches_expansion_on_seeded_matrices(n):
    rng = random.Random(800 + n)
    for density in (1.0, 0.5, 0.2):
        for _ in range(12):
            _assert_agree(_skew(n, lambda: _entry(rng, density)))
    for r in range(0, n, 2):
        m = _low_rank(rng, n, r)
        assert pfaffian(m) == 0
        _assert_agree(m)


def test_pivot_product_matches_expansion_on_int_and_fraction_input():
    rng = random.Random(811)
    for n in (2, 4, 6, 8):
        ints = [[0] * n for _ in range(n)]
        fracs = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a = rng.randint(-5, 5)
                ints[i][j], ints[j][i] = a, -a
                b = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                fracs[i][j], fracs[j][i] = b, -b
        _assert_agree(ints)
        _assert_agree(fracs)
    assert pfaffian([[0, 3], [-3, 0]]) == 3
    assert pfaffian([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]) == 0
    # row 0 pairs with column 2 and row 1 with column 3: the matching
    # (0 2)(1 3) is an odd permutation of (0 1)(2 3)
    m = [[0, 0, 2, 0], [0, 0, 0, 5], [-2, 0, 0, 0], [0, -5, 0, 0]]
    assert pfaffian(m) == -10
    _assert_agree(m)


def _lambda_nu_points(wb, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield sample_lambda_nu(wb.oracle_lambda_nu, rng)


def _lambda_nu_forms(wb, count, seed):
    e = list(wb.n_layer.e_set)
    for f in _lambda_nu_points(wb, count, seed):
        yield sub_form(f, e)


def _assert_jump_pfaffian(f, e):
    """Pf read off the jump reduction of f on n against the expansion on
    the dense form on e, which must be e(l)."""
    jd = jump_data(f, ambient="n")
    assert jd.e_set == tuple(e), f.values
    got = jd.pfaffian()
    assert got != 0
    assert got == pfaffian_oracle.pfaffian(sub_form(f, e)), f.values


@pytest.mark.parametrize("entry_id", SAMPLABLE_IDS)
def test_pivot_product_matches_expansion_on_corpus_orbit_forms(entry_id):
    for m in _lambda_nu_forms(wb_for(entry_id), 10, 820):
        assert pfaffian(m) != 0
        _assert_agree(m)


@pytest.mark.parametrize("seed", [1, 7, 13])
def test_pivot_product_matches_expansion_on_generated_orbit_forms(seed):
    for doc, _ in specgen.generate(seed):
        wb = Workbench(spec_from_dict(doc))
        for m in _lambda_nu_forms(wb, 3, seed):
            assert pfaffian(m) != 0
            _assert_agree(m)


def test_dense_center_pfaffian_matches_expansion():
    wb = Workbench(dense_center_spec(10))
    assert len(wb.n_layer.e_set) == 10
    for m in _lambda_nu_forms(wb, 3, 830):
        _assert_agree(m)


def test_dense_center_plancherel_samples_square_to_det():
    wb = Workbench(dense_center_spec(14))
    assert len(wb.n_layer.e_set) == 14
    samples = wb.plancherel_samples()["samples"]
    forms = list(_lambda_nu_forms(wb, len(samples), wb.seed + 5))
    for sample, m in zip(samples, forms):
        pf = pfaffian(m)
        assert pf ** 2 == pfaffian_oracle.det(m)
        assert str(pf.abs2()) == sample["pf_abs2"]


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_jump_pfaffian_matches_expansion_on_corpus_points(entry_id):
    wb = wb_for(entry_id)
    e = wb.n_layer.e_set
    if entry_id in SAMPLABLE_IDS:
        points = list(_lambda_nu_points(wb, 10, 840))
    else:
        # no Lambda_nu sampler here: sampled points of n* on the layer
        rng = random.Random(840)
        points = []
        while len(points) < 10:
            f = sample_functional(wb.basis, rng, support="n")
            if jump_data(f, ambient="n").e_set == e:
                points.append(f)
    for f in points:
        _assert_jump_pfaffian(f, e)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_jump_pfaffian_matches_expansion_on_generated_points(seed):
    for doc, _ in specgen.generate(seed):
        wb = Workbench(spec_from_dict(doc))
        for f in _lambda_nu_points(wb, 2, 850 + seed):
            _assert_jump_pfaffian(f, wb.n_layer.e_set)


def test_jump_pfaffian_matches_expansion_on_dense_center():
    # 945 terms of the expansion at |e| = 10, 135,135 at |e| = 14
    for m, count in ((10, 16), (14, 2)):
        wb = Workbench(dense_center_spec(m))
        assert len(wb.n_layer.e_set) == m
        for f in _lambda_nu_points(wb, count, 860 + m):
            _assert_jump_pfaffian(f, wb.n_layer.e_set)
