"""phi from the fraction-free replay against the division replay.

``strata._reduction_phi`` reads phi on a keyed layer off the h-steps of the
jump reduction. ``phi_oracle.reduction_phi`` is the same routine as it was
when it replayed those steps in GaussianRational quotients. Both must give
the same phi, at exact and at float points, on:

- every point that ``generic_layer(basis, "g", seed)`` draws on the
  canonical bases of the valid corpus entries, at seeds 42, 7 and 123, where
  the key that ``_sample_key`` reads must carry the same phi;
- the g* samples of the specs ``perfbench/specgen.py`` generates for seeds
  1-10;
- exact points with Gaussian-integer pivots, some with rational
  coordinates, on the three corpus entries whose bases pair complex
  vectors through h;
- float points moved by ``exp_h_coadjoint`` onto keyed g* layers, by flows
  small and large, so that the scales of the replayed vectors range far
  from 1;
- hand-made h-steps on three-dilations-repaired, exact and float, whose
  replayed y_6 makes the sum of one h pair cancel over three coordinates,
  so that each scale factor of the update decides a zero test.

No sampled or moved point reaches an h pair whose sum cancels (phi drops a
pair only where the weight vanishes), so the hand-made steps are the
family that checks the zero outcome.
"""

import itertools
from fractions import Fraction

import pytest

import phi_oracle
from conftest import VALID_IDS, case_table, wb_for
from gen_specs import GAUSSIAN, generic_draws, non_real, specgen, split
from solvlie.algebra import spec_from_dict
from solvlie.functionals import Functional, _integer_point, exp_h_coadjoint
from solvlie.gaussian import GaussianRational
from solvlie.linalg import FLOAT_TOL
from solvlie.strata import (_form_table, _reduction_phi, _sample_key,
                            jump_data)
from solvlie.workbench import Workbench


def _phi(f, basis):
    """(keyed, h_pairs, phi) at f on g*, after checking that the replay
    and the oracle agree; phi is read on every layer with h pairs, keyed
    or not, since the replay does not depend on the case table."""
    jd = jump_data(f, basis, "g")
    table = case_table(jd)
    args = (jd.j_seq, jd.steps, table.h_pairs, f.tol)
    got = _reduction_phi(basis, *args)
    assert got == phi_oracle.reduction_phi(basis, "g", *args), f.values
    return table.keyed, table.h_pairs, got


def _tally(seen, h_pairs, phi):
    seen["in"] += len(phi)
    seen["out"] += len(h_pairs) - len(phi)


def _sample_layers():
    """The canonical bases of the valid corpus entries."""
    return [wb_for(entry_id).canonical_basis for entry_id in VALID_IDS]


def test_phi_on_generic_layer_draws():
    seen = {"in": 0, "out": 0}
    for basis in _sample_layers():
        layer = (basis, "g", _form_table(basis), basis.ambient("g"))
        for seed in (42, 7, 123):
            for xs in generic_draws(basis, seed):
                keyed, h_pairs, phi = _phi(_integer_point(basis, xs), basis)
                key = _sample_key(*layer, xs)
                assert key[2] == (phi if keyed else None), xs
                _tally(seen, h_pairs, phi)
    assert seen["in"]


@pytest.mark.parametrize("seed", range(1, 11))
def test_phi_on_generated_specs(seed):
    seen = {"in": 0, "out": 0}
    for doc, _ in specgen.generate(seed):
        basis = Workbench(spec_from_dict(doc)).canonical_basis
        for xs in generic_draws(basis, seed):
            _, h_pairs, phi = _phi(_integer_point(basis, xs), basis)
            _tally(seen, h_pairs, phi)
    assert seen["in"]


@pytest.mark.parametrize("entry_id", GAUSSIAN)
def test_phi_at_gaussian_integer_pivots(entry_id):
    basis = wb_for(entry_id).canonical_basis
    seen = {"in": 0, "out": 0}
    gaussian = 0
    scales = (Fraction(1), Fraction(-1, 2), Fraction(3, 7))
    for vals in itertools.product((-1, 0, 1), repeat=basis.dim):
        if not any(vals):
            continue
        # a rational scale brings the point over a denominator
        f = Functional(basis, [v * scales[sum(vals) % 3] for v in vals],
                       exact=True)
        jd = jump_data(f, basis, "g")
        if not any(non_real(p) for (p, _), _ in jd.steps):
            continue
        gaussian += 1
        _, h_pairs, phi = _phi(f, basis)
        _tally(seen, h_pairs, phi)
    assert gaussian
    assert seen["in"]


def _flows(basis):
    """h elements, as vectors over g, from small moves to ones that scale
    the eigen coordinates by about e^{+-12}."""
    nd, hd = basis.n, basis.dim - basis.n
    for t in (Fraction(1, 3), Fraction(-3, 2), 6, -6, 12, -12):
        for k in range(hd):
            yield [0] * nd + [t if m == k else -t / 2 for m in range(hd)]


def test_phi_at_float_points():
    seen = {"in": 0, "out": 0}
    keyed_points = 0
    for basis in _sample_layers():
        if basis.dim == basis.n:
            continue
        points = [_integer_point(basis, xs)
                  for xs in itertools.islice(generic_draws(basis, 42), 6)]
        for f in points:
            for a in _flows(basis):
                moved = exp_h_coadjoint(basis, a, f, mode="float")
                keyed, h_pairs, phi = _phi(moved, basis)
                keyed_points += keyed
                _tally(seen, h_pairs, phi)
    assert keyed_points
    assert seen["in"]


def _cancelling_steps(c_a, c_c, k):
    """Steps on three-dilations-repaired (n = 3; h at 4, 5, 6): step 1 (j =
    4) reduces y_5 and y_6, step 2 (j = 5) reduces y_6, step 3 (j = 6)
    reduces nothing. y_6 = Z_6 - c_c Z_5 + (c_c c_a - c_b) Z_4, and c_b is
    chosen so that the sum of the h pair (2, 6) vanishes:
    C_6 - c_c C_5 + (c_c c_a - c_b) C_4 = 0 with C_p the diagonal
    coefficient of [Z_2, Z_p]. Each (num, den) carries the factor k."""
    basis = wb_for("three-dilations-repaired").canonical_basis
    coef = {p: basis.h_structure[(1, p - 1)][1] for p in (4, 5, 6)}
    c_b = (coef[6] - c_c * coef[5] + c_c * c_a * coef[4]) / coef[4]
    steps = (((1, 1), ((5,) + split(c_a, k), (6,) + split(c_b, k))),
             ((1, 1), ((6,) + split(c_c, k),)),
             ((1, 1), ()))
    return basis, (4, 5, 6), steps


H_PAIRS = ((2, 6), (3, 6))
G = GaussianRational


@pytest.mark.parametrize("c_a, c_c, k", [
    (Fraction(2, 3), Fraction(5, 7), 1),
    (Fraction(2, 3), Fraction(5, 7), 11),
    (G(Fraction(1, 2), 1), G(-1, Fraction(3, 5)), G(1, 1)),
    (G(3, -2), G(Fraction(-4, 9), Fraction(1, 3)), G(0, 2)),
])
def test_phi_where_the_replayed_sum_cancels(c_a, c_c, k):
    basis, j_seq, steps = _cancelling_steps(c_a, c_c, k)
    args = (j_seq, steps, H_PAIRS, None)
    assert _reduction_phi(basis, *args) == (3,)
    assert phi_oracle.reduction_phi(basis, "g", *args) == (3,)


def _floated(steps, scale):
    return tuple((piv, tuple((g, complex(num) * scale, complex(den) * scale)
                             for g, num, den in red))
                 for piv, red in steps)


@pytest.mark.parametrize("scale", [1.0, 1e5, 1e-5])
def test_phi_where_the_replayed_sum_cancels_at_a_float_point(scale):
    # the scales of the replayed vectors grow as scale^3: near 1e18 or
    # 1e-12 here, so the zero test must undo them
    for c_a, c_c in ((Fraction(2, 3), Fraction(5, 7)),
                     (G(Fraction(1, 2), 1), G(-1, Fraction(3, 5)))):
        basis, j_seq, steps = _cancelling_steps(c_a, c_c, 1)
        args = (j_seq, _floated(steps, scale), H_PAIRS, FLOAT_TOL)
        assert _reduction_phi(basis, *args) == (3,)
        assert phi_oracle.reduction_phi(basis, "g", *args) == (3,)


def test_phi_reads_the_h_steps_alone():
    # a step with j_k <= n moves no h coordinate, so phi does not replay
    # it: with the coefficients of those steps replaced by 0 / 0, which
    # would wipe every vector they reduce, phi is unchanged
    blanked = 0
    for basis in _sample_layers():
        for xs in itertools.islice(generic_draws(basis, 42), 8):
            jd = jump_data(_integer_point(basis, xs), basis, "g")
            h_pairs = case_table(jd).h_pairs
            n_steps = [(jp, red) for jp, (_, red) in zip(jd.j_seq, jd.steps)
                       if jp <= basis.n]
            steps = tuple((piv, tuple((g, 0, 0) for g, _, _ in red))
                          if jp <= basis.n else (piv, red)
                          for jp, (piv, red) in zip(jd.j_seq, jd.steps))
            want = _reduction_phi(basis, jd.j_seq, jd.steps, h_pairs, None)
            assert _reduction_phi(basis, jd.j_seq, steps, h_pairs,
                                  None) == want, xs
            reduced = {g for _, red in n_steps for g, _, _ in red}
            blanked += any(jk in reduced for ik, jk in h_pairs if ik in want)
    assert blanked
