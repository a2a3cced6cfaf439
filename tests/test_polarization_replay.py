"""h_d from ``JumpData.polarization`` against the dense replay.

``polarization_oracle.polarizing_rows`` replays the jump reduction on dense
unit vectors with one GaussianRational quotient per coefficient. The
production rows, written densely over the ambient's adapted vectors, and
the subspace they span must equal the oracle's, in both ambients, at:

- the Sigma-circ and Plancherel points the Workbench samples for the valid
  corpus entries, at seeds 42, 7 and 123 (none on coupled-pairs, whose
  section the Workbench cannot sample);
- the first points ``generic_layer`` draws on the specs that
  ``perfbench/specgen.py`` generates for seeds 1-10;
- points with rational coordinates (D != 1): the sampled points with their
  adapted values divided by 2..7, rebuilt through
  ``Functional.from_adapted``;
- the points with coordinates in {-1, 0, 1} whose reduction meets a
  Gaussian-integer pivot, on the three corpus entries whose bases pair
  complex vectors;
- hand-made steps in which a kept row is reduced against a pivot vector
  that an earlier step reduced, so that the scale of the pivot vector
  enters the update (no sampled point needs it: their pivot vectors reach
  their step with scale 1).
"""

import itertools
import random
from fractions import Fraction

import pytest

import polarization_oracle
from conftest import VALID_IDS, corpus_entry, wb_for
from gen_specs import GAUSSIAN, generic_draws, non_real, specgen, split
from solvlie.algebra import spec_from_dict
from solvlie.functionals import Functional, _integer_point
from solvlie.gaussian import GaussianRational as G, ZERO
from solvlie.sections import UnsupportedLayerError, _sample, sample_sigma_circ
from solvlie.strata import JumpData, jump_data
from solvlie.workbench import PLANCHEREL_SAMPLES, Workbench


def _dense(row, size):
    """A row of ``polarization()`` over the ambient's adapted vectors as a
    dense list, ZERO where no entry is held."""
    if not isinstance(row, dict):
        return list(row)
    out = [ZERO] * size
    for p, x in row.items():
        out[p] = x
    return out


def _check(f, basis):
    """The production h_d at f equals the oracle's, in both ambients;
    returns how many rows were compared."""
    compared = 0
    for ambient in ("n", "g"):
        jd = jump_data(f, basis, ambient)
        rows, sub = jd.polarization()
        want_rows, want_sub = polarization_oracle.polarizing_rows(jd)
        size = basis.ambient(ambient)
        assert [_dense(r, size) for r in rows] == want_rows, (ambient, f.values)
        assert sub == want_sub, (ambient, f.values)
        compared += len(rows)
    return compared


def _sampled(wb, seed):
    """The Sigma-circ point of ``Workbench.polarization`` and the points of
    ``Workbench.plancherel_samples``, as far as the layer supports them."""
    points = []
    try:
        points.append(sample_sigma_circ(wb.oracle_sigma_circ,
                                        random.Random(seed + 17)))
    except UnsupportedLayerError:
        pass
    rng, oracle = random.Random(seed + 5), wb.oracle_lambda_nu
    try:
        for _ in range(PLANCHEREL_SAMPLES):
            points.append(_sample(oracle, rng, oracle._member)[0])
    except UnsupportedLayerError:
        pass
    return points


# coupled-pairs raises UnsupportedLayerError for both samplers
SAMPLED = [entry_id for entry_id in VALID_IDS if entry_id != "coupled-pairs"]


def _rational(basis, points, rng):
    """The points with their adapted values divided by 2..7."""
    out = []
    for f in points:
        k = rng.randint(2, 7)
        out.append(Functional.from_adapted(basis, [z / k for z in f.zvalues()]))
    return out


@pytest.mark.parametrize("entry_id", SAMPLED)
def test_polarization_at_workbench_points(entry_id):
    spec = corpus_entry(entry_id).spec()
    rng = random.Random(700 + SAMPLED.index(entry_id))
    sampled = rational = 0
    for seed in (42, 7, 123):
        wb = Workbench(spec, seed=seed)
        basis = wb.canonical_basis
        points = _sampled(wb, seed)
        moved = _rational(basis, points, rng)
        for f in points + moved:
            _check(f, basis)
        sampled += len(points)
        rational += sum(v.denominator != 1 for f in moved for v in f.values)
    assert sampled
    assert rational


@pytest.mark.parametrize("seed", range(1, 11))
def test_polarization_at_generated_points(seed):
    compared = 0
    for doc, _ in specgen.generate(seed):
        basis = Workbench(spec_from_dict(doc)).canonical_basis
        for xs in itertools.islice(generic_draws(basis, seed), 6):
            compared += _check(_integer_point(basis, xs), basis)
    assert compared


@pytest.mark.parametrize("entry_id", GAUSSIAN)
def test_polarization_at_gaussian_integer_pivots(entry_id):
    basis = Workbench(corpus_entry(entry_id).spec()).canonical_basis
    gaussian = 0
    for vals in itertools.product((-1, 0, 1), repeat=basis.dim):
        f = Functional(basis, list(vals), exact=True)
        jd = jump_data(f, basis, "g")
        if not any(non_real(p) for (p, _), _ in jd.steps):
            continue
        gaussian += 1
        _check(f, basis)
    assert gaussian


def test_polarization_rows_carry_gaussian_entries():
    # the complex entries of the replay reach the rows: a dropped imaginary
    # part would show here, not only in the subspace
    basis = Workbench(corpus_entry("coupled-pairs").spec()).canonical_basis
    for vals in itertools.product((-1, 0, 1), repeat=basis.dim):
        f = Functional(basis, list(vals), exact=True)
        rows, _ = jump_data(f, basis, "g").polarization()
        size = basis.ambient("g")
        if any(non_real(x) for r in rows for x in _dense(r, size)):
            return
    pytest.fail("no row with a non-real entry")


@pytest.mark.parametrize("c_a, c_b, c_c, k", [
    (Fraction(2, 3), Fraction(-1, 4), Fraction(5, 7), 1),
    (Fraction(2, 3), Fraction(-1, 4), Fraction(5, 7), 11),
    (G(Fraction(1, 2), 1), G(3, -2), G(-1, Fraction(3, 5)), G(1, 1)),
])
def test_polarization_of_steps_with_a_reduced_pivot(c_a, c_b, c_c, k):
    # step 1 (j = 2) reduces y_3 and y_4; step 2 (j = 3) reduces y_4 by
    # the y_3 of step 1, so y_4 = Z_4 - c_a Z_2 - c_c (Z_3 - c_b Z_2) is
    # right only if the scale of y_3 enters the update; i_seq is not read
    basis = wb_for("heisenberg-2param").canonical_basis
    steps = (((1, 1), ((3,) + split(c_b, k), (4,) + split(c_a, k))),
             ((1, 1), ((4,) + split(c_c, k),)))
    origin = Functional(basis, [0] * basis.dim, exact=True)
    jd = JumpData((1, 1), (2, 3), "g", basis, steps=steps, point=origin)
    rows, sub = jd.polarization()
    want_rows, want_sub = polarization_oracle.polarizing_rows(jd)
    assert [_dense(r, basis.dim) for r in rows] == want_rows
    assert sub == want_sub
    assert want_rows[1][1] == -c_a + c_c * c_b
