"""The sparse orbit-form kernel against the dense one it replaced.

``strata.jump_data`` fills the orbit form into sparse rows from integer
linear forms in a point's real coordinates (``strata._form_table``), as
Gaussian integers over one denominator at an exact point, and
``strata._skew_reduce`` reduces them fraction-free over the stored entries
only (``strata._skew_reduce_float`` at a float point, with division). The
dense kernel is kept verbatim as ``jump_oracle._orbit_form`` and
``jump_oracle._skew_reduce``. At exact points the two must agree exactly:
the unreduced form entry by entry, and each column of it read through
``JumpData.image`` against the oracle's columns, i_seq, j_seq, the
reductions and the pivots, each value recovered from the fraction-free
steps; the rows kept on the jump data, over its den, must still be the
unreduced form. The points are the 64 samples
``generic_layer`` draws at seed 42 on every valid corpus entry in both
ambients, the specs ``perfbench/specgen.py`` generates for seeds 1-10,
degenerate points with coordinates in {-1, 0, 1}, the dense-center family
at m = 10, and rational points with non-unit denominators: section points
scaled and rebuilt through ``Functional.from_adapted``, and points drawn
directly. At float points (integer
valued, and moved by the dilation flow) the keys must be equal and the
values within 1e-12 relative.
"""

import random
from fractions import Fraction

import pytest

from conftest import VALID_IDS, exact_reduction, form_values, wb_for
from gen_specs import degenerate_points, dense_center_spec, specgen
from jump_oracle import _orbit_form as dense_orbit_form
from jump_oracle import _skew_reduce as dense_skew_reduce
from solvlie.algebra import spec_from_dict
from solvlie.functionals import Functional, exp_h_coadjoint, sample_functional
from solvlie.sections import sample_lambda_nu
from solvlie.strata import _skew_reduce, _skew_reduce_float, jump_data
from solvlie.workbench import Workbench

REL = 1e-12


def _dense(rows, zero):
    n = len(rows)
    return [[rows[p].get(q, zero) for q in range(n)] for p in range(n)]


def _columns(jd):
    """Column q of the form kept on jd, as the nonzero (p, M[p][q]) in the
    order ``JumpData.image`` gives them for the unit vector at q."""
    return [list(jd.image({q: 1}).items()) for q in range(len(jd.form))]


def _assert_exact(f, basis, ambient):
    n_amb = basis.ambient(ambient)
    _, form, want_columns = dense_orbit_form(f, basis, n_amb)
    jd = jump_data(f, basis, ambient)
    # the reduction ran on a copy: the kept form is the unreduced one
    assert _dense(form_values(jd.form, jd.den), f.zero) == form, f.values
    assert _columns(jd) == want_columns, f.values
    i_seq, j_seq, steps = _skew_reduce(list(map(dict.copy, jd.form)))
    want = dense_skew_reduce(form, None)
    assert [i_seq, j_seq, *exact_reduction(steps, jd.den)] == list(want), \
        f.values
    assert [list(jd.i_seq), list(jd.j_seq),
            exact_reduction(jd.steps, jd.den)[0]] == list(want[:3]), f.values


def _close(a, b):
    return abs(a - b) <= REL * max(abs(a), abs(b), 1.0)


def _assert_float(f, basis, ambient):
    n_amb = basis.ambient(ambient)
    _, form, want_columns = dense_orbit_form(f, basis, n_amb)
    jd = jump_data(f, basis, ambient)
    assert jd.den == 1
    columns = _columns(jd)
    assert len(columns) == len(want_columns)
    for col, want_col in zip(columns, want_columns):
        assert [p for p, _ in col] == [p for p, _ in want_col], f.values
        assert all(_close(x, y) for (_, x), (_, y) in zip(col, want_col))
    i_seq, j_seq, record = _skew_reduce_float(list(map(dict.copy, jd.form)),
                                              f.tol)
    steps = [[(g, a / p) for g, a, p in red] for _, red in record]
    pivots = [p for (p, _), _ in record]
    w_i, w_j, w_steps, w_pivots = dense_skew_reduce(form, f.tol)
    assert (i_seq, j_seq) == (w_i, w_j), f.values
    assert [[g for g, _ in s] for s in steps] == \
        [[g for g, _ in s] for s in w_steps], f.values
    assert all(_close(c, w) for s, ws in zip(steps, w_steps)
               for (_, c), (_, w) in zip(s, ws)), f.values
    assert all(_close(p, w) for p, w in zip(pivots, w_pivots)), f.values


def _layers(wb):
    return (("n", wb.basis), ("g", wb.canonical_basis))


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_sparse_kernel_matches_dense_on_corpus_samples(entry_id):
    wb = wb_for(entry_id)
    for ambient, basis in _layers(wb):
        rng = random.Random(42)
        for _ in range(64):
            f = sample_functional(basis, rng, support=ambient)
            _assert_exact(f, basis, ambient)
            _assert_float(f.to_float(), basis, ambient)
        for f in degenerate_points(basis, ambient, 90):
            _assert_exact(f, basis, ambient)


@pytest.mark.parametrize("seed", range(1, 11))
def test_sparse_kernel_matches_dense_on_generated_specs(seed):
    for k, (doc, _) in enumerate(specgen.generate(seed)):
        wb = Workbench(spec_from_dict(doc))
        basis = wb.basis
        rng = random.Random(seed)
        for _ in range(16):
            _assert_exact(sample_functional(basis, rng, support="n"),
                          basis, "n")
        for f in degenerate_points(basis, "n", 100 * seed + k):
            _assert_exact(f, basis, "n")
        for ambient in ("n", "g"):
            _assert_exact(sample_functional(basis, rng), basis, ambient)


def test_sparse_kernel_matches_dense_on_dense_center():
    wb = Workbench(dense_center_spec(10))
    for ambient, basis in _layers(wb):
        rng = random.Random(11)
        for _ in range(8):
            _assert_exact(sample_functional(basis, rng, support=ambient),
                          basis, ambient)
        for f in degenerate_points(basis, ambient, 12):
            _assert_exact(f, basis, ambient)


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_sparse_kernel_matches_dense_at_rational_points(entry_id):
    wb = wb_for(entry_id)
    rng = random.Random(300 + VALID_IDS.index(entry_id))
    points = []
    if entry_id != "coupled-pairs":
        # section points with their adapted values divided by 2..7, rebuilt
        # through from_adapted: the real coordinates get denominators
        basis = wb.canonical_basis
        for _ in range(4):
            f = sample_lambda_nu(wb.oracle_lambda_nu, rng)
            k = rng.randint(2, 7)
            points.append(Functional.from_adapted(
                basis, [z / k for z in f.zvalues()]))
        assert any(v.denominator != 1 for f in points for v in f.values)
    for ambient, basis in _layers(wb):
        drawn = basis.ambient(ambient)
        for _ in range(4):
            vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                    for _ in range(drawn)]
            points.append(Functional(basis, vals + [0] * (basis.dim - drawn),
                                     exact=True))
    assert any(v.denominator != 1 for f in points for v in f.values)
    for f in points:
        for ambient, basis in _layers(wb):
            g = Functional(basis, f.values, exact=True)
            _assert_exact(g, basis, ambient)


# every valid entry but double-heisenberg, which has no dilation to flow by
FLOWED = [i for i in VALID_IDS if i != "double-heisenberg"]


@pytest.mark.parametrize("entry_id", FLOWED)
def test_sparse_kernel_matches_dense_at_flowed_points(entry_id):
    wb = wb_for(entry_id)
    spec = wb.spec
    assert spec.h_dim
    rng = random.Random(500 + VALID_IDS.index(entry_id))
    for ambient, basis in _layers(wb):
        for _ in range(6):
            f = sample_functional(basis, rng, support=ambient)
            a = [0.0] * spec.dim
            for t in range(spec.n_dim, spec.dim):
                a[t] = rng.uniform(-1.5, 1.5)
            moved = exp_h_coadjoint(spec, a, f, mode="float")
            _assert_float(moved, basis, ambient)


def test_form_table_follows_a_new_h_part():
    # with_h_part copies the basis: the orbit form must come from the new
    # h vectors, not from a table built for the old ones
    wb = wb_for("heisenberg-2param")
    basis = wb.basis
    rng = random.Random(7)
    f = sample_functional(basis, rng)
    _assert_exact(f, basis, "g")
    assert "orbit_form" in basis.layer_tables
    hv = list(reversed(basis.hvecs))
    other = basis.with_h_part(hv)
    assert "orbit_form" not in other.layer_tables
    for _ in range(8):
        g = sample_functional(other, rng)
        _assert_exact(g, other, "g")
    canonical = wb.canonical_basis
    for _ in range(8):
        _assert_exact(sample_functional(canonical, rng), canonical, "g")
