"""``JumpData.image``, the one product M y with the orbit form, against the
dense product of the oracle.

``strata.jump_data`` keeps the unreduced sparse rows of D M,
M = (l[Z_{p+1}, Z_{q+1}]), as ``JumpData.form`` (Gaussian integers, plain
ints for the real entries, over the denominator D = ``JumpData.den`` at an
exact point; M itself, D = 1, at a float point), and ``JumpData.image(y)``
reads M y off them row by row, with y taken over D. The oracle is the
dense M of
``jump_oracle._orbit_form`` with the plain product
(M y)_p = sum_q M[p][q] y_q over its nonzero entries. At exact points the
two must be equal. At float points moved by a dilation flow the product
must be ``==`` the one summed through columns read off the same rows (the
layout the rows replaced), sign of zero and key order included, and within
1e-12 relative of the oracle's, whose entries are rounded another way. The
vectors y are the unit vectors, sparse random vectors and the dual pairs
V_k, U_k of ``section_vectors``. After ``jump_data`` returns, ``jd.form``
over ``jd.den`` must still be the oracle's unreduced form. The points are
seeded samples and degenerate points on every valid corpus entry in both
ambients, flowed points on every entry with a dilation, and samples on the
specs of ``perfbench/specgen.py`` at seeds 1-5. At exact points with
D != 1 the product of int and Fraction vectors must stay exact.
"""

import random
from fractions import Fraction

import pytest

from conftest import VALID_IDS, form_values, wb_for
from gen_specs import degenerate_points, specgen
from jump_oracle import _orbit_form as dense_orbit_form
from solvlie.algebra import spec_from_dict
from solvlie.functionals import (Functional, exp_h_coadjoint,
                                 sample_functional)
from solvlie.gaussian import GaussianRational
from solvlie.strata import (LayerMismatchError, UnsupportedCaseError,
                            jump_data, section_vectors)
from solvlie.workbench import Workbench

REL = 1e-12


def _dense_image(form, y):
    """M y over the nonzero entries of the dense M, by q, then by p."""
    out = {}
    for q, yq in y.items():
        if yq:
            for p, row in enumerate(form):
                m = row[q]
                if m:
                    out[p] = out[p] + m * yq if p in out else m * yq
    return out


def _column_image(jd, y):
    """M y through the columns of M read off jd.form at a float point
    (where D = 1 and the rows are M), each column by increasing p, as the
    products were summed before the rows became the only copy of M."""
    columns = [[] for _ in jd.form]
    for p, row in enumerate(jd.form):
        for q, x in row.items():
            columns[q].append((p, x))
    out = {}
    for q, yq in y.items():
        if yq:
            for p, m in columns[q]:
                out[p] = out[p] + m * yq if p in out else m * yq
    return out


def _vectors(f, jd, basis, ambient, rng):
    """Unit vectors, sparse random vectors and, where the section vectors
    exist at f, the dual pairs V_k, U_k."""
    n_amb = len(jd.form)
    ys = [{q: 1} for q in range(n_amb)]
    for _ in range(4):
        y = {}
        for q in range(n_amb):
            if rng.random() < 0.5:
                continue
            if f.exact:
                y[q] = GaussianRational(Fraction(rng.randint(-9, 9),
                                                 rng.randint(1, 4)),
                                        rng.randint(-9, 9))
            else:
                y[q] = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        ys.append(y)
    try:
        sv = section_vectors(f, basis, jd, ambient)
    except (LayerMismatchError, UnsupportedCaseError):
        return ys
    return ys + sv.v_adapted + sv.u_adapted


def _close(a, b):
    return abs(a - b) <= REL * max(abs(a), abs(b), 1.0)


def _check(f, basis, ambient, rng):
    n_amb = basis.ambient(ambient)
    jd = jump_data(f, basis, ambient)
    _, form, _ = dense_orbit_form(f, basis, n_amb)
    for y in _vectors(f, jd, basis, ambient, rng):
        got = jd.image(y)
        if f.exact:
            assert got == _dense_image(form, y), f.values
            continue
        want = _column_image(jd, y)
        assert got == want, f.values
        assert list(map(repr, got.items())) == \
            list(map(repr, want.items())), f.values
        dense = _dense_image(form, y)
        assert sorted(got) == sorted(dense), f.values
        assert all(_close(got[p], dense[p]) for p in got), f.values
    # neither the reduction nor the products moved the kept form
    dense = [[row.get(q, f.zero) for q in range(n_amb)]
             for row in form_values(jd.form, jd.den, f.zero)]
    if f.exact:
        assert dense == form, f.values
    else:
        assert all(_close(a, b) for ra, rb in zip(dense, form)
                   for a, b in zip(ra, rb)), f.values


def _layers(wb):
    return (("n", wb.basis), ("g", wb.canonical_basis))


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_image_matches_dense_product_on_corpus(entry_id):
    wb = wb_for(entry_id)
    rng = random.Random(600 + VALID_IDS.index(entry_id))
    for ambient, basis in _layers(wb):
        for _ in range(8):
            _check(sample_functional(basis, rng, support=ambient), basis,
                   ambient, rng)
        for f in degenerate_points(basis, ambient, 60):
            _check(f, basis, ambient, rng)
    spec = wb.spec
    if not spec.h_dim:
        return
    for ambient, basis in _layers(wb):
        for _ in range(4):
            f = sample_functional(basis, rng, support=ambient)
            a = [0.0] * spec.dim
            for t in range(spec.n_dim, spec.dim):
                a[t] = rng.uniform(-1.5, 1.5)
            moved = exp_h_coadjoint(spec, a, f, mode="float")
            assert not moved.exact
            _check(moved, basis, ambient, rng)


@pytest.mark.parametrize("seed", range(1, 6))
def test_image_matches_dense_product_on_generated_specs(seed):
    rng = random.Random(700 + seed)
    for doc, _ in specgen.generate(seed):
        wb = Workbench(spec_from_dict(doc))
        basis = wb.basis
        for ambient in ("n", "g"):
            for _ in range(3):
                _check(sample_functional(basis, rng, support=ambient), basis,
                       ambient, rng)


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_image_stays_exact_over_a_denominator(entry_id):
    # y is taken over D once per call; int and Fraction coordinates must
    # not turn into floats on the way (int / int would), and the product
    # must be the dense oracle's at every exact point with D != 1
    wb = wb_for(entry_id)
    rng = random.Random(650 + VALID_IDS.index(entry_id))
    checked = 0
    for ambient, basis in _layers(wb):
        drawn = basis.ambient(ambient)
        points = [sample_functional(basis, rng, support=ambient)
                  for _ in range(3)]
        for _ in range(3):
            vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                    for _ in range(drawn)]
            points.append(Functional(basis, vals + [0] * (basis.dim - drawn),
                                     exact=True))
        for f in points:
            jd = jump_data(f, basis, ambient)
            if jd.den == 1:
                continue
            _, form, _ = dense_orbit_form(f, basis, drawn)
            ys = [{q: 1} for q in range(drawn)]
            for _ in range(3):
                ys.append({q: rng.randint(-9, 9) for q in range(drawn)})
                ys.append({q: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                           for q in range(drawn)})
            for y in ys:
                got = jd.image(y)
                assert not any(isinstance(x, (float, complex))
                               for x in got.values()), (f.values, y)
                assert got == _dense_image(form, y), (f.values, y)
                checked += 1
    assert checked
