"""The fraction-free exact reduction against the division path and the
Pfaffian expansion.

``strata._skew_reduce`` reduces Gaussian-integer rows without dividing: it
keeps each coefficient and each pivot as an exact quotient, and divides
its entries back to the Pfaffian minors once a pivot entry passes
``strata._LIMIT``. These tests pin:

- ``pfaffian`` on matrices with non-unit denominators and complex entries
  against ``pfaffian_oracle.pfaffian``, and the scaling
  Pf(D M) = D^(n/2) Pf(M) that the common denominator relies on;
- the 0 x 0 Pfaffian (1) and the odd dimensions (OddDimensionError);
- at degenerate points (coordinates in {-1, 0, 1}) on the corpus and on
  the specs of ``perfbench/specgen.py`` at seeds 1-3: the jump pairs of
  ``_sample_key`` and of exact ``jump_data`` against the dense division
  path ``jump_oracle._skew_reduce`` (and, on the corpus, against the flag
  recursion ``jump_oracle.jump_data``), with the exact reductions and
  pivots;
- all of it with the default threshold and with ``_LIMIT = 0``, which
  divides back to the minors after every step, and dense integer and
  Gaussian matrices large enough to pass the default threshold.
"""

import random
from fractions import Fraction

import pytest

from gen_specs import degenerate_points, specgen
import jump_oracle
import pfaffian_oracle
from conftest import VALID_IDS, exact_reduction, form_values, wb_for
from solvlie import strata
from solvlie.algebra import spec_from_dict
from solvlie.functionals import Functional
from solvlie.gaussian import GaussianRational
from solvlie.strata import (OddDimensionError, _form_table, _sample_key,
                            _skew_reduce, jump_data, pfaffian)
from solvlie.workbench import Workbench
from work_budget import Work

G = GaussianRational


@pytest.fixture(params=("default", "every-step"))
def limit(request, monkeypatch):
    """The threshold of the division back to the minors: the module's, or
    0, which divides after every step."""
    if request.param == "every-step":
        monkeypatch.setattr(strata, "_LIMIT", 0)
    return request.param


def _random_skew(rng, n, complex_entries, max_den, bound=9, zeros=0.3):
    m = [[G(0)] * n for _ in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            if rng.random() < zeros:
                continue
            re = Fraction(rng.randint(-bound, bound), rng.randint(1, max_den))
            im = (Fraction(rng.randint(-bound, bound), rng.randint(1, max_den))
                  if complex_entries else 0)
            m[p][q] = G(re, im)
            m[q][p] = -m[p][q]
    return m


@pytest.mark.parametrize("n", (2, 4, 6))
def test_pfaffian_with_denominators_and_complex_entries(n, limit):
    rng = random.Random(700 + n)
    for k in range(30):
        m = _random_skew(rng, n, complex_entries=k % 2 == 1, max_den=6)
        pf = pfaffian(m)
        assert pf == pfaffian_oracle.pfaffian(m), m
        d = rng.randint(2, 9)
        scaled = [[x * d for x in row] for row in m]
        assert pfaffian(scaled) == pf * d ** (n // 2), m


def test_pfaffian_of_the_empty_matrix_is_one():
    assert pfaffian([]) == G(1)


@pytest.mark.parametrize("n", (1, 3, 5))
def test_pfaffian_rejects_odd_dimensions(n):
    with pytest.raises(OddDimensionError):
        pfaffian([[G(0)] * n for _ in range(n)])


def _check_point(f, basis, ambient, with_recursion):
    n_amb = basis.ambient(ambient)
    _, form, _ = jump_oracle._orbit_form(f, basis, n_amb)
    want = jump_oracle._skew_reduce(form, None)
    e_j = (tuple(sorted(want[0] + want[1])), tuple(want[1]))
    key = _sample_key(basis, ambient, _form_table(basis), n_amb,
                      [int(v) for v in f.values])
    assert key[:2] == e_j, (ambient, f.values)
    jd = jump_data(f, basis, ambient)
    reductions, pivots = exact_reduction(jd.steps, jd.den)
    assert [list(jd.i_seq), list(jd.j_seq), reductions, pivots] == \
        list(want), (ambient, f.values)
    if with_recursion:
        slow = jump_oracle.jump_data(f, basis, ambient)
        assert (slow.i_seq, slow.j_seq) == (jd.i_seq, jd.j_seq), f.values


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_degenerate_points_on_the_corpus(entry_id, limit):
    wb = wb_for(entry_id)
    seed = 40 + VALID_IDS.index(entry_id)
    for ambient, basis in (("n", wb.basis), ("g", wb.canonical_basis)):
        for f in degenerate_points(basis, ambient, seed):
            _check_point(f, basis, ambient, with_recursion=True)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_degenerate_points_on_generated_specs(seed, limit):
    for k, (doc, _) in enumerate(specgen.generate(seed)):
        basis = Workbench(spec_from_dict(doc)).basis
        for ambient in ("n", "g"):
            for f in degenerate_points(basis, ambient, 10 * seed + k):
                _check_point(f, basis, ambient, with_recursion=False)


@pytest.mark.parametrize("complex_entries", (False, True))
def test_dense_forms_divide_back_to_the_minors(complex_entries):
    # dense 12 x 12 Gaussian-integer forms with entries up to 10^4 pass
    # the default threshold within a few steps; the division back to the
    # minors is counted through the one exact division the kernel uses
    rng = random.Random(31 + complex_entries)
    for _ in range(3):
        m = _random_skew(rng, 12, complex_entries, max_den=1,
                         bound=10 ** 4, zeros=0.0)
        rows = [{q: (x if complex_entries else int(x.re))
                 for q, x in enumerate(row) if x} for row in m]
        with Work() as work:
            work.calls(strata, "_divide")
            i_seq, j_seq, steps = _skew_reduce(rows)
        assert work["_divide"] > 0
        want = jump_oracle._skew_reduce([list(row) for row in m], None)
        assert [i_seq, j_seq, *exact_reduction(steps, 1)] == list(want)
        assert pfaffian(m) ** 2 == pfaffian_oracle.det(m)


@pytest.mark.parametrize("complex_entries", (False, True))
def test_every_step_division_keeps_the_bareiss_chain(complex_entries,
                                                     monkeypatch):
    # divided back after every step, the stored pivot of step k is the
    # minor P_k = +-Pf of the first k pairs, and it is the denominator of
    # the pivot of step k + 1: the entries are the minors themselves, and
    # the last stored pivot squares to the determinant
    monkeypatch.setattr(strata, "_LIMIT", 0)
    rng = random.Random(53 + complex_entries)
    for _ in range(3):
        m = _random_skew(rng, 10, complex_entries, max_den=1, bound=50,
                         zeros=0.0)
        rows = [{q: (x if complex_entries else int(x.re))
                 for q, x in enumerate(row) if x} for row in m]
        _, _, steps = _skew_reduce(rows)
        assert len(steps) == 5
        chain = [1] + [num for (num, _), _ in steps]
        assert [den for (_, den), _ in steps] == chain[:-1]
        assert G(1) * chain[-1] * chain[-1] == pfaffian_oracle.det(m)


def test_rows_over_a_denominator_keep_the_orbit_form():
    # heisenberg-2param has entries over 2 in its form table, and a point
    # with denominators scales them again: the kernel's rows are the
    # integers 6 M, and the jump data keeps those rows, unreduced, with 6
    wb = wb_for("heisenberg-2param")
    basis = wb.canonical_basis
    assert _form_table(basis).den == 2
    f = Functional(basis, [Fraction(k + 1, 3) for k in range(basis.dim)],
                   exact=True)
    jd = jump_data(f, basis, "g")
    assert jd.den == 6
    assert all(isinstance(x, int) for row in jd.form for x in row.values())
    _, form, _ = jump_oracle._orbit_form(f, basis, basis.dim)
    assert [[row.get(q, G(0)) for q in range(basis.dim)]
            for row in form_values(jd.form, jd.den)] == form
