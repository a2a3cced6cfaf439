"""The per-sample layer key against the fill-and-reduce oracle, draw by draw.

``strata._sample_key`` reads a sample's layer key (e, j, phi) from its
integer coordinates. ``sample_key_oracle.sample_key`` is the kernel as it
was before it read the generic path's pivot polynomials: it fills the
orbit form at the sample, reduces it and applies the key rule of
``layer_descriptor``. The two must give the same key at every draw of
``generic_layer`` on the valid corpus bases (both ambients, seeds 42, 7
and 123) and on the specs ``perfbench/specgen.py`` generates for seeds
1-10; at the {-1, 0, 1} points of ``gen_specs.degenerate_points``, which zero
pivots; on the layers whose orbit form has complex entries; at a draw
where a reduced coefficient of the reduction vanishes; and on the
dense-center family, where ``generic_layer`` must also match
``generic_layer_oracle``.

Every valid corpus layer stays on the generic path
(``strata._pivot_path``), the {-1, 0, 1} points reach draws off it, and
the dense-center layers pass the path's budget and fall back. The (e, j)
of the generic path is the (e, j) of the layer ``generic_layer`` picks
by its vote, on the valid corpus and on the specgen specs of seeds 1-5.
"""

import random

import pytest

import generic_layer_oracle
from conftest import VALID_IDS, wb_for
from gen_specs import degenerate_points, dense_center_spec, specgen
from sample_key_oracle import sample_key
from solvlie.algebra import spec_from_dict
from solvlie.functionals import _draw_integers
from solvlie.gaussian import GaussianRational
from solvlie.strata import (_fill, _form_table, _pivot_path, _sample_key,
                            _skew_reduce, _vanishes_at, generic_layer)
from solvlie.workbench import Workbench

SEEDS = (42, 7, 123)
COMPLEX_IDS = ("spiral-heisenberg", "coupled-pairs",
               "heisenberg-complex-dilation")


def _layers(wb):
    return (("n", wb.basis), ("g", wb.canonical_basis))


def _draws(basis, ambient, seed):
    """The integer coordinates of the samples generic_layer keys, in its
    order (the all-zero draws, which it skips, left out)."""
    rng = random.Random(seed)
    size = basis.ambient(ambient)
    draws = (_draw_integers(rng, 9, size) for _ in range(64))
    return [xs for xs in draws if any(xs)]


def _path(basis, ambient):
    """The generic path _sample_key reads, built on first use."""
    path = basis.layer_tables.get(("pivots", ambient))
    if path is None:
        path = _pivot_path(basis, ambient, _form_table(basis),
                           basis.ambient(ambient))
    return path


def _on_path(basis, ambient, xs):
    """Whether _sample_key reads the point off the generic path."""
    path = _path(basis, ambient)
    return bool(path) and not any(_vanishes_at(p, xs) for p in path.pivots)


def _check(basis, ambient, points):
    """Asserts that _sample_key equals the oracle at every point; returns
    the number of points on the generic path."""
    form = _form_table(basis)
    size = basis.ambient(ambient)
    for xs in points:
        assert _sample_key(basis, ambient, form, size, xs) == \
            sample_key(basis, ambient, form, size, xs), (ambient, xs)
    return sum(_on_path(basis, ambient, xs) for xs in points)


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_corpus_draws_match_the_oracle(entry_id):
    wb = wb_for(entry_id)
    for ambient, basis in _layers(wb):
        for seed in SEEDS:
            assert _check(basis, ambient, _draws(basis, ambient, seed))


@pytest.mark.parametrize("seed", range(1, 11))
def test_generated_draws_match_the_oracle(seed):
    for doc, _ in specgen.generate(seed):
        wb = Workbench(spec_from_dict(doc))
        for ambient, basis in _layers(wb):
            assert _check(basis, ambient, _draws(basis, ambient, 42))


def _degenerate(basis, ambient, seed):
    size = basis.ambient(ambient)
    points = ([int(v) for v in f.values[:size]]
              for f in degenerate_points(basis, ambient, seed))
    return [xs for xs in points if any(xs)]


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_degenerate_points_match_the_oracle(entry_id):
    wb = wb_for(entry_id)
    for ambient, basis in _layers(wb):
        for seed in (40, 41):
            _check(basis, ambient, _degenerate(basis, ambient, seed))


def test_degenerate_points_reach_draws_off_the_path():
    on = off = 0
    for entry_id in VALID_IDS:
        for ambient, basis in _layers(wb_for(entry_id)):
            points = _degenerate(basis, ambient, 40)
            on_path = _check(basis, ambient, points)
            on += on_path
            off += len(points) - on_path
    assert on and off


def _has_complex_entry(basis, ambient, xs):
    rows = _fill(_form_table(basis), basis.ambient(ambient), xs, True)
    return any(type(x) is GaussianRational for row in rows
               for x in row.values())


@pytest.mark.parametrize("entry_id", COMPLEX_IDS)
def test_complex_entry_layers_match_the_oracle(entry_id):
    wb = wb_for(entry_id)
    complex_layers = 0
    for ambient, basis in _layers(wb):
        draws = [xs for seed in SEEDS for xs in _draws(basis, ambient, seed)]
        if not any(_has_complex_entry(basis, ambient, xs) for xs in draws):
            continue
        complex_layers += 1
        _check(basis, ambient, draws + _degenerate(basis, ambient, 40))
    assert complex_layers


# filiform-dilations-repaired in g*: step 2 of the reduction pairs
# (i, j) = (2, 4) and reduces position 7 by the coefficient -x_1 (the
# coordinate on the second real basis vector), and 7 is the j of the h pair
# (3, 7) that decides whether 3 is in phi. At x_1 = 0 with the pivots
# nonzero that coefficient vanishes: the reduction at the point leaves y_7
# alone, where the reduction at an indeterminate point scales it.
VANISHING_COEFFICIENT = [-1, 0, -1, -1, -1, -1, -1, -1]
GENERIC = [-1, 1, -1, -1, -1, -1, -1, -1]


def test_vanishing_reduced_coefficient_keeps_the_key():
    basis = wb_for("filiform-dilations-repaired").canonical_basis
    form = _form_table(basis)
    steps = {}
    for name, xs in (("vanishing", VANISHING_COEFFICIENT),
                     ("generic", GENERIC)):
        i_seq, j_seq, steps[name] = _skew_reduce(_fill(form, 8, xs, True))
        assert (i_seq, j_seq) == ([1, 2, 3], [8, 4, 7])
        assert _check(basis, "g", [xs]) == 1
        key = _sample_key(basis, "g", form, 8, xs)
        assert key == ((1, 2, 3, 4, 7, 8), (8, 4, 7), (1, 3))
    # the second step reduces position 7 at the generic point only
    assert [g for g, _, _ in steps["generic"][1][1]] == [7]
    assert steps["vanishing"][1][1] == ()


def test_symbolic_key_is_the_sampled_winner():
    # the generic layer is the Zariski-open set where no pivot of the
    # reduction vanishes, so the path at an indeterminate point keys the
    # layer the samples vote for, in n* and in g*
    wbs = [wb_for(entry_id) for entry_id in VALID_IDS]
    wbs += [Workbench(spec_from_dict(doc)) for seed in range(1, 6)
            for doc, _ in specgen.generate(seed)]
    layers = 0
    for wb in wbs:
        for (ambient, basis), layer in zip(_layers(wb),
                                           (wb.n_layer, wb.g_layer)):
            path = _path(basis, ambient)
            assert path, (wb.spec.name, ambient)
            assert (path.e, path.j_seq) == (layer.e_set, layer.j_seq), \
                (wb.spec.name, ambient)
            layers += 1
    assert layers == 90


@pytest.mark.parametrize("m", (16, 24))
def test_dense_center_matches_the_oracles(m):
    wb = Workbench(dense_center_spec(m))
    basis = wb.basis
    got = generic_layer(basis, "n", seed=42)
    want = generic_layer_oracle.generic_layer(basis, "n", seed=42)
    assert got.as_dict() == want.as_dict()
    assert _path(basis, "n") is False
    assert _check(basis, "n", _draws(basis, "n", 42)[:16]) == 0
