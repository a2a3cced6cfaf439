"""Keyed layers beyond the plain ones: the layer key off the jump reduction.

A layer is keyed (``strata._case_table``) when every pair k, in the case
order of ``section_vectors``, is in case 0, in case 1 with Z_{j_k} real, or
in case 3 with j_k = i_k + 1; a case-0 pair with Z_{j_k} complex also needs
sigma(j_k) outside e and below i_{k+1}. ``strata.layer_descriptor`` then
reads the key without section vectors. Its docstring proves, with p the
pivot of step k of ``_skew_reduce``, that the pairing l[V_k, U_k] is -|p|^2
in case 0, -|p|^4 in case 1 and -|p|^2/4 in case 3, and that the b
denominator (M U_k)_{i_k} is -|p|^2 in case 0 and p |p|^2 in case 1. These
identities, phi and the whole descriptor (against
``test_layer_memo.oracle_descriptor``) are checked here at degenerate
points with coordinates in {-1, 0, 1} and 30 % zeros, on both ambients:
on the valid corpus entries and on hand-made specs outside the corpus, two
for each newly keyed class. Plain layers (every pair in case 0 with
Z_{j_k} real) are covered by ``test_plain_layers.py``.

Cases 4 and 5 stay unkeyed: spiral-heisenberg and double-heisenberg share
their case table, but only the spiral pairings follow from the pivots.
"""

import random

import pytest

from conftest import VALID_IDS, wb_for
from section_oracle import layer_data as oracle_layer_data
from solvlie.algebra import spec_from_dict
from solvlie.functionals import Functional
from solvlie.strata import (_case_table, _orbit_form, _skew_reduce, jump_data,
                            layer_descriptor, section_vectors)
from solvlie.workbench import Workbench
from test_layer_memo import oracle_descriptor
from test_plain_layers import _degenerate_points, _outcome

# the valid entries whose generic layer is keyed, in n* and in g* alike
KEYED = set(VALID_IDS) - {"double-heisenberg", "spiral-heisenberg"}


def _classes(jd):
    """The class of each pair from the oracle case table: '0' (case 0,
    Z_{j_k} real), '0c' (case 0, Z_{j_k} complex), '1' (case 1, Z_{j_k}
    real), '3' (case 3, j_k = i_k + 1), or the effective case otherwise."""
    basis = jd.basis
    cases = oracle_layer_data(basis, jd, basis.ambient(jd.ambient))[2]
    out = []
    for k, (ik, jk) in enumerate(zip(jd.i_seq, jd.j_seq), start=1):
        real_j = basis.sigma[jk] == jk
        case = next((c for c in range(5) if k in cases[c]), None)
        if case == 0:
            out.append("0" if real_j else "0c")
        elif case == 1 and real_j:
            out.append("1")
        elif case == 3 and jk == ik + 1:
            out.append("3")
        else:
            out.append(f"case {case}")
    return out


def _check(wb, seed):
    """Checks one spec at degenerate points; returns the classes seen on
    keyed layers, per ambient."""
    seen = {"n": set(), "g": set()}
    for ambient, basis in (("n", wb.basis), ("g", wb.canonical_basis)):
        for f in _degenerate_points(basis, ambient, seed):
            got = _outcome(layer_descriptor, f, basis, ambient)
            assert got == _outcome(oracle_descriptor, f, basis, ambient), \
                (ambient, f.values)
            jd = jump_data(f, basis, ambient)
            classes = _classes(jd)
            if not _case_table(jd)[4]:
                # an unkeyed layer has a pair outside the keyed classes, or
                # a complex Z_{j_k} whose conjugate is not dead in time
                assert set(classes) - {"0", "1", "3"}, f.values
                continue
            assert set(classes) <= {"0", "0c", "1", "3"}, f.values
            seen[ambient].update(classes)
            _, form, _ = _orbit_form(f, basis, basis.ambient(ambient))
            pivots = _skew_reduce([list(row) for row in form], None)[3]
            sv = section_vectors(f, basis, jd, ambient)
            for cls, piv, pairing, ik, uk in zip(classes, pivots, sv.pairings,
                                                  jd.i_seq, sv.u_adapted):
                mod2 = piv.abs2()
                assert pairing == {"0": -mod2, "0c": -mod2, "1": -mod2 * mod2,
                                   "3": -mod2 / 4}[cls], (cls, f.values)
                # the b denominator (M U_k)_{i_k} = l[Z_{i_k}, U_k]
                denom = sum((form[ik - 1][q] * x for q, x in uk.items()), 0)
                if cls in ("0", "0c"):
                    assert denom == -mod2, f.values
                elif cls == "1":
                    assert denom == piv * mod2, f.values
            assert got["phi"] == sorted(sv.b_at), f.values
    return seen


def _rotation(x, y, a, b):
    """Brackets [A, x] = a x - b y and [A, y] = b x + a y: the weight a + ib
    on x + iy."""
    return [{"x": "A", "y": x, "value": [{"c": str(a), "b": x},
                                         {"c": str(-b), "b": y}]},
            {"x": "A", "y": y, "value": [{"c": str(b), "b": x},
                                         {"c": str(a), "b": y}]}]


def _complex_pair(x, y):
    return [{"label": f"{x}+", "value": [{"c": "1", "b": x}, {"c": "1 i", "b": y}]},
            {"label": f"{x}-", "value": [{"c": "1", "b": x}, {"c": "-1 i", "b": y}]}]


def _real(x):
    return [{"label": f"{x}r", "value": [{"c": "1", "b": x}]}]


def _coupled_pairs(a, b, c):
    """coupled-pairs with the X and Z planes turned by a + ib and Y of
    weight c (so Z by a + c + ib): case 0 with Z_{j_k} complex on n*, and
    case 1 on g*."""
    return {
        "name": f"coupled-pairs-{a}-{b}-{c}",
        "n_basis": ["Z1", "Z2", "Y", "X1", "X2"], "h_basis": ["A"],
        "brackets": [
            {"x": "X1", "y": "Y", "value": [{"c": "1", "b": "Z1"}]},
            {"x": "X2", "y": "Y", "value": [{"c": "1", "b": "Z2"}]},
            {"x": "A", "y": "Y", "value": [{"c": str(c), "b": "Y"}]},
        ] + _rotation("X1", "X2", a, b) + _rotation("Z1", "Z2", a + c, b),
        "adaptable_hint": (_complex_pair("Z1", "Z2") + _real("Y")
                           + _complex_pair("X1", "X2"))}


def _complex_dilation(a, b):
    """heisenberg-complex-dilation with the weight a + ib on X + iY (so 2a
    on Z): case 3."""
    return {
        "name": f"heisenberg-complex-dilation-{a}-{b}",
        "n_basis": ["Z", "Y", "X"], "h_basis": ["A"],
        "brackets": [
            {"x": "X", "y": "Y", "value": [{"c": "1", "b": "Z"}]},
            {"x": "A", "y": "Z", "value": [{"c": str(2 * a), "b": "Z"}]},
        ] + _rotation("X", "Y", a, b),
        "adaptable_hint": _real("Z") + _complex_pair("X", "Y")}


def _spiral_plane(a, b, d):
    """A Heisenberg algebra, X and Z of weight d, beside a plane U turned by
    a + ib: case 1 on g*."""
    brackets = [{"x": "X", "y": "Y", "value": [{"c": "1", "b": "Z"}]}]
    if d:
        brackets += [{"x": "A", "y": v, "value": [{"c": str(d), "b": v}]}
                     for v in ("Z", "X")]
    return {
        "name": f"spiral-plane-heisenberg-{a}-{b}-{d}",
        "n_basis": ["U1", "U2", "Z", "Y", "X"], "h_basis": ["A"],
        "brackets": brackets + _rotation("U1", "U2", a, b),
        "adaptable_hint": (_complex_pair("U1", "U2") + _real("Z") + _real("Y")
                           + _real("X"))}


# (spec, classes its keyed n* and g* layers must show)
HAND_MADE = [
    (_coupled_pairs(2, 3, 0), {"0c"}, {"0c", "1"}),
    (_coupled_pairs(1, -2, 1), {"0c"}, {"0c", "1"}),
    (_complex_dilation(1, 2), {"3"}, {"0", "3"}),
    (_complex_dilation(3, -1), {"3"}, {"0", "3"}),
    (_spiral_plane(1, 1, 0), {"0"}, {"0", "1"}),
    (_spiral_plane(2, -3, 1), {"0"}, {"0", "1"}),
]


def test_keyed_classes_on_corpus_degenerate_points():
    seen = {"n": set(), "g": set()}
    for seed, entry_id in enumerate(VALID_IDS):
        for ambient, classes in _check(wb_for(entry_id), seed).items():
            seen[ambient] |= classes
    assert seen["n"] >= {"0", "0c", "3"}
    assert seen["g"] >= {"0", "0c", "1", "3"}


@pytest.mark.parametrize("doc, want_n, want_g", HAND_MADE,
                         ids=[doc["name"] for doc, _, _ in HAND_MADE])
def test_keyed_classes_on_hand_made_specs(doc, want_n, want_g):
    wb = Workbench(spec_from_dict(doc))
    seen = _check(wb, seed=3)
    assert seen["n"] >= want_n and seen["g"] >= want_g, seen
    # the generic layers are keyed too
    for ambient, basis, desc in (("n", wb.basis, wb.n_layer),
                                 ("g", wb.canonical_basis, wb.g_layer)):
        table = basis.layer_tables[(ambient, desc.i_seq, desc.j_seq)]
        assert table[4], ambient


def test_keyed_flag_of_corpus_generic_layers():
    for entry_id in VALID_IDS:
        wb = wb_for(entry_id)
        for ambient, basis, desc in (("n", wb.basis, wb.n_layer),
                                     ("g", wb.canonical_basis, wb.g_layer)):
            table = basis.layer_tables[(ambient, desc.i_seq, desc.j_seq)]
            assert table[4] is (entry_id in KEYED), (entry_id, ambient)


def _pairings_and_pivots(f, basis):
    """l[V_k, U_k] and the pivots at f, on the n* layer (3, 4), (5, 6)."""
    jd = jump_data(f, basis, "n")
    assert (jd.i_seq, jd.j_seq) == ((3, 4), (5, 6)), f.values
    _, form, _ = _orbit_form(f, basis, basis.n)
    pivots = _skew_reduce([list(row) for row in form], None)[3]
    return section_vectors(f, basis, jd, "n").pairings, pivots


def test_cases_four_and_five_are_not_keyed_on_the_case_table_alone(monkeypatch):
    # spiral-heisenberg and double-heisenberg: the same n* jump pairs and
    # the same case sets, {4: (1,), 5: (2,)}. The spiral pairings are
    # -|p|^2/4 in the pivots p; the double-heisenberg ones are not functions
    # of the pivots, so a rule on the case table alone cannot key them.
    spiral = wb_for("spiral-heisenberg").basis
    double = wb_for("double-heisenberg").basis
    for entry_id, basis in (("spiral-heisenberg", spiral),
                            ("double-heisenberg", double)):
        desc = wb_for(entry_id).n_layer
        assert not basis.layer_tables[("n", desc.i_seq, desc.j_seq)][4]
        assert (desc.i_seq, desc.j_seq) == ((3, 4), (5, 6))
        assert {c: v for c, v in desc.case_sets.items() if v} == \
            {4: (1,), 5: (2,)}
    rng = random.Random(5)
    for _ in range(8):
        vals = [rng.choice((-2, -1, 1, 2)) for _ in range(spiral.n)]
        f = Functional(spiral, vals + [0] * (spiral.dim - spiral.n), exact=True)
        pairings, pivots = _pairings_and_pivots(f, spiral)
        assert pairings == [-p.abs2() / 4 for p in pivots], vals
    # double-heisenberg at l(Z1, Z2) = (3, 2) and (-2, -3): the pivots agree,
    # and the pairings, -l(Z1)^2 and -l(Z2)^2, do not
    (pairings_a, pivots_a), (pairings_b, pivots_b) = (
        _pairings_and_pivots(Functional(double, [z1, z2, 1, 0, 1, 0],
                                        exact=True), double)
        for z1, z2 in ((3, 2), (-2, -3)))
    assert pivots_a == pivots_b
    assert pairings_a == [-9, -4] and pairings_b == [-4, -9]

    # both layers still reach section_vectors from layer_descriptor
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return section_vectors(*args, **kwargs)
    monkeypatch.setattr("solvlie.strata.section_vectors", counting)
    for basis in (spiral, double):
        f = Functional(basis, [3, 2, 1, 0, 1, 0] + [0] * (basis.dim - 6),
                       exact=True)
        layer_descriptor(f, basis, "n")
        assert calls and calls[-1] is f
    assert len(calls) == 2
