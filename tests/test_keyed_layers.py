"""Keyed layers beyond the plain ones: the layer key off the jump reduction.

A layer is keyed (``strata._case_table``) when every pair k, in the case
order of ``section_vectors``, is in case 0, in case 1 with Z_{j_k} real, or
in case 3 with j_k = i_k + 1, or opens or closes a case-4/5 block (pair k
in case 4, then i_{k+1} = i_k + 1 and sigma(j_{k+1}) = j_k); a case-0 pair
with Z_{j_k} complex also needs sigma(j_k) outside e and below i_{k+1}.
``strata.layer_descriptor`` then reads the key without section vectors.
Its docstring proves, with p the pivot of step k of ``_skew_reduce``, that
the pairing l[V_k, U_k] is -|p|^2 in case 0, -|p|^4 in case 1 and -|p|^2/4
in case 3, that the b denominator (M U_k)_{i_k} is -|p|^2 in case 0 and
p |p|^2 in case 1, and that a block's pairings are -|P|^2 and
-|p_k p_{k+1}|^2 / (16 |P|^2), where 2 P is the sum of the entries
(i_k, j_k) and (i_k + 1, j_k) of the reduced form at step k and
|2 P| >= |p_{k+1}|. These identities, phi and the whole descriptor
(against ``section_oracle.layer_descriptor``) are checked here at
degenerate points with coordinates in {-1, 0, 1} and 30 % zeros, on both
ambients: on the valid corpus entries and on hand-made specs outside the
corpus, two for each newly keyed class, and at float points moved by the
dilation flow. Plain layers (every pair in case 0 with Z_{j_k} real) are
covered by ``test_plain_layers.py``.

The pivots and the reduced form are read off the dense kernel kept in
``jump_oracle``, which reduces exactly as the sparse one does. The closed
forms of the docstring's induction (z_i, z_j and the pairings from the
pivots of ``JumpData.steps``, and a block's pending combination and P')
are checked against ``section_vectors`` itself, on the valid corpus and
specgen seeds 1-5, at exact points and at points moved by the flow.

The pivots alone do not fix a block's pairings: spiral-heisenberg and
double-heisenberg share their case table and can share their pivots, and
only the reduced form tells their pairings apart.
"""

import random

import pytest

from conftest import VALID_IDS, case_table, descriptor_outcome, wb_for
from gen_specs import (COMPLEX_HINT, degenerate_points, specgen,
                       double_heisenberg_with_v, pair_hint, real_hint)
from jump_oracle import _orbit_form, _skew_reduce
from section_oracle import layer_data as oracle_layer_data
from section_oracle import layer_descriptor as oracle_descriptor
from solvlie.algebra import spec_from_dict
from solvlie.functionals import Functional, exp_h_coadjoint
from solvlie.gaussian import I, GaussianRational
from solvlie.linalg import FLOAT_TOL
from solvlie.strata import (GR1, LayerMismatchError, jump_data,
                            layer_descriptor, section_vectors)
from solvlie.workbench import Workbench

# the valid entries whose generic layer is keyed, in n* and in g* alike
KEYED = set(VALID_IDS)


def _classes(jd):
    """The class of each pair from the oracle case table: '0' (case 0,
    Z_{j_k} real), '0c' (case 0, Z_{j_k} complex), '1' (case 1, Z_{j_k}
    real), '3' (case 3, j_k = i_k + 1), '4' and '5' (the two pairs of a
    case-4/5 block), or the effective case otherwise."""
    basis = jd.basis
    sigma = basis.sigma
    cases = oracle_layer_data(basis, jd, basis.ambient(jd.ambient))[2]
    out = []
    for k, (ik, jk) in enumerate(zip(jd.i_seq, jd.j_seq), start=1):
        if out and out[-1] == "4":
            out.append("5")
            continue
        real_j = sigma[jk] == jk
        case = next((c for c in range(5) if k in cases[c]), None)
        if case == 0:
            out.append("0" if real_j else "0c")
        elif case == 1 and real_j:
            out.append("1")
        elif case == 3 and jk == ik + 1:
            out.append("3")
        elif (case == 4 and k < jd.d and jd.i_seq[k] == ik + 1
              and sigma[jd.j_seq[k]] == jk):
            out.append("4")
        else:
            out.append(f"case {case}")
    return out


def _check_block(f, k, jd, reduced, pivots, pairings):
    """The pairings of the block opened by pair k (1-based), against 2 P
    read off the reduced form of the reduction."""
    ik, jk = jd.i_seq[k - 1], jd.j_seq[k - 1]
    two_p = reduced[ik - 1][jk - 1] + reduced[ik][jk - 1]
    p, p_next = pivots[k - 1], pivots[k]
    assert pairings[k - 1] == -two_p.abs2() / 4, f.values
    assert pairings[k - 1] * pairings[k] == (p * p_next).abs2() / 16, f.values
    # the bound that keeps 2 P away from 0: |2 P| >= ||p| - |q|| = |p'|
    assert two_p.abs2() >= p_next.abs2() > 0, f.values


def _check(wb, seed):
    """Checks one spec at degenerate points; returns the classes seen on
    keyed layers, per ambient."""
    seen = {"n": set(), "g": set()}
    for ambient, basis in (("n", wb.basis), ("g", wb.canonical_basis)):
        for f in degenerate_points(basis, ambient, seed):
            got = descriptor_outcome(layer_descriptor, f, basis, ambient)
            assert got == descriptor_outcome(oracle_descriptor, f, basis,
                                             ambient), (ambient, f.values)
            jd = jump_data(f, basis, ambient)
            classes = _classes(jd)
            table = case_table(jd)
            # the blocks of the table are the ones section_vectors opens
            assert table.blocks == tuple(
                k for k, cls in enumerate(classes, start=1) if cls == "4")
            if not table.keyed:
                # an unkeyed layer has a pair outside the keyed classes, or
                # a complex Z_{j_k} whose conjugate is not dead in time
                assert set(classes) - {"0", "1", "3", "4", "5"}, f.values
                continue
            assert set(classes) <= {"0", "0c", "1", "3", "4", "5"}, f.values
            seen[ambient].update(classes)
            _, form, _ = _orbit_form(f, basis, basis.ambient(ambient))
            reduced = [list(row) for row in form]
            pivots = _skew_reduce(reduced, None)[3]
            sv = section_vectors(f, basis, jd, ambient)
            for k in table.blocks:
                _check_block(f, k, jd, reduced, pivots, sv.pairings)
            for cls, piv, pairing, ik, uk in zip(classes, pivots, sv.pairings,
                                                  jd.i_seq, sv.u_adapted):
                if cls in ("4", "5"):
                    continue
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
        "adaptable_hint": (pair_hint("Z1", "Z2") + real_hint("Y")
                           + pair_hint("X1", "X2"))}


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
        "adaptable_hint": real_hint("Z") + pair_hint("X", "Y")}


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
        "adaptable_hint": (pair_hint("U1", "U2") + real_hint("Z") + real_hint("Y")
                           + real_hint("X"))}


def _complex_heisenberg():
    """[X, Y] = Z on X = X1 + iX2, Y = Y1 + iY2, Z = Z1 + iZ2."""
    return [{"x": "X1", "y": "Y1", "value": [{"c": "1", "b": "Z1"}]},
            {"x": "X2", "y": "Y2", "value": [{"c": "-1", "b": "Z1"}]},
            {"x": "X1", "y": "Y2", "value": [{"c": "1", "b": "Z2"}]},
            {"x": "X2", "y": "Y1", "value": [{"c": "1", "b": "Z2"}]}]


def _turned_heisenberg(a, b, c, d):
    """The complex Heisenberg algebra with X turned by a + ib and Y by
    c + id (so Z by a + c + i(b + d)); spiral-heisenberg has (1 + i)/2 on
    both: a block on n* and on g*, after a case-1 pair on g*."""
    return {
        "name": f"turned-heisenberg-{a}-{b}-{c}-{d}",
        "n_basis": ["Z1", "Z2", "Y1", "Y2", "X1", "X2"], "h_basis": ["A"],
        "brackets": (_complex_heisenberg() + _rotation("X1", "X2", a, b)
                     + _rotation("Y1", "Y2", c, d)
                     + _rotation("Z1", "Z2", a + c, b + d)),
        "adaptable_hint": COMPLEX_HINT}


def _block_then_dilation(a, b, d):
    """The complex Heisenberg algebra, X turned by a + ib and Y by its
    opposite (so Z is central in g), then U of weight d: on g* the block
    comes before the h pair (U, A), which carries phi."""
    return {
        "name": f"block-then-dilation-{a}-{b}-{d}",
        "n_basis": ["Z1", "Z2", "Y1", "Y2", "X1", "X2", "U"], "h_basis": ["A"],
        "brackets": (_complex_heisenberg() + _rotation("X1", "X2", a, b)
                     + _rotation("Y1", "Y2", -a, -b)
                     + [{"x": "A", "y": "U",
                         "value": [{"c": str(d), "b": "U"}]}]),
        "adaptable_hint": COMPLEX_HINT + real_hint("U")}


def _block_beside_heisenberg(real_first):
    """The complex Heisenberg algebra beside a real one (X3, Y3, Z3), with
    the real flag positions before or after each complex pair: the block
    next to a case-0 pair on n*."""
    real = [{"x": "X3", "y": "Y3", "value": [{"c": "1", "b": "Z3"}]},
            {"x": "A", "y": "Z3", "value": [{"c": "2", "b": "Z3"}]},
            {"x": "A", "y": "X3", "value": [{"c": "1", "b": "X3"}]},
            {"x": "A", "y": "Y3", "value": [{"c": "1", "b": "Y3"}]}]
    hint = []
    for level in ("Z", "Y", "X"):
        pair = pair_hint(f"{level}1", f"{level}2")
        real_part = real_hint(f"{level}3")
        hint += real_part + pair if real_first else pair + real_part
    first = "real" if real_first else "complex"
    return {
        "name": f"block-beside-heisenberg-{first}-first",
        "n_basis": ["Z1", "Z2", "Z3", "Y1", "Y2", "Y3", "X1", "X2", "X3"],
        "h_basis": ["A"],
        "brackets": (_complex_heisenberg() + real
                     + _rotation("X1", "X2", 1, 2)
                     + _rotation("Y1", "Y2", 1, -1)
                     + _rotation("Z1", "Z2", 2, 1)),
        "adaptable_hint": hint}


# (spec, classes its keyed n* and g* layers must show)
HAND_MADE = [
    (_coupled_pairs(2, 3, 0), {"0c"}, {"0c", "1"}),
    (_coupled_pairs(1, -2, 1), {"0c"}, {"0c", "1"}),
    (_complex_dilation(1, 2), {"3"}, {"0", "3"}),
    (_complex_dilation(3, -1), {"3"}, {"0", "3"}),
    (_spiral_plane(1, 1, 0), {"0"}, {"0", "1"}),
    (_spiral_plane(2, -3, 1), {"0"}, {"0", "1"}),
    (_turned_heisenberg(1, 2, 3, -1), {"4", "5"}, {"1", "4", "5"}),
    (_turned_heisenberg(2, 0, -1, 3), {"4", "5"}, {"1", "4", "5"}),
    (_block_then_dilation(1, 2, 1), {"4", "5"}, {"0", "4", "5"}),
    (_block_then_dilation(-3, 1, 2), {"4", "5"}, {"0", "4", "5"}),
    (_block_beside_heisenberg(True), {"0", "4", "5"}, {"0", "4", "5"}),
    (_block_beside_heisenberg(False), {"0", "4", "5"}, {"0", "1", "4", "5"}),
]


def test_keyed_classes_on_corpus_degenerate_points():
    seen = {"n": set(), "g": set()}
    for seed, entry_id in enumerate(VALID_IDS):
        for ambient, classes in _check(wb_for(entry_id), seed).items():
            seen[ambient] |= classes
    assert seen["n"] >= {"0", "0c", "3", "4", "5"}
    assert seen["g"] >= {"0", "0c", "1", "3", "4", "5"}


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
        assert table.keyed, ambient


def test_phi_after_a_block():
    # the generic g* layer of block-then-dilation: the block (3, 5), (4, 6),
    # then the h pair (7, 8) of U and A, whose b value is nonzero
    wb = Workbench(spec_from_dict(_block_then_dilation(1, 2, 1)))
    desc = wb.g_layer
    assert (desc.i_seq, desc.j_seq, desc.phi) == ((3, 4, 7), (5, 6, 8), (7,))
    table = wb.canonical_basis.layer_tables[("g", desc.i_seq, desc.j_seq)]
    assert table.keyed and table.blocks == (1,)
    assert table.h_pairs == ((7, 8),)


def test_keyed_flag_of_corpus_generic_layers():
    for entry_id in VALID_IDS:
        wb = wb_for(entry_id)
        for ambient, basis, desc in (("n", wb.basis, wb.n_layer),
                                     ("g", wb.canonical_basis, wb.g_layer)):
            table = basis.layer_tables[(ambient, desc.i_seq, desc.j_seq)]
            assert table.keyed is (entry_id in KEYED), (entry_id, ambient)


def _counting_section_vectors(monkeypatch):
    """Patches strata.section_vectors to record the point of each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return section_vectors(*args, **kwargs)
    monkeypatch.setattr("solvlie.strata.section_vectors", counting)
    return calls


def _block_data(f, basis):
    """l[V_k, U_k], the pivots and 2 P at f, on the n* layer (3, 4), (5, 6):
    2 P is the sum of the entries (3, 5) and (4, 5) of the reduced form."""
    jd = jump_data(f, basis, "n")
    assert (jd.i_seq, jd.j_seq) == ((3, 4), (5, 6)), f.values
    _, form, _ = _orbit_form(f, basis, basis.n)
    reduced = [list(row) for row in form]
    pivots = _skew_reduce(reduced, None)[3]
    return (section_vectors(f, basis, jd, "n").pairings, pivots,
            reduced[2][4] + reduced[3][4])


def test_cases_four_and_five_are_not_keyed_on_the_case_table_alone(monkeypatch):
    # spiral-heisenberg and double-heisenberg: the same n* jump pairs and
    # the same case sets, {4: (1,), 5: (2,)}. The spiral pairings are
    # -|p|^2/4 in the pivots p; the double-heisenberg ones are not functions
    # of the pivots, so the case table and the pivots alone cannot key
    # them. The reduced form can: the first pairing is -|P|^2.
    spiral = wb_for("spiral-heisenberg").basis
    double = wb_for("double-heisenberg").basis
    for entry_id, basis in (("spiral-heisenberg", spiral),
                            ("double-heisenberg", double)):
        desc = wb_for(entry_id).n_layer
        table = basis.layer_tables[("n", desc.i_seq, desc.j_seq)]
        assert table.keyed and table.blocks == (1,)
        assert (desc.i_seq, desc.j_seq) == ((3, 4), (5, 6))
        assert {c: v for c, v in desc.case_sets.items() if v} == \
            {4: (1,), 5: (2,)}
    rng = random.Random(5)
    for _ in range(8):
        vals = [rng.choice((-2, -1, 1, 2)) for _ in range(spiral.n)]
        f = Functional(spiral, vals + [0] * (spiral.dim - spiral.n), exact=True)
        pairings, pivots, two_p = _block_data(f, spiral)
        assert pairings == [-p.abs2() / 4 for p in pivots], vals
        assert pairings[0] == -two_p.abs2() / 4, vals
    # double-heisenberg at l(Z1, Z2) = (3, 2) and (-2, -3): the pivots agree,
    # and the pairings, -l(Z1)^2 and -l(Z2)^2, do not; 2 P = -2 l(Z1)
    (pairings_a, pivots_a, two_p_a), (pairings_b, pivots_b, two_p_b) = (
        _block_data(Functional(double, [z1, z2, 1, 0, 1, 0], exact=True),
                    double)
        for z1, z2 in ((3, 2), (-2, -3)))
    assert pivots_a == pivots_b
    assert pairings_a == [-9, -4] and pairings_b == [-4, -9]
    assert (two_p_a, two_p_b) == (-6, 4)

    # neither layer reaches section_vectors from layer_descriptor
    calls = _counting_section_vectors(monkeypatch)
    for basis in (spiral, double):
        f = Functional(basis, [3, 2, 1, 0, 1, 0] + [0] * (basis.dim - 6),
                       exact=True)
        desc = layer_descriptor(f, basis, "n")
        assert (desc.i_seq, desc.j_seq) == ((3, 4), (5, 6))
    assert calls == []


def test_no_block_where_two_p_vanishes():
    # double-heisenberg at l(Z1) = 0: 2 P = -2 l(Z1) = 0 forces the second
    # pivot to 0, so the pair (4, 6) never forms, and both paths agree
    basis = wb_for("double-heisenberg").basis
    f = Functional(basis, [0, 2, 1, 0, 1, 0], exact=True)
    jd = jump_data(f, basis, "n")
    assert (jd.i_seq, jd.j_seq) == ((3,), (5,))
    assert not case_table(jd).blocks
    assert descriptor_outcome(layer_descriptor, f, basis, "n") == \
        descriptor_outcome(oracle_descriptor, f, basis, "n")


def test_case_four_outside_a_block_stays_unkeyed(monkeypatch):
    # double-heisenberg with a real V, [V, Y2] = Z1: at l(Z1) = 1, l(Z2) = 0
    # the second pivot of the block vanishes, and Y1 - iY2 (position 4)
    # pairs with V instead: pair 1 is in case 4 with sigma(j_2) = 7 != j_1 = 5. The
    # layer is unkeyed, and section_vectors has no case for pair 2.
    doc = double_heisenberg_with_v()
    basis = Workbench(spec_from_dict(doc)).basis
    f = Functional(basis, [1, 0, 0, 0, 0, 0, 0], exact=True)
    jd = jump_data(f, basis, "n")
    assert (jd.i_seq, jd.j_seq) == ((3, 4), (5, 7))
    assert _classes(jd) == ["case 4", "case None"]
    table = case_table(jd)
    assert not table.keyed and not table.blocks
    want = descriptor_outcome(oracle_descriptor, f, basis, "n")
    assert want == "UnsupportedCaseError"
    calls = _counting_section_vectors(monkeypatch)
    assert descriptor_outcome(layer_descriptor, f, basis, "n") == want
    assert calls == [f]
    # its degenerate points agree with the oracle on both ambients (h is
    # 0 here)
    for ambient in ("n", "g"):
        for f in degenerate_points(basis, ambient, seed=4):
            assert descriptor_outcome(layer_descriptor, f, basis, ambient) == \
                descriptor_outcome(oracle_descriptor, f, basis, ambient), f.values
    # the unsupported layer ((3, 4, 5, 7), (5, 7)) sorts after the keyed
    # block layer ((3, 4, 5, 6), (5, 6)), which wins on seeds 0-9;
    # generic_layer describes only the samples at or before the winning
    # level, so its samples there (1-6 of 64) are never described and no
    # layer_descriptor call raises
    raised = []
    real_descriptor = layer_descriptor

    def counting(f, basis, ambient):
        try:
            return real_descriptor(f, basis, ambient)
        except Exception as exc:
            raised.append(exc)
            raise
    monkeypatch.setattr("solvlie.strata.layer_descriptor", counting)
    for seed in range(10):
        wb = Workbench(spec_from_dict(doc), seed=seed)
        layer = wb.n_layer
        assert (layer.e_set, layer.j_seq) == ((3, 4, 5, 6), (5, 6))
        table = wb.basis.layer_tables[("n", layer.i_seq, layer.j_seq)]
        assert table.keyed and table.blocks
    assert raised == []


def test_blocks_at_float_points_follow_section_vectors():
    # spiral-heisenberg points moved by the dilation flow are float points;
    # on their keyed block layers layer_descriptor accepts or rejects as
    # section_vectors does, and gives the oracle's descriptor
    wb = wb_for("spiral-heisenberg")
    spec = wb.spec
    seen = 0
    for ambient, basis in (("n", wb.basis), ("g", wb.canonical_basis)):
        for k, f in enumerate(degenerate_points(basis, ambient, seed=11)):
            a = [0] * spec.n_dim + [(k % 5 - 2) / 3]
            moved = exp_h_coadjoint(basis, a, f, mode="float")
            assert not moved.exact
            jd = jump_data(moved, basis, ambient)
            table = case_table(jd)
            if not (table.keyed and table.blocks):
                continue
            seen += 1
            got = descriptor_outcome(layer_descriptor, moved, basis, ambient)
            try:
                phi = sorted(section_vectors(moved, basis, jd, ambient).b_at)
            except ValueError as exc:
                assert got == type(exc).__name__, moved.values
            else:
                assert got["phi"] == phi, moved.values
            assert got == descriptor_outcome(oracle_descriptor, moved, basis,
                                             ambient)
    assert seen >= 8


# -- the section data of a keyed layer in closed form -----------------------------

def _re_im(x):
    return (x.re, x.im) if isinstance(x, GaussianRational) else (x.real, x.imag)


def _abs2(x):
    return x.abs2() if isinstance(x, GaussianRational) else abs(x) ** 2


def _combination(sigma, j, a, b, i):
    """a Re Z_j + b Im Z_j over the adapted positions, as {p - 1: x_p}:
    Re Z_j = (e_j + e_s) / 2 and Im Z_j = (e_j - e_s) / 2i, s = sigma(j);
    i is the point's imaginary unit."""
    s = sigma[j]
    if s == j:
        return {j - 1: a}
    return {j - 1: (a - i * b) / 2, s - 1: (a + i * b) / 2}


def _closed_forms(jd, classes):
    """The z_i, z_j and pairings of the keyed layer of jd in closed form
    (``layer_descriptor``'s docstring), from its pivots p (the k-th, num /
    den of ``jd.steps[k - 1][0]`` over ``jd.den``) and, for a block opened
    at k, the step-k coefficient c of j' = sigma(j_k), q = c p."""
    one, i_unit = (GR1, I) if jd.point.exact else (1 + 0j, 1j)
    z, pairings = {}, []

    def combination(j, a, b):
        return _combination(jd.basis.sigma, j, a, b, i_unit)

    for k, (cls, i, j) in enumerate(zip(classes, jd.i_seq, jd.j_seq), start=1):
        (num, den), red = jd.steps[k - 1]
        p = one * num / (den * jd.den)
        if cls in ("0", "0c"):
            z[i], big_p = combination(i, one, 0), p
        elif cls == "1":
            z[i], big_p = {i - 1: -p.conjugate() / 2, i: -p / 2}, -_abs2(p)
        elif cls == "3":
            z[i], big_p = combination(i, 0, one), p / (2 * i_unit)
        elif cls == "4":
            jp = jd.basis.sigma[j]
            c = next((one * n / d for g, n, d in red if g == jp), 0 * one)
            q = c * p
            z[i], big_p = combination(i, one, 0), (p + q.conjugate()) / 2
            # the pending combination of the block's second pair, and P'
            z[i + 1] = combination(i + 1, -_re_im(p * q)[1] / (2 * _abs2(big_p)),
                                   -one)
            block_p = i_unit * (_abs2(p) - _abs2(q)) / (4 * big_p)
        else:                                   # "5", the block's second pair
            big_p = block_p
        # z_j = a Re Z_j + b Im Z_j with P = -a - ib, and l[V_k, U_k] = -|P|^2
        re_p, im_p = _re_im(big_p)
        z[j] = combination(j, -re_p, -im_p)
        pairings.append(-_abs2(big_p))
    return z, pairings


def _agree(got, want, exact):
    if exact:
        return got == want
    return abs(got - want) <= FLOAT_TOL * max(1.0, abs(want))


def _check_closed_forms(f, basis, ambient, seen, name):
    """section_vectors at f against the closed forms, when f's layer is
    keyed; records the classes met under (name, ambient). Returns the
    number of points checked (0 or 1)."""
    jd = jump_data(f, basis, ambient)
    if not case_table(jd).keyed:
        return 0
    classes = _classes(jd)
    seen.setdefault((name, ambient), set()).update(classes)
    z, pairings = _closed_forms(jd, classes)
    if not f.exact and min(map(abs, pairings), default=1) <= FLOAT_TOL:
        # a pivot small enough that -|P|^2 falls under the float zero test,
        # which the key does not apply: the point is rejected (SMALL_PIVOT)
        with pytest.raises(LayerMismatchError):
            section_vectors(f, basis, jd, ambient)
        return 0
    sv = section_vectors(f, basis, jd, ambient)
    exact = f.exact
    zero = 0 if exact else 0j
    assert set(sv.z_adapted) == set(z), f.values
    for pos, want in z.items():
        got = sv.z_adapted[pos]
        for p in set(got) | set(want):
            assert _agree(got.get(p, zero), want.get(p, zero), exact), \
                (name, ambient, classes, pos, f.values)
    for got, want in zip(sv.pairings, pairings):
        assert _agree(got, want, exact), (name, ambient, classes, f.values)
    return 1


def _identity_specs():
    """(name, Workbench) of the valid corpus entries and the specgen specs
    of seeds 1-5."""
    for entry_id in VALID_IDS:
        yield entry_id, wb_for(entry_id)
    for seed in range(1, 6):
        for doc, _ in specgen.generate(seed):
            yield doc["name"], Workbench(spec_from_dict(doc))


def test_keyed_section_vectors_have_the_closed_forms():
    # the z_i, z_j and pairings section_vectors computes on a keyed layer
    # are those layer_descriptor's docstring derives from the pivots,
    # exactly at exact points and within FLOAT_TOL at points moved by the
    # dilation flow
    seen, exact_points, float_points = {}, 0, 0
    for name, wb in _identity_specs():
        h_dim = wb.spec.h_dim
        for ambient, basis in (("n", wb.basis), ("g", wb.canonical_basis)):
            points = [f for seed in (1, 2)
                      for f in degenerate_points(basis, ambient, seed)]
            for k, f in enumerate(points):
                exact_points += _check_closed_forms(f, basis, ambient, seen, name)
                a = [0] * wb.spec.n_dim + [(k % 5 - 2) / 3] * h_dim
                moved = exp_h_coadjoint(basis, a, f, mode="float")
                float_points += _check_closed_forms(moved, basis, ambient,
                                                    seen, name)
    assert exact_points >= 2000 and float_points >= 1800
    where = {cls: {key for key, classes in seen.items() if cls in classes}
             for cls in ("0", "1", "3", "4")}
    assert where["0"]
    assert where["1"] and {ambient for _, ambient in where["1"]} == {"g"}
    assert {name for name, _ in where["3"]} == {"heisenberg-complex-dilation"}
    assert {name for name, _ in where["4"]} == {"double-heisenberg",
                                                 "spiral-heisenberg"}


# The float zero tests of the two routes part at a small pivot: the keyed
# key tests the pivot p against FLOAT_TOL, section_vectors the pairing
# -|p|^2 (case 0). No fix is made yet, so both cases must still fail.
SMALL_PIVOT = ("at a float point a keyed layer rests on the pivot test of "
               "jump_data (|p| > FLOAT_TOL) while section_vectors tests the "
               "pairing (|pairing| > FLOAT_TOL), so layer_descriptor keys the "
               "point on the generic layer and SectionOracle.contains rejects "
               "it when the pivot is small")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=SMALL_PIVOT)
@pytest.mark.parametrize("entry_id, label", [("heisenberg-2param", "Z"),
                                             ("spiral-heisenberg", "Z1")])
def test_float_key_and_membership_agree_at_a_small_pivot(entry_id, label):
    wb = wb_for(entry_id)
    basis, spec = wb.canonical_basis, wb.spec
    vals = [0.0] * spec.dim
    vals[spec.index(label)] = 1e-5
    f = Functional(basis, vals, exact=False)
    on_layer = layer_descriptor(f, basis, "n").key() == wb.n_layer.key()
    assert on_layer == wb.oracle_lambda.contains(f)
