import random
from fractions import Fraction

import pytest

from conftest import VALID_IDS, corpus_entry, wb_for
from gen_specs import specgen
from jump_oracle import flag
from section_oracle import _self_conjugate_steps
from solvlie.adapted import HintInvalidError, build_adaptable_basis
from solvlie.algebra import spec_from_dict
from solvlie.gaussian import GaussianRational as G


def _basis(entry_id):
    spec = corpus_entry(entry_id).spec()
    return spec, build_adaptable_basis(spec, hint=spec.adaptable_hint)


def test_complex_dilation_hint_accepted_with_weights():
    spec, basis = _basis("heisenberg-complex-dilation")
    # weight of Z is 2, weight of X+iY is 1+i on the dilation generator
    assert basis.weights[0] == (G(2),)
    assert basis.weights[1] == (G(1, 1),)
    assert basis.weights[2] == (G(1, -1),)
    assert basis.alpha[1] == Fraction(1)
    assert basis.sigma[2] == 3 and basis.sigma[3] == 2 and basis.sigma[1] == 1


def test_double_heisenberg_hint_accepted():
    spec, basis = _basis("double-heisenberg")
    assert basis.n == 6 and not basis.hvecs
    # conj pairs sit adjacent
    assert basis.sigma[1:7] == (2, 1, 4, 3, 6, 5)


def test_auto_construction_heisenberg_2param_real_flag_order():
    spec = corpus_entry("heisenberg-2param").spec()
    basis = build_adaptable_basis(spec)
    assert basis.describe()[:3] == ["Z", "Y", "X"]
    half = G(Fraction(1, 2))
    assert [w[0] for w in basis.weights[:3]] == [G(1), half, half]


def test_hint_invalid_not_a_flag():
    spec = corpus_entry("heisenberg-complex-dilation").spec()
    # ordering (X+iY, X-iY, Z): the first span is not an ideal
    hint = [
        (G(0), G(0, 1), G(1)),   # X + iY written over (Z, Y, X) coordinates
        (G(0), G(0, -1), G(1)),
        (G(1), G(0), G(0)),      # Z last
    ]
    with pytest.raises(HintInvalidError) as err:
        build_adaptable_basis(spec, hint=hint)
    assert err.value.condition == 1


def test_hint_invalid_conjugate_not_adjacent():
    spec = corpus_entry("double-heisenberg").spec()

    def vec(**kw):
        out = [G(0)] * 6
        for lab, v in kw.items():
            out[spec.index(lab)] = v
        return tuple(out)

    hint = [
        vec(Z1=G(1), Z2=G(0, 1)),
        vec(Z1=G(1), Z2=G(0, -1)),
        vec(Y1=G(1), Y2=G(0, 1)),
        vec(X1=G(1), X2=G(0, 1)),   # conjugate of the Y-pair missing here
        vec(Y1=G(1), Y2=G(0, -1)),
        vec(X1=G(1), X2=G(0, -1)),
    ]
    with pytest.raises(HintInvalidError) as err:
        build_adaptable_basis(spec, hint=hint)
    assert err.value.condition == 2


def test_hint_invalid_complex_vector_on_stable_step():
    # span{Z, iY} is conjugation-stable, so the vector itself must be real
    spec = corpus_entry("heisenberg-2param").spec()
    hint = [
        (G(1), G(0), G(0), G(0), G(0)),
        (G(0), G(0, 1), G(0), G(0), G(0)),   # i*Y
        (G(0), G(0), G(1), G(0), G(0)),
    ]
    with pytest.raises(HintInvalidError) as err:
        build_adaptable_basis(spec, hint=hint)
    assert err.value.condition == 3


def test_flag_ideal_property_everywhere():
    rng = random.Random(11)
    for entry_id in ("heisenberg-complex-dilation", "spiral-heisenberg",
                     "free-two-step", "five-dilations-repaired"):
        spec, basis = _basis(entry_id)
        for k in range(1, basis.dim + 1):
            span = flag(basis, k)
            for _ in range(5):
                w = [G(rng.randint(-3, 3)) for _ in range(spec.dim)]
                for row in span.rows:
                    img = spec.bracket(w, list(row))
                    assert span.contains_vector(img)


def test_conjugation_pairing_involution_and_weights():
    for entry_id in ("spiral-heisenberg", "coupled-pairs", "free-two-step"):
        spec, basis = _basis(entry_id)
        for j in range(1, basis.dim + 1):
            s = basis.sigma[j]
            assert basis.sigma[s] == j
            wj = basis.weights[j - 1]
            ws = basis.weights[s - 1]
            assert tuple(w.conjugate() for w in wj) == ws


def test_construction_matches_hint_layer_for_spiral():
    # without the hint, the constructor must still produce a valid basis
    spec = corpus_entry("spiral-heisenberg").spec()
    basis = build_adaptable_basis(spec)
    assert basis.n == 6
    # weights on the dilation generator come in conjugate pairs
    vals = sorted(str(w[0]) for w in basis.weights[:6])
    assert vals == sorted(["1+1 i", "1-1 i", "1/2+1/2 i", "1/2-1/2 i",
                           "1/2+1/2 i", "1/2-1/2 i"])


def _rotation_heisenberg(dilation: bool):
    # [X, Y] = Z with A rotating the (X, Y) plane: ad(A) has the purely
    # imaginary weights -i, i on X + iY, X - iY; B (optional) dilates X, Y
    # by 1 and Z by 2
    brackets = [
        {"x": "X", "y": "Y", "value": [{"c": "1", "b": "Z"}]},
        {"x": "A", "y": "X", "value": [{"c": "1", "b": "Y"}]},
        {"x": "A", "y": "Y", "value": [{"c": "-1", "b": "X"}]},
    ]
    if dilation:
        brackets += [
            {"x": "B", "y": "X", "value": [{"c": "1", "b": "X"}]},
            {"x": "B", "y": "Y", "value": [{"c": "1", "b": "Y"}]},
            {"x": "B", "y": "Z", "value": [{"c": "2", "b": "Z"}]},
        ]
    return spec_from_dict({"name": "rotation-heisenberg", "n_basis": ["Z", "Y", "X"],
                           "h_basis": ["A", "B"] if dilation else ["A"],
                           "brackets": brackets})


def _failing_hint(case):
    """(spec, hint, condition, message) of a hint failing at a known j > 1."""
    if case == 1:
        # (Z, X, Y): [A, X] has a Y-component, so span{Z, X} is no ideal
        spec = corpus_entry("heisenberg-complex-dilation").spec()
        hint = [(G(1), G(0), G(0)), (G(0), G(0), G(1)), (G(0), G(1), G(0))]
        return spec, hint, 1, "span of the first 2 vectors is not an ideal"
    if case == 2:
        # span{Z1 +- iZ2, Y1 + iY2} is not conj-stable, yet vector 4 is X1 + iX2
        spec = corpus_entry("double-heisenberg").spec()

        def vec(**kw):
            out = [G(0)] * 6
            for lab, v in kw.items():
                out[spec.index(lab)] = v
            return tuple(out)

        hint = [vec(Z1=G(1), Z2=G(0, 1)), vec(Z1=G(1), Z2=G(0, -1)),
                vec(Y1=G(1), Y2=G(0, 1)), vec(X1=G(1), X2=G(0, 1)),
                vec(Y1=G(1), Y2=G(0, -1)), vec(X1=G(1), X2=G(0, -1))]
        return spec, hint, 2, "vector 4 must be the conjugate of vector 3"
    if case == 3:
        # span{Z, iY} and span{Z} are conj-stable, so vector 2 must be real
        spec = corpus_entry("heisenberg-2param").spec()
        hint = [(G(1), G(0), G(0)), (G(0), G(0, 1), G(0)), (G(0), G(0), G(1))]
        return spec, hint, 3, "vector 2 must be real"
    spec = _rotation_heisenberg(dilation=case == "4b")
    hint = [(G(1), G(0), G(0)), (G(0), G(0, 1), G(1)), (G(0), G(0, -1), G(1))]
    if case == "4a":
        return spec, hint, 4, "weight of vector 2 is purely imaginary"
    return spec, hint, 4, "weight of vector 2 is not of the form lambda*(1+i*alpha)"


@pytest.mark.parametrize("case", [1, 2, 3, "4a", "4b"])
def test_hint_failure_reports_condition_and_step(case):
    spec, hint, condition, message = _failing_hint(case)
    with pytest.raises(HintInvalidError) as err:
        build_adaptable_basis(spec, hint=hint)
    assert err.value.condition == condition
    assert str(err.value) == f"adapted-basis condition {condition} fails: {message}"


def _generated_specs(seeds):
    return [spec_from_dict(doc) for seed in seeds
            for doc, _ in specgen.generate(seed)]


def test_self_conjugate_steps_are_the_verified_positions():
    # the positions kept from verification are those the oracle reads off
    # sigma: on the corpus bases (hinted, constructed and the Workbench's
    # h-part swap) and the constructed bases of specgen seeds 1-3
    bases = []
    for entry_id in VALID_IDS:
        spec = corpus_entry(entry_id).spec()
        bases.append(build_adaptable_basis(spec))
        if spec.adaptable_hint is not None:
            bases.append(_basis(entry_id)[1])
        bases.append(wb_for(entry_id).canonical_basis)
    bases += [build_adaptable_basis(spec) for spec in _generated_specs((1, 2, 3))]
    assert len(bases) == 10 + 6 + 10 + 21
    assert any(len(b.self_conjugate_steps()) <= b.dim for b in bases)
    for basis in bases:
        assert basis.self_conjugate_steps() == _self_conjugate_steps(basis)
