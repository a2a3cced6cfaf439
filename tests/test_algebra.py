import random
from fractions import Fraction

import pytest

from conftest import corpus_entry, corpus_file_text
from solvlie.admissibility import center_data
from solvlie.algebra import (HypothesisViolation, LieAlgebraSpec,
                             SpecFormatError, parse_spec_text,
                             require_noncommutative, spec_from_dict, trace_ad,
                             validate_spec)
from solvlie.corpus import corpus_entries
from solvlie.gaussian import GaussianRational as G
from unipotent_oracle import ad_matrix


def _heisenberg_2param():
    return corpus_entry("heisenberg-2param").spec()


def test_validate_heisenberg_2param_passes():
    rep = validate_spec(_heisenberg_2param())
    assert rep.ok
    assert {c.name for c in rep.checks} == {
        "antisymmetry", "h_abelian", "jacobi", "n_nilpotent",
        "h_diagonalizable", "exponential_roots"}


def test_validate_three_dilations_verbatim_jacobi_witness():
    spec = corpus_entry("three-dilations-verbatim").spec()
    rep = validate_spec(spec)
    assert not rep.ok
    fail = [c for c in rep.checks if c.code == "JACOBI_FAIL"]
    assert len(fail) == 1
    assert set(fail[0].witness) == {"A1", "X", "Y"}


def test_validate_abelian_n_passes_then_noncommutative_rejects():
    spec = LieAlgebraSpec("flat", ["X", "Y"], ["A"], {
        ("A", "X"): {"X": Fraction(1)},
        ("A", "Y"): {"Y": Fraction(1)},
    })
    rep = validate_spec(spec)
    assert rep.ok  # abelian n is nilpotent
    with pytest.raises(HypothesisViolation) as err:
        require_noncommutative(spec)
    assert err.value.code == "N_COMMUTATIVE"


def test_validate_irrational_eigenvalues_rejected():
    # ad(A) = [[0,2],[1,0]] has eigenvalues +-sqrt(2)
    spec = LieAlgebraSpec("irr", ["X", "Y"], ["A"], {
        ("A", "X"): {"Y": Fraction(1)},
        ("A", "Y"): {"X": Fraction(2)},
    })
    rep = validate_spec(spec)
    assert "EIGEN_NOT_GAUSSIAN_RATIONAL" in rep.codes()


def test_validate_purely_imaginary_root_rejected():
    # rotation action: eigenvalues +-i
    spec = LieAlgebraSpec("rot", ["X", "Y"], ["A"], {
        ("A", "X"): {"Y": Fraction(1)},
        ("A", "Y"): {"X": Fraction(-1)},
    })
    rep = validate_spec(spec)
    assert "PURELY_IMAGINARY_ROOT" in rep.codes()


def test_validate_mixed_root_fails_factorization():
    # weight (1+i) on A1 but (1+2i) on A2: purely imaginary on a line in h
    spec = LieAlgebraSpec("mixed", ["U1", "U2"], ["A1", "A2"], {
        ("A1", "U1"): {"U1": Fraction(1), "U2": Fraction(-1)},
        ("A1", "U2"): {"U1": Fraction(1), "U2": Fraction(1)},
        ("A2", "U1"): {"U1": Fraction(1), "U2": Fraction(-2)},
        ("A2", "U2"): {"U1": Fraction(2), "U2": Fraction(1)},
    })
    rep = validate_spec(spec)
    assert "PURELY_IMAGINARY_ROOT" in rep.codes()


def test_validate_nonabelian_h_rejected():
    spec = LieAlgebraSpec("nonab", ["X", "Y", "Z"], ["A", "B"], {
        ("X", "Y"): {"Z": Fraction(1)},
        ("A", "B"): {"Z": Fraction(1)},
    })
    rep = validate_spec(spec)
    assert "H_NOT_ABELIAN" in rep.codes()


def test_validate_antisymmetry_conflict():
    spec = LieAlgebraSpec("anti", ["X", "Y", "Z"], [], {
        ("X", "Y"): {"Z": Fraction(1)},
        ("Y", "X"): {"Z": Fraction(1)},   # should be -Z
    })
    rep = validate_spec(spec)
    assert "ANTISYMMETRY_FAIL" in rep.codes()


def test_validate_non_nilpotent_rejected():
    spec = LieAlgebraSpec("solv2", ["X", "Y"], [], {
        ("X", "Y"): {"Y": Fraction(1)},
    })
    rep = validate_spec(spec)
    assert "NOT_NILPOTENT" in rep.codes()


# -- ad matrices -------------------------------------------------------------

def test_ad_matrix_dilation_diagonal():
    spec = _heisenberg_2param()
    mat = ad_matrix(spec, "A")
    dim = spec.dim
    expect = {(0, 0): Fraction(1), (1, 1): Fraction(1, 2), (2, 2): Fraction(1, 2)}
    for i in range(dim):
        for j in range(dim):
            assert mat[i][j] == expect.get((i, j), Fraction(0))
    assert trace_ad(spec, "A") == 2


def test_trace_ad_rejects_an_element_with_non_real_ad():
    spec = _heisenberg_2param()
    w = [G(0)] * spec.dim
    w[spec.index("A")] = G(0, 1)
    with pytest.raises(ValueError, match="ad matrix of a real element must be real"):
        trace_ad(spec, w)


def _parsable_specs():
    out = []
    for e in corpus_entries():
        try:
            out.append(pytest.param(e.spec(), id=e.entry_id))
        except SpecFormatError:
            pass
    return out


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


@pytest.mark.parametrize("spec", _parsable_specs())
def test_trace_ad_is_the_combination_of_the_basis_traces(spec):
    # random real parts everywhere, imaginary parts on the center of g,
    # where ad vanishes, so ad w is real and Im w adds no trace
    rng = random.Random(spec.name)
    center = center_data(spec).z_g.rows
    singles = [trace_ad(spec, name) for name in spec.names]
    for _ in range(8):
        w = [G(_rational(rng)) for _ in range(spec.dim)]
        for row in center:
            s = G(0, _rational(rng))
            w = [x + s * y for x, y in zip(w, row)]
        assert trace_ad(spec, w) == sum((x * t for x, t in zip(w, singles)), G(0))


def test_ad_matrix_central_element_zero():
    # plain Heisenberg with no dilation part: Z is central in all of g
    spec = spec_from_dict({
        "name": "heis", "n_basis": ["Z", "Y", "X"], "h_basis": [],
        "brackets": [{"x": "X", "y": "Y", "value": [{"c": "1", "b": "Z"}]}]})
    mat = ad_matrix(spec, "Z")
    assert all(v == 0 for row in mat for v in row)


def test_ad_matrix_nilpotent_generator():
    spec = _heisenberg_2param()
    mat = ad_matrix(spec, "X")
    # sends Y to Z, and A to -X/2 (the dilation moves X)
    nonzero = {(i, j): v for i, row in enumerate(mat)
               for j, v in enumerate(row) if v != 0}
    assert nonzero == {(spec.index("Z"), spec.index("Y")): Fraction(1),
                       (spec.index("X"), spec.index("A")): Fraction(-1, 2)}


# -- parsing -----------------------------------------------------------------

def test_parse_error_has_location():
    with pytest.raises(SpecFormatError) as err:
        parse_spec_text("{ not json }")
    assert err.value.line is not None


def test_parse_unknown_label_rejected():
    with pytest.raises(SpecFormatError) as err:
        parse_spec_text(corpus_file_text("five-dilations-verbatim"))
    assert "A6" in str(err.value)


def test_parse_bad_rational_rejected():
    doc = {"name": "x", "n_basis": ["X", "Y", "Z"],
           "brackets": [{"x": "X", "y": "Y",
                         "value": [{"c": "1/0", "b": "Z"}]}]}
    with pytest.raises(SpecFormatError):
        spec_from_dict(doc)


def test_antisymmetric_completion_automatic():
    doc = {"name": "h", "n_basis": ["Z", "Y", "X"], "h_basis": [],
           "brackets": [{"x": "Y", "y": "X", "value": [{"c": "-1", "b": "Z"}]}]}
    spec = spec_from_dict(doc)
    v = spec.bracket(spec.basis_vector("X"), spec.basis_vector("Y"))
    assert v[spec.index("Z")] == 1
