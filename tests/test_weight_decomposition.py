"""Exact weight recovery, against the numpy oracle and beyond its reach.

``tests/weight_oracle.py`` keeps the decomposition that guessed each
eigenvalue from ``np.linalg.eigvals`` through ``limit_denominator``. Where
those guesses reach the weights (small denominators) both must give the
same weight spaces: the same weights with the same RREF rows. Weights with
large denominators, which the guesses never reach, are accepted now, and an
action that is not diagonalizable is still rejected with the same code and
message. The exact root search is checked on its own against seeded
products of linear factors over Z[i], and end to end on clustered and large
integer weights moved by a change of basis.
"""

import random
from fractions import Fraction

import pytest

from conftest import corpus_entry
from gen_specs import (GENERATED, WIDER, blocks, conjugated, dense_center_spec,
                       generated_spec, rotation, specgen)
import rref_oracle
import weight_oracle
from solvlie import admissibility as adm
from solvlie import algebra, linalg
from solvlie.algebra import (DiagonalizationError, LieAlgebraSpec,
                             SpecFormatError, spec_from_dict, validate_spec,
                             weight_decomposition)
from solvlie.corpus import corpus_entries
from solvlie.gaussian import GaussianRational as G
from solvlie.workbench import Workbench
from work_budget import Work


def _outcome(decompose, spec):
    """The weight spaces as sorted (weights, rows) pairs, or the error."""
    try:
        spaces = decompose(spec)
    except DiagonalizationError as exc:
        return exc.code, str(exc)
    return sorted(((tuple((w.re, w.im) for w in sp.weights),
                    [[(x.re, x.im) for x in row] for row in sp.rows])
                   for sp in spaces), key=repr)


def _assert_agree(spec):
    assert _outcome(weight_decomposition, spec) == \
        _outcome(weight_oracle.weight_decomposition, spec)


def _parsed_specs():
    out = []
    for e in corpus_entries():
        try:
            out.append(pytest.param(e.spec(), id=e.entry_id))
        except SpecFormatError:
            pass
    return out


@pytest.mark.parametrize("spec", _parsed_specs())
def test_corpus_weights_match_oracle(spec):
    _assert_agree(spec)


@pytest.mark.parametrize("seed", [1, 7, 13])
def test_generated_weights_match_oracle(seed):
    for doc, _ in specgen.generate(seed):
        _assert_agree(spec_from_dict(doc))


@pytest.mark.parametrize("case", WIDER, ids=lambda c: f"{c[0]}-seed-{c[4]}")
def test_wider_generated_weights_match_oracle(case):
    _assert_agree(generated_spec(*case))


@pytest.mark.parametrize("m", range(10, 25, 2))
def test_dense_center_weights_match_oracle(m):
    _assert_agree(dense_center_spec(m))


def _kernel_calls(spec):
    """The ``linalg.kernel`` calls of one decomposition of spec, which must
    match the oracle's weight spaces."""
    want = _outcome(weight_oracle.weight_decomposition, spec)
    with Work() as work:
        work.calls(linalg, "kernel")
        assert _outcome(weight_decomposition, spec) == want
    return work["kernel"]


@pytest.mark.parametrize("entry_id", [
    "spiral-heisenberg", "coupled-pairs", "free-two-step",
    "heisenberg-complex-dilation", "five-dilations-repaired"])
def test_krylov_route_computes_each_eigenspace_once(entry_id):
    # on these specs some restricted matrix is not diagonal; each
    # eigenvector is a combination of the Krylov vectors that found its
    # weight, so no eigenspace costs a kernel
    assert _kernel_calls(corpus_entry(entry_id).spec()) == 0


@pytest.mark.parametrize("spec", [corpus_entry("heisenberg-2param").spec()] + [
    spec_from_dict(doc) for doc, _ in specgen.generate(1)],
    ids=lambda spec: spec.name)
def test_diagonal_restrictions_call_no_kernel(spec):
    # every restriction is diagonal: each weight space is the rows at its
    # diagonal value, with no elimination
    assert _kernel_calls(spec) == 0


def _in_order(spec):
    """The weight spaces as (weights, rows) in the order they come, or the
    error."""
    try:
        return [(sp.weights, sp.rows) for sp in weight_decomposition(spec)]
    except DiagonalizationError as exc:
        return exc.code, str(exc)


@pytest.mark.parametrize("spec", _parsed_specs() + [
    pytest.param(spec_from_dict(doc), id=doc["name"]) for doc in GENERATED] + [
    pytest.param(dense_center_spec(m), id=f"dense-center-{m}") for m in (10, 16)])
def test_diagonal_split_matches_the_kernel_route_in_order(monkeypatch, spec):
    # the same weights and rows in the same order as when every diagonal
    # restriction goes through the Krylov search
    fast = _in_order(spec)
    monkeypatch.setattr(algebra, "_diagonal", lambda mat: None)
    assert _in_order(spec) == fast


def _krylov_all_columns(mat, v):
    """The minimal polynomial from all size + 1 Krylov vectors, as columns
    of one RREF: the first column without a pivot writes its vector over
    the earlier ones. v is the sparse start vector {column: value}."""
    size = len(mat)
    seq = [[v.get(i, G(0)) for i in range(size)]]
    for _ in range(size):
        u = seq[-1]
        seq.append([sum((u[i] * mat[i][j] for i in range(size)), G(0))
                    for j in range(size)])
    red, pivots = rref_oracle.rref([list(row) for row in zip(*seq)])
    m = len(pivots)
    return [-red[i][m] for i in range(m)] + [G(1)]


@pytest.mark.parametrize("entry_id", [
    "spiral-heisenberg", "coupled-pairs", "free-two-step",
    "heisenberg-complex-dilation", "five-dilations-repaired"])
def test_krylov_polynomial_stops_at_first_dependency(monkeypatch, entry_id):
    # the minimal polynomial is unique, so stopping at the first dependent
    # Krylov vector gives the same coefficients as the full sequence; the
    # vectors returned with it are the first deg m_u Krylov vectors
    seen = []
    krylov = algebra._krylov_polynomial

    def checked(mat, v):
        got, vectors = krylov(mat, v)
        assert got == _krylov_all_columns(mat, v)
        size, u = len(mat), v
        assert len(vectors) == len(got) - 1
        for vec in vectors:
            assert [vec.get(j, G(0)) for j in range(size)] == \
                [u.get(j, G(0)) for j in range(size)]
            u = {j: sum((u.get(i, G(0)) * mat[i][j] for i in range(size)), G(0))
                 for j in range(size)}
        seen.append(len(got) - 1)
        return got, vectors
    monkeypatch.setattr(algebra, "_krylov_polynomial", checked)
    weight_decomposition(corpus_entry(entry_id).spec())
    assert seen


# -- weights the numpy guesses never reached ---------------------------------

def _heisenberg(action, z_weight):
    """[X, Y] = Z with A acting on (X, Y) by ``action`` (the images of X
    and Y) and on Z by ``z_weight``."""
    brackets = [{"x": "X", "y": "Y", "value": [{"c": "1", "b": "Z"}]},
                {"x": "A", "y": "Z", "value": [{"c": str(z_weight), "b": "Z"}]}]
    for lab, image in zip("XY", action):
        brackets.append({"x": "A", "y": lab,
                         "value": [{"c": str(c), "b": b} for b, c in image if c]})
    return spec_from_dict({"name": "heisenberg", "n_basis": ["Z", "Y", "X"],
                           "h_basis": ["A"], "brackets": brackets})


def _dilated(w):
    w = Fraction(w)
    return _heisenberg(([("X", w)], []), w), {w, 0}


def _rotated(a, b):
    a, b = Fraction(a), Fraction(b)
    spec = _heisenberg(([("X", a), ("Y", b)], [("X", -b), ("Y", a)]), 2 * a)
    return spec, {G(2 * a), G(a, b), G(a, -b)}


@pytest.mark.parametrize("spec, weights", [
    _dilated("1/1000003"),
    _dilated("123456789/987654321"),
    _rotated("3/1000003", "5/1000003"),
], ids=["1/1000003", "123456789/987654321", "(3+5i)/1000003"])
def test_large_denominators_accepted_with_a_verdict(spec, weights):
    with pytest.raises(DiagonalizationError) as err:
        weight_oracle.weight_decomposition(spec)
    assert err.value.code == "EIGEN_NOT_GAUSSIAN_RATIONAL"
    report = validate_spec(spec)
    assert report.ok
    assert {sp.weights[0] for sp in spec.weight_spaces()} == weights
    # nonunimodular, and A moves Z, so h meets the center trivially
    assert Workbench(spec).verdict().verdict == adm.VERDICT_ADMISSIBLE


# -- a triangular, non-diagonal action: the Krylov route ---------------------

def _triangular_heisenberg(upper):
    """[X, Y] = Z with A acting by a triangular, non-diagonal matrix with
    distinct diagonal entries 1, 2 and 3: A X = X, A Y = 2Y + X (upper) or
    A Y = 2Y, A X = X + Y (lower), and A Z = 3Z, as ad(A) is a derivation."""
    if upper:
        return _heisenberg(([("X", 1)], [("X", 1), ("Y", 2)]), 3)
    return _heisenberg(([("X", 1), ("Y", 1)], [("Y", 2)]), 3)


@pytest.mark.parametrize("upper", [True, False], ids=["upper", "lower"])
def test_triangular_restriction_takes_the_krylov_route(upper):
    # the diagonal values are the weights, but a value no longer marks a
    # row: the Krylov search finds them, and each weight space is read off
    # the Krylov vectors, with no kernel of ad(A) - weight
    spec = _triangular_heisenberg(upper)
    assert validate_spec(spec).ok
    unit = [{c: G(1)} for c in range(3)]
    images = [algebra._combine((x, spec.bracket_sparse(3, c))
                               for c, x in row.items()) for row in unit]
    mat = algebra._restricted(images, unit)
    assert algebra._diagonal(mat) is None
    assert _kernel_calls(spec) == 0
    assert _multiset(spec) == [("1", 1), ("2", 1), ("3", 1)]


# -- a dense action: the Krylov route -----------------------------------------

def _multiset(spec):
    return sorted((str(sp.weights[0]), sp.dim) for sp in weight_decomposition(spec))


def _repeated(seed):
    """The weights 1 and 1 +- 2i twice each and 2 once, moved."""
    return conjugated(blocks([[1]], [[1]], [[2]], rotation(1, 2),
                             rotation(1, 2)), seed)


Q = [10 ** 9 + 7, 10 ** 9 + 9, 10 ** 9 + 21, 10 ** 9 + 33]
LARGE = [G(Fraction(3, Q[0]), Fraction(5, Q[1])),
         G(Fraction(7, Q[2]), Fraction(2, Q[3]))]


def _large_rotations(seed):
    """The weights w and conj(w) for each w of LARGE, moved."""
    return conjugated(blocks(*(rotation(w.re, w.im) for w in LARGE)), seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_repeated_weights_match_oracle(seed):
    spec = _repeated(seed)
    _assert_agree(spec)
    assert _multiset(spec) == [("1", 2), ("1+2 i", 2), ("1-2 i", 2), ("2", 1)]


@pytest.mark.parametrize("seed", [0, 1])
def test_rotations_with_large_denominators_on_a_dense_action(seed):
    # the minimal polynomial, scaled into Z[i][x], has leading coefficient
    # about 10^36: the roots are lifted past that bound before they are read
    assert _multiset(_large_rotations(seed)) == sorted(
        (str(v), 1) for w in LARGE for v in (w, w.conjugate()))


@pytest.mark.parametrize("family, seed, want", [
    (_repeated, seed, [("1+2 i", 2), ("1", 2), ("1-2 i", 2), ("2", 1)])
    for seed in (0, 1)] + [
    (_large_rotations, seed, [("3/1000000007+5/1000000009 i", 1),
                              ("3/1000000007-5/1000000009 i", 1),
                              ("7/1000000021+2/1000000033 i", 1),
                              ("7/1000000021-2/1000000033 i", 1)])
    for seed in (0, 1)], ids=["repeated-0", "repeated-1", "rotations-0",
                              "rotations-1"])
def test_weight_spaces_keep_their_order(family, seed, want):
    # _assert_agree compares sorted spaces; this pins their order: the
    # roots of the first start vector's Krylov polynomial, by (Re
    # ascending, Im descending)
    assert [(str(sp.weights[0]), sp.dim)
            for sp in weight_decomposition(family(seed))] == want


@pytest.mark.parametrize("seed", [0, 1])
def test_weights_closer_than_float_precision_come_apart(seed):
    close = 1 + Fraction(1, 10 ** 12)
    spec = conjugated(blocks([[1]], [[close]], [[2]]), seed)
    assert _multiset(spec) == [("1", 1), (str(close), 1), ("2", 1)]


@pytest.mark.parametrize("dense", [False, True], ids=["triangular", "dense"])
def test_jordan_block_still_rejected(dense):
    mat = blocks([[2, 1], [0, 2]], [[3]])
    if dense:
        spec = conjugated(mat, 0)
    else:
        names = ["X0", "X1", "X2"]
        spec = LieAlgebraSpec("jordan", names, ["A"], {
            ("A", names[m]): {names[r]: mat[r][m] for r in range(3)
                              if mat[r][m]} for m in range(3)})
    got = _outcome(weight_decomposition, spec)
    assert got == _outcome(weight_oracle.weight_decomposition, spec)
    assert got == ("EIGEN_NOT_GAUSSIAN_RATIONAL",
                   "ad(A) has no Gaussian-rational eigenbasis on a "
                   "3-dimensional invariant subspace")


# -- clustered and large integer weights: the p-adic root search --------------

@pytest.mark.parametrize("weights, seed", [
    ([10 ** 6 + j for j in range(10)], 0),
    ([10 ** 6 + j for j in range(10)], 1),
    ([2 ** 40 + j for j in range(5)], 0),
    ([2 ** 40 + j for j in range(5)], 1),
    (list(range(6)) + [2 ** 40 + j for j in range(6)], 0),
], ids=["1e6+j-seed-0", "1e6+j-seed-1", "2^40+j-seed-0", "2^40+j-seed-1",
        "0..5-and-2^40+j-seed-0"])
def test_clustered_and_large_integer_weights_are_found(weights, seed):
    # H_3 + R^k with the center R^k moved by P D P^-1: every weight is an
    # integer, and the roots of the Krylov polynomials are found exactly
    spec = conjugated(blocks(*([[w]] for w in weights)), seed, heisenberg=True)
    assert validate_spec(spec).ok
    want = sorted((str(w), 1) for w in weights if w) + [("0", 3 + weights.count(0))]
    assert _multiset(spec) == sorted(want)
    report = Workbench(spec).report()
    assert report["admissibility"]["verdict"] == adm.VERDICT_ADMISSIBLE
    assert sorted(int(row[0]) for row in report["basis"]["weights"]) == \
        sorted([0] * 4 + weights)   # Z, Y, X and A


def _expand(factors):
    """The monic product of the linear factors c x - w over Z[i], given as
    (c, w) pairs, coefficients from the constant term up."""
    poly = [G(1)]
    for c, w in factors:
        poly = [a * c - b * w for a, b in zip([G(0)] + poly, poly + [G(0)])]
    return [a / poly[-1] for a in poly]


def _factor_cases():
    """Seeded lists of linear factors (c, w) over Z[i]: entries up to 5,
    1000 or 2^40, c a unit, an integer or a Gaussian integer; every third
    list a cluster within 3 of one centre, every third one closed under
    conjugation."""
    rng = random.Random(42)

    def gaussian(size):
        return G(rng.randint(-size, size), rng.randint(-size, size))
    cases = []
    for k in range(60):
        size = rng.choice([5, 1000, 2 ** 40])
        factors = []
        for _ in range(rng.randint(2, 7)):
            c = rng.choice([G(1), G(rng.randint(1, 9)),
                            G(rng.randint(1, 4), rng.randint(1, 4))])
            w = G(size) + gaussian(3) if k % 3 == 0 else gaussian(size)
            factors.append((c, w))
            if k % 3 == 1:
                factors.append((c.conjugate(), w.conjugate()))
        cases.append(factors)
    # x (x - w) has Cauchy bound 1 + |w|, and p = 3 lifts to 81 < 2 * 50:
    # a root at the edge of the bound, read right only past twice the bound
    return cases + [[(G(1), G(0)), (G(1), G(50))], [(G(1), G(0)), (G(1), G(0, -50))]]


@pytest.mark.parametrize("factors", _factor_cases())
def test_gaussian_roots_match_brute_force(factors):
    # the roots of a product of linear factors are read off the factors;
    # a repeated one (a real w with its conjugate, say) leaves none
    roots = {w / c for c, w in factors}
    want = sorted(roots, key=lambda r: (r.re, -r.im)) \
        if len(roots) == len(factors) else []
    assert algebra._gaussian_roots(_expand(factors)) == want


@pytest.mark.parametrize("poly", [
    [G(-2), G(0), G(1)], [G(1), G(1), G(1)],
    _expand([(G(1), G(1)), (G(1), G(1)), (G(1), G(2))]),
], ids=["x^2-2", "x^2+x+1", "(x-1)^2(x-2)"])
def test_gaussian_roots_none(poly):
    # irrational roots, roots outside Q(i), and a repeated root, which
    # proves the operator not diagonalizable
    assert algebra._gaussian_roots(poly) == []
