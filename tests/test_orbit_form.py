"""The orbit form l.pair(u, v) against its definition l([u, v]).

``Functional.pair`` evaluates l on the bracket vector ``spec.bracket(u, v)``.
Its result must be an exact GaussianRational equal to
``l.value(spec.bracket(u, v))`` at exact points, and within FLOAT_TOL of it
at float points, for combinations of adapted vectors and of their real and
imaginary parts (the vectors ``section_vectors`` pairs).
"""

import random
from fractions import Fraction

import pytest

from conftest import VALID_IDS, wb_for
from solvlie.functionals import exp_h_coadjoint, sample_functional
from solvlie.gaussian import GaussianRational
from solvlie.linalg import FLOAT_TOL


def _coefficient(rng):
    if rng.random() < 0.4:
        return GaussianRational(0)
    return GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                            Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def _combination(rng, vectors):
    out = [GaussianRational(0)] * len(vectors[0])
    for vec in vectors:
        c = _coefficient(rng)
        if c:
            out = [o + c * x for o, x in zip(out, vec)]
    return out


def _test_vectors(rng, vectors):
    vecs = [list(v) for v in vectors]
    vecs += [[GaussianRational(x.re) for x in v] for v in vectors]
    vecs += [[GaussianRational(x.im) for x in v] for v in vectors]
    vecs += [_combination(rng, vectors) for _ in range(6)]
    return vecs


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_pair_equals_value_of_bracket(entry_id):
    rng = random.Random(400 + VALID_IDS.index(entry_id))
    wb = wb_for(entry_id)
    basis, spec = wb.canonical_basis, wb.spec
    vecs = _test_vectors(rng, basis.vectors)
    points = [sample_functional(basis, rng, bound=b, support=s)
              for b in (1, 9) for s in ("n", "g")]
    for l in points:
        for _ in range(60):
            u, v = rng.choice(vecs), rng.choice(vecs)
            got = l.pair(u, v)
            assert isinstance(got, GaussianRational)
            assert got == l.value(spec.bracket(u, v))
    if not spec.h_dim:
        return
    a = [0.0] * spec.n_dim + [rng.uniform(-1.5, 1.5) for _ in range(spec.h_dim)]
    moved = exp_h_coadjoint(spec, a, points[-1], mode="float")
    fvecs = [[complex(x) for x in vec] for vec in vecs]
    for _ in range(60):
        u, v = rng.choice(fvecs), rng.choice(fvecs)
        got, want = moved.pair(u, v), moved.value(spec.bracket(u, v))
        assert abs(got - want) <= FLOAT_TOL * max(1.0, abs(want))
