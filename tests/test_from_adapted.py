"""``Functional.from_adapted`` against the route it replaced.

``from_adapted`` maps adapted values to real ones through a per-basis
integer table of the block inverses and tests reality on the integer
imaginary sums. The reference below is the replaced route: each value a
``GaussianRational`` sum over the stored inverse rows, reality tested on
the sums, the values read back through ``re``. On the corpus bases (built
and canonical), with int, ``Fraction`` and ``GaussianRational`` values,
both must return the same values or both raise ``RealityError``. An
exact ``Functional`` built directly takes real ``GaussianRational`` values
as the Fractions of their values.
"""

import random
from fractions import Fraction

import pytest

from conftest import VALID_IDS, wb_for
from solvlie.functionals import Functional, RealityError
from solvlie.gaussian import GaussianRational as G, ZERO


def _reference(basis, zvals):
    zs = [G.coerce(z) for z in zvals]
    nd = basis.n
    x = [sum((c * zs[k] for k, c in row), ZERO) for row in basis.n_inverse] + \
        [sum((c * zs[nd + k] for k, c in row), ZERO) for row in basis.h_inverse]
    if any(not xi.is_real() for xi in x):
        raise RealityError("values violate l(conj Z) = conj l(Z)")
    return tuple(xi.re for xi in x)


def _value(rng, real):
    """A random value: int, Fraction or GaussianRational, real when asked."""
    kind = rng.choice(("int", "fraction", "gaussian"))
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "fraction":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    im = 0 if real else Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return G(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), im)


def _zvals(basis, rng, break_reality):
    """Adapted values, conjugate on conjugate pairs and real on
    conj-stable vectors, except for one broken at random when asked."""
    zs = [0] * basis.dim
    for j in range(1, basis.dim + 1):
        s = basis.sigma[j]
        if s == j:
            zs[j - 1] = _value(rng, real=True)
        elif s > j:
            z = G.coerce(_value(rng, real=False))
            zs[j - 1], zs[s - 1] = z, z.conjugate()
    if break_reality:
        j = rng.randrange(basis.dim)
        zs[j] = G.coerce(zs[j]) + G(0, rng.choice((-1, 1)))
    return zs


@pytest.mark.parametrize("entry_id", VALID_IDS)
def test_from_adapted_agrees_with_the_gaussian_route(entry_id):
    wb = wb_for(entry_id)
    rng = random.Random(4302)
    raised = 0
    for basis in (wb.basis, wb.canonical_basis):
        for k in range(40):
            zs = _zvals(basis, rng, break_reality=k % 4 == 3)
            try:
                want = _reference(basis, zs)
            except RealityError:
                with pytest.raises(RealityError):
                    Functional.from_adapted(basis, zs)
                raised += 1
                continue
            got = Functional.from_adapted(basis, zs)
            assert got.values == want and got.exact, (entry_id, k)
            assert all(type(v) is Fraction for v in got.values), (entry_id, k)
            # the point has the adapted values it was built from
            assert [G.coerce(z) for z in got.zvalues()] == \
                [G.coerce(z) for z in zs], (entry_id, k)
    assert raised, entry_id


def test_from_adapted_checks_its_arguments():
    basis = wb_for("spiral-heisenberg").basis
    with pytest.raises(ValueError, match="one value per adapted"):
        Functional.from_adapted(basis, [0] * (basis.dim - 1))
    with pytest.raises(TypeError):
        Functional.from_adapted(basis, [0.5] * basis.dim)



def test_exact_functional_reads_real_gaussian_rationals():
    # real values on the real basis, given as GaussianRationals, are kept
    # as the Fractions of their values; a non-real one is named
    basis = wb_for("spiral-heisenberg").basis
    values = [G(Fraction(k, 3)) for k in range(basis.dim)]
    f = Functional(basis, values, exact=True)
    assert f.values == tuple(Fraction(k, 3) for k in range(basis.dim))
    assert all(type(x) is Fraction for x in f.values)
    values[2] = G(1, 1)
    with pytest.raises(RealityError, match=r"values\[2\]"):
        Functional(basis, values, exact=True)
