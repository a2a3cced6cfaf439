import math
import random
from fractions import Fraction

import pytest

from solvlie.gaussian import GaussianRational, parse_gaussian, parts
from solvlie.linalg import is_zero


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor; accepts ints, Fractions and 'p/q' strings."""
    if isinstance(re, str):
        re = Fraction(re)
    if isinstance(im, str):
        im = Fraction(im)
    return GaussianRational(re, im)


def test_field_operations_exact():
    a = gr("3/4", "-2/5")
    b = gr("-1/3", "7")
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * (1 / a) == gr(1)
    assert -(-a) == a


def test_conjugation_involution_and_norm():
    rng = random.Random(0)
    for _ in range(50):
        z = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert z.conjugate().conjugate() == z
        n = z.abs2()
        assert isinstance(n, Fraction)
        assert n == (z * z.conjugate()).re
        assert (z * z.conjugate()).im == 0


def test_i_squared():
    assert gr(0, 1) * gr(0, 1) == gr(-1)


@pytest.mark.parametrize("text,re_, im_", [
    ("3/4", "3/4", "0"),
    ("-2", "-2", "0"),
    ("1/2+3/4 i", "1/2", "3/4"),
    ("1/2-3/4 i", "1/2", "-3/4"),
    ("-1/2+1 i", "-1/2", "1"),
    ("2 i", "0", "2"),
    ("-5/7 i", "0", "-5/7"),
    ("i", "0", "1"),
    ("-i", "0", "-1"),
    ("+i", "0", "1"),
    ("+2 i", "0", "2"),
    ("2-i", "2", "-1"),
    ("-1 i", "0", "-1"),
    ("0", "0", "0"),
])
def test_parse(text, re_, im_):
    z = parse_gaussian(text)
    assert z.re == Fraction(re_) and z.im == Fraction(im_)


@pytest.mark.parametrize("bad", ["", "x", "1+2", "1//2 i", "3/4 j", "--i",
                                 "+-i", "- i"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_gaussian(bad)


def test_format_roundtrip():
    rng = random.Random(1)
    for _ in range(40):
        z = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert parse_gaussian(str(z)) == z


def test_mixing_with_complex_degrades_to_complex():
    z = gr("1/2", "1/2")
    assert isinstance(z * 1.0j, complex)
    assert complex(z) == 0.5 + 0.5j


# -- the integer representation against a (Fraction, Fraction) reference ----

def _rand_fraction(rng):
    kind = rng.random()
    if kind < 0.15:
        return Fraction(0)
    if kind < 0.4:
        return Fraction(rng.randint(-12, 12))
    return Fraction(rng.randint(-40, 40), rng.randint(1, 36))


def _rand_pair(rng):
    kind = rng.random()
    re_ = _rand_fraction(rng)
    if kind < 0.3:
        return re_, Fraction(0)
    im_ = _rand_fraction(rng)
    if kind < 0.4:
        return Fraction(0), im_
    return re_, im_


def _ref_div(a, b):
    (p, q), (r, s) = a, b
    den = r * r + s * s
    return (p * r + q * s) / den, (q * r - p * s) / den


_REF_OPS = {
    "+": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "-": lambda a, b: (a[0] - b[0], a[1] - b[1]),
    "*": lambda a, b: (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]),
    "/": _ref_div,
}
_GR_OPS = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
}


def _assert_canonical(z):
    assert isinstance(z, GaussianRational)
    n, m, d = z._n, z._m, z._d
    assert all(type(x) is int for x in (n, m, d))
    assert d > 0
    assert math.gcd(n, m, d) == 1


def _assert_matches(z, ref):
    _assert_canonical(z)
    assert (z.re, z.im) == ref
    assert z == GaussianRational(*ref)


def _scalar_forms(x):
    """x as an int (when integral) and as a Fraction."""
    forms = [x]
    if x.denominator == 1:
        forms.append(int(x))
    return forms


def test_random_operations_match_fraction_reference():
    rng = random.Random(20260418)
    for _ in range(2000):
        a, b = _rand_pair(rng), _rand_pair(rng)
        x, y = GaussianRational(*a), GaussianRational(*b)
        _assert_matches(x, a)
        _assert_matches(-x, (-a[0], -a[1]))
        _assert_matches(x.conjugate(), (a[0], -a[1]))
        assert x.abs2() == a[0] * a[0] + a[1] * a[1]
        assert x.is_zero() == (a == (0, 0))
        assert x.is_real() == (a[1] == 0)
        assert bool(x) == (a != (0, 0))
        for op, ref in _REF_OPS.items():
            if op == "/" and b == (0, 0):
                with pytest.raises(ZeroDivisionError):
                    x / y
            else:
                _assert_matches(_GR_OPS[op](x, y), ref(a, b))
            # a real scalar on either side, as int and as Fraction
            s = b[0]
            for form in _scalar_forms(s):
                if op == "/" and s == 0:
                    with pytest.raises(ZeroDivisionError):
                        x / form
                else:
                    _assert_matches(_GR_OPS[op](x, form), ref(a, (s, 0)))
                if op == "/" and a == (0, 0):
                    with pytest.raises(ZeroDivisionError):
                        form / x
                else:
                    _assert_matches(_GR_OPS[op](form, x), ref((s, 0), a))


def test_powers_match_repeated_products():
    rng = random.Random(7)
    for _ in range(100):
        a = _rand_pair(rng)
        x = GaussianRational(*a)
        acc = (Fraction(1), Fraction(0))
        for k in range(6):
            _assert_matches(x ** k, acc)
            acc = _REF_OPS["*"](acc, a)


def test_constructor_reduces_mixed_denominators():
    z = GaussianRational(Fraction(1, 6), Fraction(3, 4))
    assert (z._n, z._m, z._d) == (2, 9, 12)
    assert (z.re, z.im) == (Fraction(1, 6), Fraction(3, 4))
    assert GaussianRational(Fraction(6, 4), 2)._d == 2
    w = GaussianRational(True, False)
    _assert_canonical(w)
    assert w == 1


def test_equality_and_hash_with_int_and_fraction():
    rng = random.Random(3)
    for _ in range(300):
        q = _rand_fraction(rng)
        z = GaussianRational(q)
        assert z == q and q == z
        assert hash(z) == hash(q)
        if q.denominator == 1:
            assert z == int(q) and int(q) == z
            assert hash(z) == hash(int(q))
        assert z != q + 1
        w = GaussianRational(q, 1)
        assert w != q and q != w
        assert hash(w) == hash((w.re, w.im))
    assert {Fraction(1, 2): "half"}[gr("1/2")] == "half"
    assert {3: "three"}[gr(3)] == "three"
    assert {gr("1/2", "1/3"): "z"}[GaussianRational(Fraction(3, 6), Fraction(2, 6))] == "z"
    assert gr("1/2") != 0.5  # floats compare by identity, as before
    assert gr("1/2", 1) == complex(0.5, 1)


def test_immutable():
    z = gr("1/2", "3")
    for name in ("_n", "_m", "_d", "re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
    for name in ("_n", "_m", "_d"):
        with pytest.raises(AttributeError):
            delattr(z, name)
    assert (z._n, z._m, z._d) == (1, 6, 2)


def test_conversions_bit_identical_to_fraction_route():
    rng = random.Random(11)
    cases = [(Fraction(1, 3), Fraction(-2, 7)), (Fraction(10 ** 30 + 1, 3), Fraction(1, 10 ** 25)),
             (Fraction(-7, 10 ** 20 + 3), Fraction(0))]
    cases += [_rand_pair(rng) for _ in range(500)]
    for re_, im_ in cases:
        z = GaussianRational(re_, im_)
        c = complex(z)
        ref = complex(float(re_), float(im_))
        assert (c.real.hex(), c.imag.hex()) == (ref.real.hex(), ref.imag.hex())
        if im_ == 0:
            assert float(z).hex() == float(re_).hex()
        else:
            with pytest.raises(ValueError):
                float(z)


def test_abs_is_the_float_modulus():
    # the float zero test |x| <= tol reads it
    assert abs(gr(3, -4)) == 5.0
    assert abs(gr("1/3", 0)) == abs(complex(gr("1/3", 0)))
    assert abs(GaussianRational(0)) == 0.0
    assert is_zero(gr("1/10", "-1/10") ** 12, 1e-9)
    assert not is_zero(gr("1/10", 0), 1e-9)


def test_zero_division_and_float_argument():
    z = gr("2/3", "1/5")
    for zero in (GaussianRational(0), gr(0, 0), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            z / zero
    for num in (1, Fraction(2, 3), gr(1)):
        with pytest.raises(ZeroDivisionError):
            num / GaussianRational(0)
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1, 0.5)
    with pytest.raises(TypeError):
        GaussianRational(gr(1))


def test_repr_and_str_unchanged():
    z = GaussianRational(Fraction(-3, 4), Fraction(5, 2))
    assert repr(z) == "GaussianRational(Fraction(-3, 4), Fraction(5, 2))"
    assert str(z) == "-3/4+5/2 i"
    assert str(gr(0, "-1/2")) == "-1/2 i"
    assert str(gr(7)) == "7"
    assert repr(gr(0)) == "GaussianRational(Fraction(0, 1), Fraction(0, 1))"


def _fraction_str(z: GaussianRational) -> str:
    """str as it was formatted through the Fraction parts."""
    if z.im == 0:
        return str(z.re)
    if z.re == 0:
        return f"{z.im} i"
    sign = "+" if z.im > 0 else "-"
    return f"{z.re}{sign}{abs(z.im)} i"


def test_str_matches_the_fraction_formatting():
    rng = random.Random(11)
    dens = (1, 1, 2, 3, 4, 6, 9, 12, 35, 10**20 + 1)

    def part():
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randint(-60, 60), rng.choice(dens))

    seen = set()
    for _ in range(2000):
        z = GaussianRational(part(), part())
        # quotients too: their fields are in lowest terms only jointly
        w = z / rng.choice((2, 3, -4, 6)) if rng.random() < 0.5 else z
        assert str(w) == _fraction_str(w), (w.re, w.im)
        seen.add((bool(w.re), bool(w.im), w.re.denominator == 1,
                  w.im.denominator == 1))
    assert str(gr(1, "1/2") * 2 / 2) == "1+1/2 i"
    assert str(GaussianRational(Fraction(2, 2), Fraction(1, 2))) == "1+1/2 i"
    assert len(seen) == 9          # every shape of zero, integer and ratio parts


def test_hash_of_real_values_is_the_fraction_hash():
    rng = random.Random(12)
    for _ in range(2000):
        q = Fraction(rng.randint(-10**30, 10**30), rng.choice((1, 1, 2, 7, 10**25)))
        z = GaussianRational(q)
        assert hash(z) == hash(q)
        assert hash(z * 3 - z * 2) == hash(q)
    for k in (-2, -1, 0, 1, 2**61 - 1, 2**61, -(2**64)):
        assert hash(gr(k)) == hash(k) == hash(Fraction(k))


def test_float_and_complex_operands_fall_through():
    z = gr("1/4", "-1/2")
    for other in (0.5, 2 + 1j):
        for result in (z + other, other + z, z - other, other - z,
                       z * other, other * z, z / other, other / z):
            assert isinstance(result, complex)
    assert z + 0.5 == complex(0.75, -0.5)
    assert 1.0 - z == complex(0.75, 0.5)
    assert z / 2.0 == complex(0.125, -0.25)


def test_a_hint_may_write_the_bare_signed_unit():
    # "-i" and "+i" read as "-1 i" and "1 i" in an adaptable_hint
    import json

    from conftest import corpus_file_text
    from solvlie.algebra import spec_from_dict
    doc = json.loads(corpus_file_text("spiral-heisenberg"))
    bare = json.loads(json.dumps(doc).replace('"-1 i"', '"-i"')
                      .replace('"1 i"', '"+i"'))
    assert json.dumps(bare) != json.dumps(doc)
    assert spec_from_dict(bare).adaptable_hint == spec_from_dict(doc).adaptable_hint


def test_parts_are_the_fraction_parts():
    # parts reads Re and Im off the fields, as GaussianRationals
    rng = random.Random(4303)
    for _ in range(200):
        z = GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 6))))
        re, im = parts(z)
        assert (re, im) == (GaussianRational(z.re), GaussianRational(z.im))
        assert re.is_real() and im.is_real()
        if z.is_real():
            assert re is z
