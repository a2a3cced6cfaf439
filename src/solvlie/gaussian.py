"""Exact Gaussian-rational arithmetic (elements of Q(i)).

A value is held as three ints (n + m i)/d with d > 0 and gcd(n, m, d) = 1,
so equal values have equal fields, the zero test is two int tests, and each
operation is integer arithmetic followed by one ``math.gcd`` (none where the
result is a Gaussian integer times an int). ``parts`` reads the real and
imaginary parts as GaussianRationals, off the fields; ``str`` and the hash
of an integer read the fields too.

``Fraction`` appears only at the boundary: the constructor's arguments,
``abs2`` and the ``re`` and ``im`` parts, read by the parsers and by the
consumers whose results are rationals or ordered: the values of a point
on the real basis (``Functional.values``), the trace table
(``LieAlgebraSpec.ad_traces``), the factor alpha of a weight
(``algebra.root_factor``), the order of the weight spaces
(``adapted._weight_key``), the sign test of the polarization's positivity
(``admissibility.polarization_data``), the disintegration constant
(``admissibility.disintegration_check``) and the rows printed by
``CenterData.as_dict`` and ``StabilizerData.as_dict``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from operator import attrgetter
from typing import Tuple


def _parts(re, im):
    """(n, m, d) of re + im*i for int or Fraction parts, in lowest terms."""
    for x in (re, im):
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")
    a, b = int(re.numerator), int(re.denominator)
    c, e = int(im.numerator), int(im.denominator)
    if b == e:
        return a, c, b
    # both parts are in lowest terms, so gcd(n, m, lcm(b, e)) = 1 already
    d = b // gcd(b, e) * e
    return a * (d // b), c * (d // e), d


class GaussianRational:
    """A complex number (n + m i)/d with integer n, m and d > 0.

    Immutable. Arithmetic with int/Fraction stays exact; mixing with float
    or complex falls through to Python complex (used by the float pipeline).
    ``re`` and ``im`` return the parts as Fractions.
    """

    __slots__ = ("_n", "_m", "_d")

    def __init__(self, re=0, im=0):
        n, m, d = _parts(re, im)
        _set_n(self, n)
        _set_m(self, m)
        _set_d(self, d)

    def __setattr__(self, *_):
        raise AttributeError("GaussianRational is immutable")

    __delattr__ = __setattr__

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(x)

    # -- parts and predicates --------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._n, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._m, self._d)

    def is_zero(self) -> bool:
        return not self._n and not self._m

    def is_real(self) -> bool:
        return not self._m

    # -- involutions / norms --------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return _made(self._n, -self._m, self._d)

    def abs2(self) -> Fraction:
        """|z|^2, an exact rational."""
        return Fraction(self._n * self._n + self._m * self._m,
                        self._d * self._d)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            d, e = self._d, other._d
            if d == e:
                return _reduced(self._n + other._n, self._m + other._m, d)
            return _reduced(self._n * e + other._n * d,
                            self._m * e + other._m * d, d * e)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if q == 1:
                # n + p d keeps gcd(n + p d, m, d) = gcd(n, m, d) = 1
                return _made(self._n + p * self._d, self._m, self._d)
            return _reduced(self._n * q + p * self._d, self._m * q,
                            self._d * q)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        # _made inlined: every mirrored entry of an exact form pays a sign
        # flip, and the call is about a tenth of its cost
        z = _new(GaussianRational)
        _set_n(z, -self._n)
        _set_m(z, -self._m)
        _set_d(z, self._d)
        return z

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            d, e = self._d, other._d
            if d == e:
                return _reduced(self._n - other._n, self._m - other._m, d)
            return _reduced(self._n * e - other._n * d,
                            self._m * e - other._m * d, d * e)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if q == 1:
                return _made(self._n - p * self._d, self._m, self._d)
            return _reduced(self._n * q - p * self._d, self._m * q,
                            self._d * q)
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if q == 1:
                return _made(p * self._d - self._n, -self._m, self._d)
            return _reduced(p * self._d - self._n * q, -self._m * q,
                            self._d * q)
        if isinstance(other, (float, complex)):
            return other - complex(self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            n, m, p, q = self._n, self._m, other._n, other._m
            if not m and not q:
                return _reduced(n * p, 0, self._d * other._d)
            return _reduced(n * p - m * q, n * q + m * p, self._d * other._d)
        if type(other) is int:
            # the exact kernels' integer entries; a Gaussian integer times
            # one stays in lowest terms over d = 1, with no gcd
            if self._d == 1:
                return _made(self._n * other, self._m * other, 1)
            return _reduced(self._n * other, self._m * other, self._d)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _reduced(self._n * p, self._m * p,
                            self._d * other.denominator)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            p, q, e = other._n, other._m, other._d
            if not q:
                if not p:
                    raise ZeroDivisionError("division by zero GaussianRational")
                if p < 0:
                    p, e = -p, -e
                return _reduced(self._n * e, self._m * e, self._d * p)
            n, m = self._n, self._m
            return _reduced((n * p + m * q) * e, (m * p - n * q) * e,
                            self._d * (p * p + q * q))
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if not p:
                raise ZeroDivisionError("division by zero")
            if p < 0:
                p, q = -p, -q
            return _reduced(self._n * q, self._m * q, self._d * p)
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            n, m = self._n, self._m
            if not n and not m:
                raise ZeroDivisionError("division by zero GaussianRational")
            # (p/q) / ((n + m i)/d) = p d (n - m i) / (q (n^2 + m^2))
            pd = other.numerator * self._d
            return _reduced(pd * n, -pd * m, other.denominator * (n * n + m * m))
        if isinstance(other, (float, complex)):
            return other / complex(self)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return (self._n == other._n and self._m == other._m
                    and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            return (not self._m and self._n == other.numerator
                    and self._d == other.denominator)
        if isinstance(other, complex):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if not self._m:
            # an integer hashes as the int and the Fraction of its value
            return hash(self._n) if self._d == 1 else hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._n or self._m)

    # -- conversions -------------------------------------------------------

    def __complex__(self):
        # int / int is correctly rounded, as Fraction.__float__ is
        return complex(self._n / self._d, self._m / self._d)

    def __abs__(self) -> float:
        """|z| in floats, as the float zero test |x| <= tol reads it."""
        return abs(complex(self))

    def __float__(self):
        if self._m:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return self._n / self._d

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


_set_n = GaussianRational._n.__set__
_set_m = GaussianRational._m.__set__
_set_d = GaussianRational._d.__set__
_new = object.__new__
# the canonical fields (n, m, d) of a value, for kernels that work on the
# integers themselves
_FIELDS = attrgetter("_n", "_m", "_d")


def _made(n: int, m: int, d: int) -> GaussianRational:
    """(n + m i)/d from fields already in canonical form."""
    z = _new(GaussianRational)
    _set_n(z, n)
    _set_m(z, m)
    _set_d(z, d)
    return z


def _reduced(n: int, m: int, d: int) -> GaussianRational:
    """(n + m i)/d for d > 0, brought to lowest terms."""
    g = gcd(n, m, d)
    if g != 1:
        n //= g
        m //= g
        d //= g
    z = _new(GaussianRational)
    _set_n(z, n)
    _set_m(z, m)
    _set_d(z, d)
    return z


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def parts(z: GaussianRational) -> Tuple[GaussianRational, GaussianRational]:
    """Re z and Im z as real GaussianRationals, with no ``Fraction``: the
    parts n/d and m/d of (n + m i)/d, each in lowest terms; a real z is its
    own real part."""
    n, m, d = _FIELDS(z)
    if not m:
        return z, ZERO
    if d == 1:
        return _made(n, 0, 1), _made(m, 0, 1)
    return _reduced(n, 0, d), _reduced(m, 0, d)


_FRAC = r"[+-]?\d+(?:/\d+)?"
_BOTH_RE = re.compile(
    rf"^\s*(?P<real>{_FRAC})\s*(?P<sign>[+-])\s*(?P<imag>\d+(?:/\d+)?)?\s*i\s*$")
# a sign may stand before the bare unit: "-i", "+i"
_IMAG_RE = re.compile(
    r"^\s*(?P<sign>[+-])?(?:(?P<imag>\d+(?:/\d+)?)\s*)?i\s*$")
_REAL_RE = re.compile(rf"^\s*(?P<real>{_FRAC})\s*$")


def parse_gaussian(text: str) -> GaussianRational:
    """Parse 'p/q', 'p/q+r/s i', 'p/q-r/s i', 'r/s i', 'i', '-i' or '+i'
    (ASCII minus)."""
    m = _BOTH_RE.match(text)
    if m:
        mag = Fraction(m.group("imag")) if m.group("imag") else Fraction(1)
        if m.group("sign") == "-":
            mag = -mag
        return GaussianRational(Fraction(m.group("real")), mag)
    m = _IMAG_RE.match(text)
    if m:
        raw = m.group("imag")
        mag = Fraction(raw) if raw is not None else Fraction(1)
        if m.group("sign") == "-":
            mag = -mag
        return GaussianRational(0, mag)
    m = _REAL_RE.match(text)
    if m:
        return GaussianRational(Fraction(m.group("real")))
    raise ValueError(f"not a Gaussian rational: {text!r}")


def _format_part(p: int, d: int) -> str:
    """p / d in lowest terms, as ``str(Fraction(p, d))`` prints it. The
    fields of a value are in lowest terms jointly, not part by part
    ((2 + i) / 2 has the real part 1), so each part takes its own gcd."""
    g = gcd(p, d)
    return str(p // g) if g == d else f"{p // g}/{d // g}"


def format_gaussian(z: GaussianRational) -> str:
    n, m, d = _FIELDS(z)
    if not m:
        return _format_part(n, d)
    im = f"{_format_part(m, d)} i"          # signed: "-1/2 i"
    return f"{_format_part(n, d)}{'+' if m > 0 else ''}{im}" if n else im
