"""Exact scalars: arbitrary-precision rationals and Gaussian rationals.

Every coefficient in this package lives in Q(i): complex numbers whose real
and imaginary parts are exact rationals.  ``fractions.Fraction`` supplies the
rational layer (normalized, arbitrary precision); :class:`GaussianRational`
wraps a (re, im) pair and provides field arithmetic, conjugation, exact
modulus-squared, literal parsing and canonical formatting.
:func:`integer_parts` is the one lift of exact values to integers over a
common denominator, which every integer kernel of the package starts from.

Values are immutable; all operations are pure and safe to share between
workers.

Literal syntax (used by every file format in the package):

* rational: ``p/q`` or ``p`` (e.g. ``3/4``, ``-2``)
* Gaussian: ``p/q+r/s i``, ``p/q-r/s i``, ``p/q``, ``r/s i``, ``-r/s i``,
  ``i``, ``-i`` (whitespace optional)
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable

from .errors import ParseError

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    ``*`` by an int, a ``Fraction`` or a real value (``im == 0``) skips the
    four-product formula, ``+`` adds an int or a real value to the real
    part alone, and ``inverse`` inverts a real value directly.
    Every arithmetic result is built by ``_exact``, which skips the
    ``Fraction`` check of ``__init__``, and ``coerce`` is the one int and
    ``Fraction`` conversion.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        """``x`` itself, or the real value of an int (bool included) or Fraction."""
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, Fraction):
            return _exact(x, _FRACTION_ZERO)
        if isinstance(x, int):
            return _exact(Fraction(x), _FRACTION_ZERO)
        raise TypeError(f"cannot interpret {type(x).__name__} as a Gaussian rational")

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def is_unimodular(self) -> bool:
        return self.abs2() == 1

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            if not other.im:
                return _exact(self.re + other.re, self.im)
            if not self.im:
                return _exact(self.re + other.re, other.im)
            return _exact(self.re + other.re, self.im + other.im)
        if isinstance(other, int):
            return _exact(self.re + other, self.im)
        o = GaussianRational.coerce(other)
        return _exact(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational.coerce(other)
        return _exact(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = GaussianRational.coerce(other)
        return _exact(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return _exact(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            if not other.im:
                r = other.re
                return _exact(self.re * r, self.im * r if self.im else self.im)
            if not self.im:
                r = self.re
                return _exact(r * other.re, r * other.im if r else r)
            return _exact(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return _exact(self.re * other, self.im * other if self.im else self.im)
        o = GaussianRational.coerce(other)
        return _exact(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        if not self.im:
            if not self.re:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _exact(1 / self.re, self.im)
        n = self.abs2()
        return _exact(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return self.inverse() ** (-k)
        r = ONE
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def conj(self) -> "GaussianRational":
        return _exact(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus re^2 + im^2 (a rational)."""
        return self.re * self.re + self.im * self.im

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- formatting / parsing ----------------------------------------------

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im} i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)} i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse a Gaussian literal; inverse of ``str``."""
        s = "".join(text.split())
        try:
            if not s.endswith("i"):
                return GaussianRational(parse_rational(s))
            body = s[:-1]
            # the real part ends at the last '+'/'-' that directly follows a digit
            split = max(
                (k for k in range(1, len(body)) if body[k] in "+-" and body[k - 1].isdigit()),
                default=0,
            )
            re_txt, im_txt = body[:split], body[split:]
            if im_txt in ("", "+", "-"):
                im_txt += "1"
            re_val = parse_rational(re_txt) if re_txt else 0
            im_val = parse_rational(im_txt)
        except ParseError as exc:
            raise ParseError(f"bad Gaussian literal {text!r}") from exc
        return GaussianRational(re_val, im_val)


def _exact(re: Fraction, im: Fraction) -> GaussianRational:
    """A GaussianRational from two parts the caller knows to be ``Fraction``.

    It skips the type check of ``__init__``; every arithmetic result is made
    here, so ``re`` and ``im`` are always ``Fraction``.
    """
    g = object.__new__(GaussianRational)
    g.re = re
    g.im = im
    return g


_FRACTION_ZERO = Fraction(0)  # the shared imaginary part of every coerced real
ZERO = GaussianRational(0)
ONE = GaussianRational(1)
HALF = GaussianRational(Fraction(1, 2))  # the one 1/2 constant
I = GaussianRational(0, 1)


def integer_parts(values: Iterable) -> tuple[int, list[int], list[int]]:
    """Exact values as integers over their least common denominator.

    ``values`` are ints, ``Fraction``s or ``GaussianRational``s.  Returns
    (D, re, im) with D the lcm of the denominators of all their real and
    imaginary parts (1 for no values) and re[k] + i im[k] = D values[k].
    """
    re_parts, im_parts = [], []
    for v in values:
        if isinstance(v, GaussianRational):
            re_parts.append(v.re)
            im_parts.append(v.im)
        elif type(v) is int:  # its own numerator over 1
            re_parts.append(v)
            im_parts.append(0)
        else:
            re_parts.append(_as_fraction(v))
            im_parts.append(_FRACTION_ZERO)
    den = math.lcm(*(x.denominator for x in re_parts), *(y.denominator for y in im_parts))
    if den == 1:  # integer values, common in products: no divisions needed
        return 1, [x.numerator for x in re_parts], [y.numerator for y in im_parts]
    return (
        den,
        [x.numerator * (den // x.denominator) for x in re_parts],
        [y.numerator * (den // y.denominator) for y in im_parts],
    )


def rational_parts(text: str) -> tuple[int, int]:
    """The integers (num, den) of a rational literal ``[+-]?digits(/digits)?``.

    Whitespace is ignored, and den > 0 is read as written, not reduced.
    """
    match = _RATIONAL.fullmatch("".join(text.split()))
    try:
        if match:
            num, den = match.groups()
            den = 1 if den is None else int(den)
            if den:
                return int(num), den
    except ValueError:  # longer than the interpreter's integer-string limit
        pass
    raise ParseError(f"bad rational literal {text!r}")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal ``[+-]?digits(/digits)?`` (whitespace ignored)."""
    return Fraction(*rational_parts(text))


def sqrt_fraction(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None when irrational."""
    x = _as_fraction(x)
    if x < 0:
        return None
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def sqrt_gaussian(z: GaussianRational) -> GaussianRational | None:
    """An exact square root of z in Q(i), or None when none exists.

    Of the two roots the one with re > 0 (or re == 0 and im >= 0) is
    returned.
    """
    z = GaussianRational.coerce(z)
    if z.is_zero():
        return ZERO
    n = sqrt_fraction(z.abs2())
    if n is None:
        return None
    x2 = (z.re + n) / 2
    y2 = (n - z.re) / 2
    x = sqrt_fraction(x2)
    if x is None:
        return None
    if x:
        cand = GaussianRational(x, z.im / (2 * x))
    else:
        y = sqrt_fraction(y2)
        if y is None:
            return None
        cand = GaussianRational(0, y)
    if cand * cand == z:
        return cand
    return None
